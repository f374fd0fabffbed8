"""Container engine: lifecycle, networks, introspection primitive."""

import pytest

from repro.container.engine import ContainerEngine, ContainerError, ContainerStatus
from repro.container.image import oai_base_image


@pytest.fixture
def engine(host):
    return ContainerEngine(host)


@pytest.fixture
def image():
    img, _ = oai_base_image("eudm-aka", bulk_mb=10)
    return img


def test_run_starts_container(engine, image):
    container = engine.run(image, "c1")
    assert container.status is ContainerStatus.RUNNING
    assert engine.get("c1") is container
    assert container in engine.ps()


def test_run_advances_startup_time(engine, image, host):
    t0 = host.clock.now_ns
    engine.run(image, "c1")
    assert (host.clock.now_ns - t0) / 1e6 > 100  # containerd start latency


def test_duplicate_name_rejected(engine, image):
    engine.run(image, "c1")
    with pytest.raises(ContainerError):
        engine.run(image, "c1")


def test_network_attach_detach(engine, image):
    engine.create_network("bridge0")
    container = engine.run(image, "c1", network="bridge0")
    assert container.endpoint is not None
    engine.get("c1").stop()
    assert container.endpoint is None
    assert container.status is ContainerStatus.EXITED


def test_unknown_network_rejected(engine, image):
    with pytest.raises(ContainerError):
        engine.run(image, "c1", network="missing")


def test_duplicate_network_rejected(engine):
    engine.create_network("n")
    with pytest.raises(ContainerError):
        engine.create_network("n")


def test_stop_shuts_runtime_down(engine, image):
    container = engine.run(image, "c1")
    engine.get("c1").stop()
    with pytest.raises(RuntimeError):
        container.runtime.compute(100)


def test_remove_unregisters(engine, image):
    engine.run(image, "c1")
    engine.remove("c1")
    with pytest.raises(ContainerError):
        engine.get("c1")


def test_introspection_reads_native_runtime_memory(engine, image):
    container = engine.run(image, "c1")
    container.runtime.store_secret("k", bytes(range(16)))
    dump = engine.introspect_memory("c1")
    assert bytes(range(16)).hex().encode() in dump


def test_custom_runtime_factory(engine, image, host):
    from repro.runtime.native import NativeRuntime

    created = []

    def factory(name, h):
        runtime = NativeRuntime(name, h)
        created.append(runtime)
        return runtime

    container = engine.run(image, "c1", runtime_factory=factory)
    assert container.runtime is created[0]
