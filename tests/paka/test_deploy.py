"""P-AKA deployment pipeline: modes, policy, lifecycle."""

import pytest

from repro.container.engine import ContainerEngine
from repro.hw.host import paper_testbed_host
from repro.paka.deploy import (
    DeploymentPolicyError,
    IsolationMode,
    PakaDeployment,
    enforce_colocation,
)
from repro.runtime.native import NativeRuntime


@pytest.fixture
def deployment():
    host = paper_testbed_host(seed=41)
    engine = ContainerEngine(host)
    network = engine.create_network("oai-bridge")
    return PakaDeployment(host, engine, network)


def test_container_mode_is_unshielded(deployment):
    slice_ = deployment.deploy(IsolationMode.CONTAINER)
    assert not slice_.shielded
    assert set(slice_.modules) == {"eudm", "eausf", "eamf"}
    assert slice_.enclaves == {}
    for module in slice_.modules.values():
        assert type(module.runtime) is NativeRuntime
        assert module.runtime.sgx_stats is None


def test_sgx_mode_loads_enclaves(deployment):
    slice_ = deployment.deploy(IsolationMode.SGX)
    assert slice_.shielded
    assert set(slice_.enclaves) == {"eudm", "eausf", "eamf"}
    for name, module in slice_.modules.items():
        assert module.runtime.enclave is slice_.enclaves[name]
    for name, span in slice_.load_spans.items():
        assert 0.80 < span.minutes < 1.10, f"{name} load time out of band"


def test_load_time_ordering_follows_image_size(deployment):
    slice_ = deployment.deploy(IsolationMode.SGX)
    spans = slice_.load_spans
    assert spans["eudm"].ns > spans["eausf"].ns > spans["eamf"].ns


def test_selective_module_deployment(deployment):
    slice_ = deployment.deploy(IsolationMode.SGX, module_names=["eudm"])
    assert set(slice_.modules) == {"eudm"}


def test_size_overrides_apply_per_module(deployment):
    slice_ = deployment.deploy(IsolationMode.SGX, size_overrides={"eudm": "1G"})
    assert slice_.enclaves["eudm"].build.enclave_size_bytes == 1024**3
    assert slice_.enclaves["eausf"].build.enclave_size_bytes == 512 * 1024**2


def test_enclaves_use_paper_manifest_defaults(deployment):
    slice_ = deployment.deploy(IsolationMode.SGX)
    build = slice_.enclaves["eudm"].build
    assert build.enclave_size_bytes == 512 * 1024**2
    assert build.max_threads == 4
    assert build.preheat
    assert build.stats_enabled
    assert build.sigstruct is not None  # GSC-signed


def test_unknown_module_rejected(deployment):
    with pytest.raises(KeyError):
        deployment.deploy(IsolationMode.SGX, module_names=["ghost"])


def test_module_accessor_error(deployment):
    slice_ = deployment.deploy(IsolationMode.CONTAINER, module_names=["eudm"])
    with pytest.raises(KeyError, match="eamf"):
        slice_.module("eamf")


def test_teardown_releases_everything(deployment):
    slice_ = deployment.deploy(IsolationMode.SGX)
    slice_.teardown(deployment.engine)
    assert slice_.modules == {}
    assert deployment.engine.ps() == []
    assert deployment.epc_manager.resident_pages == 0


def test_redeploy_after_teardown(deployment):
    first = deployment.deploy(IsolationMode.SGX, module_names=["eudm"])
    first.teardown(deployment.engine)
    second = deployment.deploy(IsolationMode.SGX, module_names=["eudm"])
    assert second.module("eudm").runtime.enclave is second.enclaves["eudm"]


def test_colocation_policy():
    host_a = paper_testbed_host("host-a")
    host_b = paper_testbed_host("host-b")
    enforce_colocation(host_a, host_a)  # same host: fine
    with pytest.raises(DeploymentPolicyError, match="long-term keys"):
        enforce_colocation(host_a, host_b)
