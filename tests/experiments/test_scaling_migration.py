"""Small-scale scaling and migration runs."""

import pytest

from repro.experiments.ablations import userlevel_tcp_ablation
from repro.experiments.migration import migration_experiment, sealed_data_does_not_migrate
from repro.experiments.scaling import horizontal_scaling_experiment
from repro.net.http import HttpClient, HttpResponse
from repro.paka.deploy import IsolationMode


def assert_ok(report):
    failed = report.failed_checks()
    assert not failed, "\n".join(c.format() for c in failed)


@pytest.mark.slow
def test_horizontal_scaling_small():
    report = horizontal_scaling_experiment(
        replica_counts=(1, 2), requests_per_replica=15
    )
    assert_ok(report)
    assert report.derived["capacity_2r_rps"] > 1.7 * report.derived["capacity_1r_rps"]


@pytest.mark.slow
def test_migration_small():
    report = migration_experiment()
    assert_ok(report)
    gaps = {row["backend"]: row["service_gap_s"] for row in report.rows}
    assert gaps["container"] < gaps["secure-vm"] < gaps["sgx"]


@pytest.mark.parametrize(
    "run",
    [
        lambda: horizontal_scaling_experiment(replica_counts=(1,)),
        migration_experiment,
        userlevel_tcp_ablation,
    ],
    ids=["scaling", "migration", "userlevel-tcp-ablation"],
)
def test_a_refused_request_is_never_measured(run, monkeypatch):
    # A real exception, not an assert: ``python -O`` must not measure it.
    monkeypatch.setattr(HttpClient, "request", lambda *args, **kw: HttpResponse(503))
    with pytest.raises(RuntimeError, match="eUDM answered 503"):
        run()


def test_sealed_data_platform_bound():
    assert sealed_data_does_not_migrate()


def test_replica_deployment_shape():
    from repro.container.engine import ContainerEngine
    from repro.hw.host import paper_testbed_host
    from repro.paka.deploy import PakaDeployment

    host = paper_testbed_host(seed=160)
    engine = ContainerEngine(host)
    network = engine.create_network("oai-bridge")
    deployment = PakaDeployment(host, engine, network)
    slice_ = deployment.deploy(
        IsolationMode.CONTAINER, module_names=["eudm"], replicas=3
    )
    assert len(slice_.replica_groups["eudm"]) == 3
    assert slice_.module("eudm") is slice_.replica_groups["eudm"][0]
    # Replica instances are distinct servers on the same bridge.
    names = {m.server.name for m in slice_.replica_groups["eudm"]}
    assert len(names) == 3


def test_replicas_must_be_positive():
    from repro.container.engine import ContainerEngine
    from repro.hw.host import paper_testbed_host
    from repro.paka.deploy import PakaDeployment

    host = paper_testbed_host(seed=161)
    engine = ContainerEngine(host)
    network = engine.create_network("oai-bridge")
    deployment = PakaDeployment(host, engine, network)
    with pytest.raises(ValueError):
        deployment.deploy(IsolationMode.CONTAINER, replicas=0)
