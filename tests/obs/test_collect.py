"""Pull-collection from a live testbed and single-registration tracing."""

from unittest import mock

import pytest

from repro.experiments.harness import warmed_testbed
from repro.obs.collect import collect_testbed_metrics, observe, trace_registration
from repro.obs.metrics import Counter, MetricsRegistry
from repro.sim.invariants import InvariantViolation
from repro.testbed import IsolationMode, Testbed, TestbedConfig


@pytest.fixture(scope="module")
def native_testbed():
    testbed = Testbed.build(TestbedConfig(isolation=IsolationMode.CONTAINER, seed=5))
    testbed.register(testbed.add_subscriber())
    return testbed


def test_collect_covers_nfs_gnb_and_clock(native_testbed):
    registry = native_testbed.collect_metrics()
    counters = {
        (c.name, c.labels): c.value for c in registry.counters()
    }
    assert counters[
        ("gnb_registrations_succeeded_total", (("gnb", "gnb-0"),))
    ] == 1
    assert counters[
        ("sim_clock_ns_total", (("host", "poweredge-r450"),))
    ] == native_testbed.host.clock.now_ns
    # Every NF server shows up with its request count.
    served = [
        c for c in registry.counters() if c.name == "http_requests_served_total"
    ]
    assert len(served) >= 7


def test_an_observed_window_that_breaks_a_property_raises(native_testbed):
    amf = native_testbed.amf
    with pytest.raises(InvariantViolation, match="no session holds it"):
        with observe(native_testbed):
            amf._guti_to_supi["5g-guti-00101-9999-deadbeef"] = "imsi-001010000000000"
    del amf._guti_to_supi["5g-guti-00101-9999-deadbeef"]


def test_collect_is_idempotent_in_one_registry(native_testbed):
    registry = MetricsRegistry()
    native_testbed.collect_metrics(registry)
    first = {(c.name, c.labels): c.value for c in registry.counters()}
    native_testbed.collect_metrics(registry)
    second = {(c.name, c.labels): c.value for c in registry.counters()}
    assert first == second


def test_histograms_adopt_the_live_server_series(native_testbed):
    registry = native_testbed.collect_metrics()
    amf_lf = next(
        h for h in registry.histograms()
        if h.name == "http_lf_us" and ("server", "amf") in h.labels
    )
    assert amf_lf.series is native_testbed.amf.server.lf_us


def test_collection_does_not_advance_the_clock(native_testbed):
    before = native_testbed.host.clock.now_ns
    native_testbed.collect_metrics()
    assert native_testbed.host.clock.now_ns == before


def test_trace_registration_native():
    testbed = Testbed.build(TestbedConfig(isolation=IsolationMode.CONTAINER, seed=6))
    trace = trace_registration(testbed)
    assert trace.outcome.success
    assert trace.root.kind == "registration"
    assert set(trace.breakdown) >= {"eudm", "eausf", "eamf"}
    assert trace.stats_delta == {}  # a container keeps no SGX counters
    assert testbed.host.tracer is None  # uninstalled afterwards


def test_trace_registration_refuses_double_install():
    testbed = Testbed.build(TestbedConfig(isolation=IsolationMode.CONTAINER, seed=6))
    from repro.obs.trace import Tracer

    testbed.host.tracer = Tracer(testbed.host.clock)
    with pytest.raises(RuntimeError):
        trace_registration(testbed)


def test_observe_uninstalls_on_an_exception():
    testbed = Testbed.build(TestbedConfig(isolation=IsolationMode.CONTAINER, seed=6))
    with pytest.raises(KeyError), observe(testbed, trace_sample=1) as observation:
        assert testbed.host.tracer.store is observation.store
        assert testbed.host.monitor is observation.scraper
        raise KeyError("mid-arm")
    assert testbed.host.tracer is None and testbed.host.monitor is None


def test_sgx_collection_includes_table3_counters():
    testbed = Testbed.build(TestbedConfig(seed=9))
    testbed.register(testbed.add_subscriber())
    registry = testbed.collect_metrics()
    eenters = {
        c.labels: c.value for c in registry.counters()
        if c.name == "sgx_eenters_total"
    }
    assert set(eenters) == {
        (("component", "eamf"),), (("component", "eausf"),),
        (("component", "eudm"),),
    }
    for value in eenters.values():
        assert value > 0


def test_no_counter_snapshot_decreases_in_a_bounded_fault_free_run():
    """Nothing restarts without faults, so every counter snapshot is at
    least the last one; and the OCALL counter of a run with a bounded
    event log is its unbounded twin's, sample for sample."""
    decreases = []
    real_set = Counter.set

    def checked_set(counter, value):
        if value < counter.raw:
            decreases.append((counter.name, counter.labels, counter.raw, value))
        real_set(counter, value)

    ocall_samples = []
    with mock.patch.object(Counter, "set", checked_set):
        for capacity in (500, None):
            testbed = warmed_testbed(IsolationMode.SGX, seed=7, event_log_capacity=capacity)
            with observe(testbed, cadence_s=0.01) as observation:
                for _ in range(6):
                    testbed.register(testbed.add_subscriber(), establish_session=False)
            ocall_samples.append(observation.scraper.tsdb.get(
                "sim_ocall_events_total", host=testbed.host.name
            ).samples)
    assert decreases == []
    assert len(ocall_samples[0]) > 6
    assert ocall_samples[0] == ocall_samples[1]
