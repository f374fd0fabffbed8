"""Golden simulated-time anchors for the wire-speed hot path.

The host-performance work (bulk CTR keystream, fused SGX cost accounting,
indexed event log, syscall batching) must not move a single simulated
nanosecond: every optimisation reorders *host* arithmetic, never the
modelled costs or the RNG draw sequence.  These constants were captured
from the pre-optimisation implementation; any drift here means a rounding
or draw-order regression, not a tolerable calibration change.

Scenario: ``warmed_testbed`` (2 warm-up registrations) + 5 registrations
without session establishment.
"""

import pytest

from repro.experiments.harness import warmed_testbed
from repro.testbed import IsolationMode

# (seed, final clock ns) for the SGX deployment.
SGX_GOLDEN_CLOCKS = {
    7: 173_729_423_830,
    11: 174_765_773_469,
}
# Identical across seeds: the transition structure is seed-independent.
SGX_GOLDEN_OCALL_EVENTS = 5_340
SGX_GOLDEN_TOTAL_EVENTS = 5_574
# Per-module (eenters, eexits, ocalls) after the 5 registrations.
SGX_GOLDEN_MODULE_STATS = {
    "eamf": (1_986, 1_982, 1_982),
    "eausf": (1_988, 1_984, 1_984),
    "eudm": (1_991, 1_987, 1_987),
}

NATIVE_GOLDEN_CLOCK_SEED7 = 371_642_684
NATIVE_GOLDEN_EVENTS_SEED7 = 153


def _run_registrations(isolation, seed):
    testbed = warmed_testbed(isolation, seed=seed)
    for _ in range(5):
        ue = testbed.add_subscriber()
        outcome = testbed.register(ue, establish_session=False)
        assert outcome.success
    return testbed


@pytest.mark.parametrize("seed", sorted(SGX_GOLDEN_CLOCKS))
def test_sgx_clock_and_events_match_golden(seed):
    testbed = _run_registrations(IsolationMode.SGX, seed)
    assert testbed.host.clock.now_ns == SGX_GOLDEN_CLOCKS[seed]
    assert testbed.host.events.count("sgx.ocall") == SGX_GOLDEN_OCALL_EVENTS
    assert len(testbed.host.events) == SGX_GOLDEN_TOTAL_EVENTS


def test_sgx_module_transition_counts_match_golden():
    testbed = _run_registrations(IsolationMode.SGX, 7)
    for name, (eenters, eexits, ocalls) in SGX_GOLDEN_MODULE_STATS.items():
        stats = testbed.paka.modules[name].runtime.sgx_stats
        assert (stats.eenters, stats.eexits, stats.ocalls) == (
            eenters,
            eexits,
            ocalls,
        ), name


def test_native_clock_matches_golden():
    testbed = _run_registrations(None, 7)
    assert testbed.host.clock.now_ns == NATIVE_GOLDEN_CLOCK_SEED7
    assert len(testbed.host.events) == NATIVE_GOLDEN_EVENTS_SEED7


def test_event_log_capacity_does_not_move_the_clock():
    # An inert knob: the clock and every count equal the unbounded twin's.
    bounded = warmed_testbed(IsolationMode.SGX, seed=7, event_log_capacity=500)
    for _ in range(5):
        bounded.register(bounded.add_subscriber(), establish_session=False)
    unbounded = _run_registrations(IsolationMode.SGX, 7)
    assert bounded.host.clock.now_ns == unbounded.host.clock.now_ns == SGX_GOLDEN_CLOCKS[7]
    assert bounded.host.events._counts == unbounded.host.events._counts
    assert len(bounded.host.events) == SGX_GOLDEN_TOTAL_EVENTS
