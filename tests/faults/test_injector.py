"""FaultInjector: hooks install/remove cleanly and do what the plan says."""

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultRates
from repro.faults.plan import NS_PER_S, FaultWindow
from repro.net.http import UnresponsiveError


def plan_with(*windows: FaultWindow, horizon_s: float = 120.0) -> FaultPlan:
    return FaultPlan(seed=0, horizon_s=horizon_s, windows=tuple(windows))


def window(kind, target, start_s, end_s, magnitude=0.0) -> FaultWindow:
    return FaultWindow(
        kind=kind, target=target,
        start_ns=int(start_s * NS_PER_S), end_ns=int(end_s * NS_PER_S),
        magnitude=magnitude,
    )


def test_empty_plan_costs_nothing(sgx_testbed):
    clock = sgx_testbed.host.clock
    before = clock.now_ns
    injector = FaultInjector(sgx_testbed, plan_with()).arm()
    injector.tick()
    injector.disarm()
    assert clock.now_ns == before
    assert sgx_testbed.sbi.link_filter is None
    for server in sgx_testbed.module_servers().values():
        assert server.fault_gate is None


def test_module_crash_gates_requests_then_recovers(sgx_testbed):
    testbed = sgx_testbed
    plan = plan_with(window(FaultKind.MODULE_CRASH, "eudm", 0.0, 10.0))
    injector = FaultInjector(testbed, plan).arm()
    eudm_server = testbed.paka.modules["eudm"].server
    assert eudm_server.fault_gate is not None
    with pytest.raises(UnresponsiveError, match=r"down \(module-crash\)"):
        eudm_server.fault_gate(eudm_server)
    assert injector.requests_refused == 1

    # A registration during the outage fails gracefully (503 upstream).
    outcome = testbed.register(testbed.add_subscriber(), establish_session=False)
    assert not outcome.success
    assert "503" in (outcome.failure_cause or "")

    # Past the window the same slice serves again.
    testbed.idle(11.0)
    outcome = testbed.register(testbed.add_subscriber(), establish_session=False)
    assert outcome.success
    injector.disarm()
    assert eudm_server.fault_gate is None


def test_nf_death_gates_core_nf(sgx_testbed):
    testbed = sgx_testbed
    plan = plan_with(window(FaultKind.NF_DEATH, "udr", 0.0, 5.0))
    FaultInjector(testbed, plan).arm()
    assert testbed.udr.server.fault_gate is not None
    assert testbed.udm.server.fault_gate is None
    outcome = testbed.register(testbed.add_subscriber(), establish_session=False)
    assert not outcome.success


def test_link_loss_drops_frames_deterministically(sgx_testbed):
    testbed = sgx_testbed
    plan = plan_with(
        window(FaultKind.LINK_LOSS, "oai-bridge", 0.0, 60.0, magnitude=1.0)
    )
    injector = FaultInjector(testbed, plan).arm()
    assert testbed.sbi.link_filter is not None
    outcome = testbed.register(testbed.add_subscriber(), establish_session=False)
    assert not outcome.success
    assert injector.frames_dropped > 0
    injector.disarm()
    assert testbed.sbi.link_filter is None


def test_latency_spike_slows_but_does_not_fail(sgx_testbed):
    testbed = sgx_testbed
    clock = testbed.host.clock

    t0 = clock.now_ns
    assert testbed.register(testbed.add_subscriber(), establish_session=False).success
    clean_ns = clock.now_ns - t0

    plan = plan_with(
        window(FaultKind.LATENCY_SPIKE, "oai-bridge", 0.0, 120.0, magnitude=10_000.0)
    )
    FaultInjector(testbed, plan).arm()
    t0 = clock.now_ns
    assert testbed.register(testbed.add_subscriber(), establish_session=False).success
    spiked_ns = clock.now_ns - t0
    # Every SBI frame pays 10 ms extra, so the spike dominates.
    assert spiked_ns > clean_ns + 50 * 1_000_000


def test_epc_pressure_fills_and_clears(sgx_testbed):
    testbed = sgx_testbed
    epc = testbed.deployment.epc_manager
    plan = plan_with(
        window(FaultKind.EPC_PRESSURE, "epc", 0.0, 5.0, magnitude=1.0)
    )
    injector = FaultInjector(testbed, plan).arm()
    resident_before = epc.resident_pages
    injector.tick()
    assert injector._noise_region is not None
    assert epc.resident_pages >= resident_before
    assert epc.resident_pages >= int(0.99 * epc.capacity_pages)

    testbed.idle(6.0)  # window over
    injector.tick()
    assert injector._noise_region is None

    injector.disarm()
    assert "fault.noise" not in epc._regions


def test_aex_storm_books_extra_interrupts(sgx_testbed):
    testbed = sgx_testbed
    enclave = testbed.paka.modules["eudm"].runtime.enclave
    plan = plan_with(
        window(FaultKind.AEX_STORM, "eudm", 0.0, 10.0, magnitude=10.0)
    )
    injector = FaultInjector(testbed, plan).arm()
    aexs_before = enclave.stats.aexs
    clock_before = testbed.host.clock.now_ns
    testbed.idle(10.0)
    injector.tick()
    assert injector.storm_aexs_booked > 0
    assert enclave.stats.aexs > aexs_before
    # Booking interrupts never advances the clock beyond the idle itself.
    assert testbed.host.clock.now_ns == clock_before + 10 * NS_PER_S


def test_double_arm_rejected(sgx_testbed):
    injector = FaultInjector(sgx_testbed, plan_with()).arm()
    with pytest.raises(RuntimeError, match="already armed"):
        injector.arm()


def test_tick_before_arm_rejected(sgx_testbed):
    with pytest.raises(RuntimeError, match="not armed"):
        FaultInjector(sgx_testbed, plan_with()).tick()


def test_generated_plan_replays_identically(sgx_testbed):
    """Same (seed, plan) on same-seed testbeds → identical final clocks."""
    from repro.paka.deploy import IsolationMode
    from repro.testbed import Testbed, TestbedConfig

    rates = FaultRates(link_loss_per_min=2.0, latency_spike_per_min=2.0)
    finals = []
    for _ in range(2):
        testbed = Testbed.build(TestbedConfig(isolation=IsolationMode.SGX, seed=12))
        plan = FaultPlan.generate(3, 60.0, rates)
        injector = FaultInjector(testbed, plan).arm()
        outcomes = []
        for _ in range(4):
            injector.tick()
            out = testbed.register(testbed.add_subscriber(), establish_session=False)
            outcomes.append(out.success)
            testbed.idle(5.0)
        finals.append(
            (testbed.host.clock.now_ns, tuple(outcomes), injector.frames_dropped)
        )
    assert finals[0] == finals[1]
