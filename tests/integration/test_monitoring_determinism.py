"""Monitoring determinism: armed observability must not move the physics.

Two invariants pin the continuous-monitoring layer:

* **Bit-identical replays** — the same ``(seed, plan, cadence)`` must
  produce byte-identical Tsdb contents and alert timestamps (scrapes are
  pull-only and the SLO engine is a pure function of the Tsdb).
* **Golden clocks with instrumentation armed** — installing a scraper
  (and a tracer) on the golden-clock scenario must reproduce the exact
  golden final clock: monitoring reads simulated time, never advances it.
"""

import json

from repro.experiments.availability import monitored_arm
from repro.experiments.harness import warmed_testbed
from repro.obs.scrape import Scraper
from repro.obs.trace import Tracer
from repro.testbed import IsolationMode

from tests.integration.test_golden_clocks import (
    SGX_GOLDEN_CLOCKS,
    SGX_GOLDEN_MODULE_STATS,
)


def _small_arm():
    return monitored_arm(
        factor=2.0, registrations=10, horizon_s=60.0, seed=23, cadence_s=1.0
    )


def test_monitored_arm_replays_byte_identically():
    first = json.dumps(_small_arm(), sort_keys=True)
    second = json.dumps(_small_arm(), sort_keys=True)
    assert first == second


def test_tsdb_contents_and_alerts_replay_bit_identically():
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import BASELINE_RATES, FaultPlan
    from repro.net.http import DEFAULT_SBI_RETRY
    from repro.obs.slo import SloEngine, default_slos

    def run():
        testbed = warmed_testbed(IsolationMode.SGX, seed=23)
        for nf in (testbed.nrf, testbed.udr, testbed.udm, testbed.ausf,
                   testbed.amf, testbed.smf, testbed.upf):
            nf.retry_policy = DEFAULT_SBI_RETRY
        plan = FaultPlan.generate(23, 60.0, BASELINE_RATES.scaled(2.0))
        injector = FaultInjector(testbed, plan).arm()
        scraper = Scraper.for_testbed(
            testbed, cadence_s=1.0, fault_injector=injector
        ).install(testbed.host)
        for _ in range(10):
            testbed.idle(6.0)
            injector.tick()
            testbed.register(testbed.add_subscriber(), establish_session=False)
        injector.disarm()
        scraper.uninstall(testbed.host)
        alerts = SloEngine(default_slos(testbed)).evaluate(scraper.tsdb)
        return scraper.tsdb.to_dict(), [a.to_dict() for a in alerts]

    first_tsdb, first_alerts = run()
    second_tsdb, second_alerts = run()
    assert json.dumps(first_tsdb, sort_keys=True) == json.dumps(
        second_tsdb, sort_keys=True
    )
    assert first_alerts == second_alerts
    # Timestamps in the dumps are simulated nanoseconds, so "equal JSON"
    # really does pin the alert timeline, not just the alert count.
    assert first_tsdb["scrape_times"], "the scraper must actually sample"


def test_golden_clocks_hold_with_scraper_and_tracer_armed():
    # The golden-clock scenario (2 warmups + 5 registrations) with full
    # instrumentation: an armed scraper AND an enabled tracer.  The five
    # registrations span ~250 ms of simulated time, so a 50 ms cadence
    # guarantees scrapes land *during* the run.  The final clock and
    # Table III module stats must match the unarmed golden values exactly.
    for seed, golden_ns in sorted(SGX_GOLDEN_CLOCKS.items()):
        testbed = warmed_testbed(IsolationMode.SGX, seed=seed)
        scraper = Scraper.for_testbed(testbed, cadence_s=0.05).install(testbed.host)
        testbed.host.tracer = Tracer(testbed.host.clock, enabled=True)
        for _ in range(5):
            ue = testbed.add_subscriber()
            outcome = testbed.register(ue, establish_session=False)
            assert outcome.success
        testbed.host.tracer = None
        scraper.uninstall(testbed.host)
        assert testbed.host.clock.now_ns == golden_ns, seed
        assert scraper.scrapes > 1  # the scraper really sampled mid-run
    for name, (eenters, eexits, ocalls) in SGX_GOLDEN_MODULE_STATS.items():
        stats = testbed.paka.modules[name].runtime.sgx_stats
        assert (stats.eenters, stats.eexits, stats.ocalls) == (
            eenters, eexits, ocalls,
        ), name
