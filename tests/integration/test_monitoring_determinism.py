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

from repro.experiments.availability import _run_arm, monitored_arm
from repro.experiments.harness import warmed_testbed
from repro.obs.collect import observe
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
    def run():
        _, observation = _run_arm(2.0, 10, 60.0, 23, cadence_s=1.0)
        alerts = [a.to_dict() for a in observation.alerts]
        return observation.scraper.tsdb.to_dict(), alerts

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
    # The golden-clock scenario (2 warmups + 5 registrations), observed:
    # an armed scraper AND a trace-context tracer keeping every tree.  The five
    # registrations span ~250 ms of simulated time, so a 50 ms cadence
    # guarantees scrapes land *during* the run.  The final clock and
    # Table III module stats must match the unarmed golden values exactly.
    for seed, golden_ns in sorted(SGX_GOLDEN_CLOCKS.items()):
        testbed = warmed_testbed(IsolationMode.SGX, seed=seed)
        with observe(testbed, cadence_s=0.05, trace_sample=1) as observation:
            for _ in range(5):
                ue = testbed.add_subscriber()
                assert testbed.register(ue, establish_session=False).success
        assert testbed.host.clock.now_ns == golden_ns, seed
        assert observation.scraper.scrapes > 1  # it really sampled mid-run
        assert len(observation.store) == 5  # every trace kept at 1/1
    for name, (eenters, eexits, ocalls) in SGX_GOLDEN_MODULE_STATS.items():
        stats = testbed.paka.modules[name].runtime.sgx_stats
        assert (stats.eenters, stats.eexits, stats.ocalls) == (
            eenters, eexits, ocalls,
        ), name
