"""Scraper cadence semantics and counter-reset survival across NF restarts."""

import pytest

from repro.experiments.harness import warmed_testbed
from repro.hw.host import paper_testbed_host
from repro.obs.collect import collect_testbed_metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.scrape import Scraper
from repro.obs.tsdb import NS_PER_S
from repro.sim.clock import SimClock
from repro.testbed import IsolationMode


class _Host:
    monitor = None


def _registry_producer(state):
    def collect():
        registry = MetricsRegistry()
        registry.counter("ticks_total").set(state["ticks"])
        return registry

    return collect


def test_scraper_samples_on_the_cadence_grid():
    clock = SimClock()
    state = {"ticks": 0}
    host = _Host()
    scraper = Scraper(clock, _registry_producer(state), cadence_s=1.0)
    scraper.install(host)
    assert host.monitor is scraper
    assert scraper.scrapes == 1  # install takes a baseline sample

    # Within the first cadence interval: no sample.
    clock.advance_s(0.5)
    scraper.tick()
    assert scraper.scrapes == 1

    # Crossing a deadline samples exactly once, at the tick's sim time.
    clock.advance_s(0.6)
    state["ticks"] = 3
    scraper.tick()
    assert scraper.scrapes == 2
    series = scraper.tsdb.get("ticks_total")
    assert series.latest() == (int(1.1 * NS_PER_S), 3.0)

    scraper.uninstall(host)
    assert host.monitor is None


def test_scraper_coalesces_missed_deadlines_into_one_sample():
    # A coarse tick site (one idle slice spanning many cadence periods)
    # must not fabricate intermediate snapshots: one scrape, then the
    # deadline re-aligns to the grid.
    clock = SimClock()
    state = {"ticks": 0}
    scraper = Scraper(clock, _registry_producer(state), cadence_s=1.0)
    scraper.install(_Host())
    clock.advance_s(5.5)
    scraper.tick()
    assert scraper.scrapes == 2
    scraper.tick()  # still before the re-aligned 6.0 s deadline
    assert scraper.scrapes == 2
    clock.advance_s(0.5)
    scraper.tick()
    assert scraper.scrapes == 3


def test_scraper_rejects_double_install_and_bad_cadence():
    clock = SimClock()
    host = _Host()
    Scraper(clock, _registry_producer({"ticks": 0})).install(host)
    with pytest.raises(RuntimeError):
        Scraper(clock, _registry_producer({"ticks": 0})).install(host)
    with pytest.raises(ValueError):
        Scraper(clock, _registry_producer({"ticks": 0}), cadence_s=0.0)


def test_disabled_scraper_never_samples():
    # Uninstalled is off: the host's ticks no longer reach the scraper.
    host = paper_testbed_host()
    scraper = Scraper(host.clock, _registry_producer({"ticks": 0}))
    scraper.install(host)
    scraper.uninstall(host)
    host.clock.advance_s(10.0)
    host.tick()
    assert host.monitor is None
    assert scraper.scrapes == 1  # the install baseline only


def test_nf_restart_counter_reset_is_detected_and_banked():
    """NF death + revive under ``collect_testbed_metrics``.

    Both reset paths must survive a restart: a *persistent* registry
    (``Counter.set`` banks the pre-reset total) and the Tsdb recording
    rules (``increase`` re-derives the same total from raw samples of
    fresh per-scrape registries).
    """
    testbed = warmed_testbed(IsolationMode.SGX, seed=7)
    clock = testbed.host.clock
    scraper = Scraper.for_testbed(testbed, cadence_s=1.0).install(testbed.host)
    persistent = MetricsRegistry()
    start_ns = clock.now_ns
    served_at_baseline = testbed.ausf.server.requests_served  # warmup traffic

    def served(registry):
        return registry.counter(
            "http_requests_served_total", server="ausf"
        ).value

    collect_testbed_metrics(testbed, registry=persistent)
    served_before_any = served(persistent)

    for _ in range(3):
        testbed.register(testbed.add_subscriber(), establish_session=False)
        testbed.idle(1.0)
    collect_testbed_metrics(testbed, registry=persistent)
    served_first_life = served(persistent)
    assert served_first_life > served_before_any

    # Kill + revive: a restarted AUSF process counts from zero again.
    raw_before_restart = testbed.ausf.server.requests_served
    testbed.ausf.server.requests_served = 0

    for _ in range(2):
        outcome = testbed.register(testbed.add_subscriber(), establish_session=False)
        assert outcome.success
        testbed.idle(1.0)
    collect_testbed_metrics(testbed, registry=persistent)

    # Persistent-registry path: the cumulative value never went backwards
    # and covers both incarnations.
    raw_after_restart = testbed.ausf.server.requests_served
    assert raw_after_restart < raw_before_restart
    assert served(persistent) == served_first_life + raw_after_restart

    # Tsdb path: increase() over the whole run banks the reset the same
    # way.  The window starts at the install baseline, so warmup traffic
    # served *before* monitoring began is rightly excluded.
    scraper.scrape()
    window_ns = clock.now_ns - start_ns
    increase = scraper.tsdb.increase(
        "http_requests_served_total", window_ns, clock.now_ns, server="ausf"
    )
    assert increase == (
        raw_before_restart - served_at_baseline
    ) + raw_after_restart
    scraper.uninstall(testbed.host)
