"""Burn-rate math and the multi-window fire/resolve lifecycle."""

import pytest

from repro.experiments.harness import warmed_testbed
from repro.obs.slo import (
    REGISTRATION_SOJOURN_DEADLINE_MS,
    Alert,
    LivenessSlo,
    RatioSlo,
    SloEngine,
    SojournSlo,
    ThresholdSlo,
    default_slos,
)
from repro.obs.tsdb import NS_PER_S, Tsdb
from repro.testbed import IsolationMode


def _ratio_slo():
    return RatioSlo(
        "success",
        good=("good_total", {}),
        total=("total_total", {}),
    )


def _feed(tsdb, second, good, total):
    ts = second * NS_PER_S
    tsdb.series("good_total", kind="counter").append(ts, good)
    tsdb.series("total_total", kind="counter").append(ts, total)
    tsdb.scrape_times.append(ts)


def test_ratio_burn_rate_math():
    tsdb = Tsdb()
    _feed(tsdb, 0, 0.0, 0.0)
    _feed(tsdb, 1, 98.0, 100.0)  # 2% bad over a 1% budget -> burn 2.0
    slo = _ratio_slo()
    assert slo.burn_rate(tsdb, 2 * NS_PER_S, NS_PER_S) == pytest.approx(2.0)
    # No traffic in the window -> burn 0, never a divide-by-zero.
    assert slo.burn_rate(tsdb, NS_PER_S, 30 * NS_PER_S) == 0.0


def test_threshold_burn_rate_math():
    tsdb = Tsdb()
    tsdb.series("lt_us_count", kind="counter").append(0, 0.0)
    tsdb.series("lt_us_sum", kind="counter").append(0, 0.0)
    tsdb.series("lt_us_count", kind="counter").append(NS_PER_S, 4.0)
    tsdb.series("lt_us_sum", kind="counter").append(NS_PER_S, 800.0)
    slo = ThresholdSlo("latency", basename="lt_us", labels={}, limit_us=100.0)
    # Windowed mean 200 us over a 100 us limit -> burn 2.0.
    assert slo.burn_rate(tsdb, 2 * NS_PER_S, NS_PER_S) == pytest.approx(2.0)
    # An idle producer is a traffic problem, not a latency one.
    assert slo.burn_rate(tsdb, NS_PER_S, 30 * NS_PER_S) == 0.0
    with pytest.raises(ValueError):
        ThresholdSlo("bad", basename="x", labels={}, limit_us=0.0)


def test_engine_fires_on_both_windows_and_resolves():
    # Timeline, scraped every 5 s: healthy, then 10% failures (and 20x
    # the latency) for 60 s, then healthy again.
    tsdb = Tsdb()
    good = total = latency_sum = 0.0
    for second in range(0, 301, 5):
        failing = 60 <= second < 120
        total += 10.0
        good += 9.0 if failing else 10.0
        latency_sum += 10.0 * (1000.0 if failing else 50.0)
        _feed(tsdb, second, good, total)
        ts = second * NS_PER_S
        tsdb.series("lt_us_count", kind="counter").append(ts, total)
        tsdb.series("lt_us_sum", kind="counter").append(ts, latency_sum)

    latency_slo = ThresholdSlo(
        "latency", basename="lt_us", labels={}, limit_us=100.0
    )
    alerts = SloEngine([_ratio_slo(), latency_slo]).evaluate(tsdb)
    # Both kinds of objective page on the stall, on both window pairs,
    # and clear after it.
    assert sorted((a.slo, a.window) for a in alerts) == [
        ("latency", "fast"), ("latency", "slow"),
        ("success", "fast"), ("success", "slow"),
    ]
    assert all(60 * NS_PER_S <= a.fired_at_ns < 120 * NS_PER_S for a in alerts)
    assert all(a.resolved_at_ns >= 125 * NS_PER_S for a in alerts)
    alert = next(a for a in alerts if a.slo == "success" and a.window == "fast")
    # Fires at the first scrape where both the 60 s and 15 s windows
    # reach burn 4.0 (second 80: 5 of the long window's 12 increments are
    # bad), resolves once the short window is mostly clean again (second
    # 125: 1 bad increment of 3).
    assert alert.fired_at_ns == 80 * NS_PER_S
    assert alert.resolved_at_ns == 125 * NS_PER_S
    assert alert.peak_burn >= 4.0
    payload = alert.to_dict(base_ns=0)
    assert payload["fired_at_s"] == 80.0 and payload["resolved_at_s"] == 125.0


def test_engine_returns_unresolved_alert_at_end_of_timeline():
    tsdb = Tsdb()
    good = total = 0.0
    for second in range(0, 121, 5):
        total += 10.0
        good += 10.0 if second < 30 else 9.0  # fails and never recovers
        _feed(tsdb, second, good, total)
    alerts = SloEngine([_ratio_slo()]).evaluate(tsdb)
    assert [a.window for a in alerts] == ["slow", "fast"]
    assert not any(a.resolved for a in alerts)
    assert alerts[0].to_dict()["resolved_at_s"] is None


def test_engine_long_window_alone_does_not_keep_firing():
    # A burst that has already cleared: the long window still carries the
    # bad fraction for a while, but the clean short window resolves the
    # alert promptly — that is the point of the two-window recipe.
    tsdb = Tsdb()
    _feed(tsdb, 0, 0.0, 0.0)
    _feed(tsdb, 15, 18.0, 20.0)  # 10% bad
    _feed(tsdb, 30, 28.0, 30.0)  # clean again
    _feed(tsdb, 45, 38.0, 40.0)
    slo = _ratio_slo()
    at = 45 * NS_PER_S
    # At second 45 the fast pair's 60 s window alone would still fire...
    assert slo.burn_rate(tsdb, 60 * NS_PER_S, at) >= 4.0
    assert slo.burn_rate(tsdb, 15 * NS_PER_S, at) < 4.0
    # ...but the engine resolved its alert at second 30 and does not
    # refire (the slow pair resolves once its 30 s window is clean).
    alerts = SloEngine([slo]).evaluate(tsdb)
    assert [(a.window, a.resolved_at_ns) for a in alerts] == [
        ("fast", 30 * NS_PER_S), ("slow", 45 * NS_PER_S),
    ]


def test_sojourn_burn_rate_math():
    tsdb = Tsdb()
    base = "gnb_registration_sojourn_ms"
    tsdb.series(base + "_count", kind="counter", gnb="g").append(0, 0.0)
    tsdb.series(base + "_sum", kind="counter", gnb="g").append(0, 0.0)
    tsdb.series(base + "_count", kind="counter", gnb="g").append(NS_PER_S, 4.0)
    tsdb.series(base + "_sum", kind="counter", gnb="g").append(
        NS_PER_S, 4 * 500.0
    )
    slo = SojournSlo("sojourn", labels={"gnb": "g"})
    # Mean 500 ms over the 250 ms deadline -> burn 2.0.
    assert REGISTRATION_SOJOURN_DEADLINE_MS == 250.0
    assert slo.burn_rate(tsdb, 2 * NS_PER_S, NS_PER_S) == pytest.approx(2.0)
    # No attempts in the window: starvation belongs to the liveness SLO.
    assert slo.burn_rate(tsdb, NS_PER_S, 30 * NS_PER_S) == 0.0


def test_liveness_burn_is_rate_shortfall():
    tsdb = Tsdb()
    series = tsdb.series("total_total", kind="counter")
    slo = LivenessSlo(
        "liveness",
        total=("total_total", {}),
        min_rate_per_s=10.0,
    )
    # Unknown series / single sample: silent, never a spurious page.
    assert slo.burn_rate(tsdb, 4 * NS_PER_S, 0) == 0.0
    series.append(0, 0.0)
    assert slo.burn_rate(tsdb, 4 * NS_PER_S, 0) == 0.0
    # 5/s against a 10/s floor -> half the traffic gone, burn 0.5.
    series.append(NS_PER_S, 5.0)
    assert slo.burn_rate(tsdb, NS_PER_S, NS_PER_S) == pytest.approx(0.5)
    # At the floor (or above): burn clamps at 0.
    series.append(2 * NS_PER_S, 25.0)
    assert slo.burn_rate(tsdb, NS_PER_S, 2 * NS_PER_S) == 0.0
    with pytest.raises(ValueError):
        LivenessSlo("bad", total=("t", {}), min_rate_per_s=0.0)


def test_starved_gnb_fires_liveness_alert():
    # Regression for the RatioSlo blind spot: traffic flows for 6 s, then
    # the gNB is fully starved.  The ratio SLO stays at burn 0 the whole
    # run; the liveness companion must page.
    tsdb = Tsdb()
    good = total = 0.0
    for second in range(30):
        if second < 6:
            good += 10.0
            total += 10.0
        _feed(tsdb, second, good, total)
    ratio = RatioSlo(
        "registration-success",
        good=("good_total", {}),
        total=("total_total", {}),
    )
    liveness = LivenessSlo(
        "registration-liveness",
        total=("total_total", {}),
        min_rate_per_s=10.0,
    )
    alerts = SloEngine([ratio, liveness]).evaluate(tsdb)
    assert [a.slo for a in alerts] == ["registration-liveness"]
    # Once the 20 s window's rate is down to 5 % of the floor.
    assert alerts[0].fired_at_ns == 24 * NS_PER_S


def test_default_slos_cover_success_sojourn_and_module_latency():
    testbed = warmed_testbed(IsolationMode.SGX, seed=7)
    slos = default_slos(testbed)
    names = [slo.name for slo in slos]
    assert names == [
        "registration-success",
        "registration-sojourn",
        "stable-latency-eamf",
        "stable-latency-eausf",
        "stable-latency-eudm",
    ]
    # The latency ceilings are the Table II budget: 2.9x the container
    # baseline, comfortably above the measured 1.9-2.2x SGX factors.
    eudm = next(slo for slo in slos if slo.name == "stable-latency-eudm")
    assert eudm.limit_us == pytest.approx(2.9 * 61.0)
    # The liveness floor is opt-in: only workloads that declare their
    # expected arrival rate can distinguish starvation from idleness.
    armed = default_slos(testbed, expected_registration_rate_per_s=2.5)
    liveness = [slo for slo in armed if isinstance(slo, LivenessSlo)]
    assert [slo.name for slo in liveness] == ["registration-liveness"]
    assert liveness[0].min_rate_per_s == pytest.approx(2.5)


def test_alert_is_plain_data():
    alert = Alert(slo="s", window="fast", fired_at_ns=5)
    assert not alert.resolved
    alert.resolved_at_ns = 9
    assert alert.resolved
