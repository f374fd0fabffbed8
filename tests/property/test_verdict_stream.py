"""The verdict stream against its linear and replayed definitions (hypothesis).

A window's edges are binary searches over a series' samples, and an
:class:`SloEngine` judges each scrape as it lands.  For any timeline:

* ``TsdbSeries.window`` / ``increase`` equal a linear filter over every
  sample, with repeated timestamps, edges on and between samples,
  inverted edges and empty series;
* an engine stepped live over a scrape sequence holds the alerts that
  ``evaluate`` replays over the finished Tsdb, ``to_dict()`` for
  ``to_dict()``, while the Tsdb still retains every sample and exemplar
  (no series cap, scrape times strictly increasing, as the scraper's
  cadence grid stamps them);
* ``evaluate`` starts from fresh state: two calls on one engine return
  equal lists.

The search is derandomized, so a failure replays on every machine.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import LivenessSlo, RatioSlo, SloEngine, SojournSlo, ThresholdSlo
from repro.obs.tsdb import NS_PER_S, TsdbSeries, Tsdb

SEARCH = settings(derandomize=True, database=None, max_examples=60, deadline=None)

# Non-decreasing timestamps (a gap of 0 repeats one) with counter values
# that may drop, as a restarted producer's do.
timeline = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 50).map(float)), max_size=12,
)
edge = st.integers(-2, 40)


def _series(points):
    series = TsdbSeries("x_total", (), kind="counter")
    ts = 0
    for gap, value in points:
        ts += gap
        series.append(ts, value)
    return series


def _linear_increase(window):
    if len(window) < 2:
        return 0.0
    total = 0.0
    previous = window[0][1]
    for _, value in window[1:]:
        total += value - previous if value >= previous else value
        previous = value
    return total


@SEARCH
@given(timeline, edge, edge)
def test_bisect_window_and_increase_equal_a_linear_filter(points, start, end):
    series = _series(points)
    linear = [s for s in series.samples if start <= s[0] <= end]
    assert series.window(start, end) == linear
    assert series.increase(start, end) == _linear_increase(linear)


# One scrape: seconds since the previous one, attempts and failures since
# it, the mean latency of its attempts, and whether one exemplar lands.
scrape = st.tuples(
    st.integers(1, 6), st.integers(0, 12), st.integers(0, 12),
    st.sampled_from([20.0, 120.0, 400.0]), st.booleans(),
)
scrapes = st.lists(scrape, min_size=1, max_size=60)


def _slos():
    return [
        RatioSlo("success", good=("good_total", {}), total=("total_total", {})),
        SojournSlo("sojourn", labels={"gnb": "g"}),
        ThresholdSlo("latency", basename="gnb_registration_sojourn_ms",
                     labels={"gnb": "g"}, limit=100.0),
        LivenessSlo("liveness", total=("total_total", {}), min_rate_per_s=1.0),
    ]


def _run(plan):
    """Ingest ``plan`` scrape by scrape, stepping a live engine."""
    tsdb, engine, registry = Tsdb(), SloEngine(_slos()), MetricsRegistry()
    good, total = registry.counter("good_total"), registry.counter("total_total")
    histogram = registry.histogram("gnb_registration_sojourn_ms", gnb="g")
    ts = 0
    for index, (gap_s, attempts, failures, mean, exemplar) in enumerate(plan):
        ts += gap_s * NS_PER_S
        total.set(total.value + attempts)
        good.set(good.value + attempts - min(failures, attempts))
        for _ in range(attempts):
            histogram.observe(mean)
        if exemplar:
            histogram.exemplars = {"+Inf": (mean, f"{index:032x}", ts - 1)}
        tsdb.ingest(registry, ts)
        engine.on_scrape(tsdb, ts)
    return tsdb, engine


def _dicts(alerts):
    return [alert.to_dict() for alert in alerts]


@SEARCH
@given(scrapes)
def test_live_alerts_equal_the_replay(plan):
    tsdb, engine = _run(plan)
    assert _dicts(engine.alerts) == _dicts(engine.evaluate(tsdb))
    assert list(engine.open.values()) == [a for a in engine.alerts if not a.resolved]


@SEARCH
@given(scrapes)
def test_evaluate_twice_on_one_engine_is_equal(plan):
    tsdb, _ = _run(plan)
    engine = SloEngine(_slos())
    first = _dicts(engine.evaluate(tsdb))
    assert _dicts(engine.evaluate(tsdb)) == first
    assert engine.alerts == [] and engine.open == {}
