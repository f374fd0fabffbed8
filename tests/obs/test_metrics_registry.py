"""Counter/gauge/histogram semantics and registry identity rules."""

import pytest

from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.sim.metrics import SampleSeries


def test_counter_monotonic():
    registry = MetricsRegistry()
    counter = registry.counter("requests_total", server="amf")
    counter.set(5)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.set(-2)
    counter.set(9)
    assert counter.value == 9


def test_counter_set_banks_total_across_resets():
    """Prometheus reset semantics: a decrease means the producer restarted.

    ``set`` tracks the raw snapshot; a drop below the last raw value banks
    the accumulated total and starts counting the new incarnation from
    zero, so the cumulative ``value`` never goes backwards.
    """
    counter = Counter("served_total", ())
    counter.set(10)
    counter.set(25)
    assert counter.value == 25
    counter.set(3)  # restart: 25 banked, new process already served 3
    assert counter.value == 28
    counter.set(7)
    assert counter.value == 32
    assert counter.raw == 7


def test_gauge_moves_both_ways():
    registry = MetricsRegistry()
    gauge = registry.gauge("open_connections", nf="ausf")
    gauge.set(3)
    gauge.set(1.5)
    assert gauge.value == 1.5


def test_gauge_rejects_non_finite():
    registry = MetricsRegistry()
    gauge = registry.gauge("temperature")
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            gauge.set(bad)
    gauge.set(2.5)
    assert gauge.value == 2.5


def test_histogram_rejects_non_finite():
    registry = MetricsRegistry()
    histogram = registry.histogram("latency_us")
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            histogram.observe(bad)
    assert histogram.count == 0


def test_registry_get_or_create_by_name_and_labels():
    registry = MetricsRegistry()
    a = registry.counter("x_total", nf="amf")
    b = registry.counter("x_total", nf="amf")
    c = registry.counter("x_total", nf="smf")
    assert a is b
    assert a is not c
    assert len(registry) == 2


def test_label_order_does_not_matter():
    registry = MetricsRegistry()
    a = registry.counter("y_total", nf="amf", peer="ausf")
    b = registry.counter("y_total", peer="ausf", nf="amf")
    assert a is b


def test_histogram_quantiles_guarded_when_empty():
    histogram = Histogram("empty_us", ())
    assert histogram.quantiles() == [None, None, None]
    histogram.observe(7.0)
    assert histogram.quantiles((50.0,)) == [7.0]


def test_histogram_adopts_live_series_without_copy():
    registry = MetricsRegistry()
    series = SampleSeries()
    series.append(1.0)
    histogram = registry.histogram_from_series("lf_us", series, server="udm")
    assert histogram.series is series
    series.append(2.0)  # later appends are visible through the histogram
    assert histogram.count == 2
    assert histogram.total == 3.0


def test_registry_iteration_is_sorted_and_complete():
    registry = MetricsRegistry()
    registry.counter("b_total")
    registry.counter("a_total")
    registry.gauge("g")
    registry.histogram("h_us")
    assert [c.name for c in registry.counters()] == ["a_total", "b_total"]
    assert len(list(iter(registry))) == 4


def test_counter_standalone_construction():
    counter = Counter("z_total", (("nf", "upf"),))
    counter.set(2)
    assert counter.labels == (("nf", "upf"),)
    assert counter.value == 2
