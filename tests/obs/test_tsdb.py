"""Tsdb semantics: retention, ingest shape, query-time recording rules."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.tsdb import NS_PER_S, Tsdb, TsdbSeries


def _counter_series(tsdb, points, name="req_total", **labels):
    series = tsdb.series(name, kind="counter", **labels)
    for ts_s, value in points:
        series.append(int(ts_s * NS_PER_S), value)
    return series


def test_series_rejects_unknown_kind_and_tiny_cap():
    with pytest.raises(ValueError):
        TsdbSeries("x", (), kind="summary")
    with pytest.raises(ValueError):
        TsdbSeries("x", (), cap=1)


def test_series_rejects_backwards_time_and_non_finite():
    series = TsdbSeries("x", ())
    series.append(10, 1.0)
    with pytest.raises(ValueError):
        series.append(9, 2.0)
    with pytest.raises(ValueError):
        series.append(11, float("nan"))
    series.append(10, 3.0)  # equal timestamps are allowed
    assert len(series) == 2


def test_series_retention_drops_oldest_half():
    # The BoundedSeries contract: beyond the cap, shed the oldest half of
    # the retained window so recent history stays dense.
    series = TsdbSeries("x", (), cap=4)
    for ts in range(5):
        series.append(ts, float(ts))
    assert [value for _, value in series.samples] == [2.0, 3.0, 4.0]
    assert series.window(0, 10) == [(2, 2.0), (3, 3.0), (4, 4.0)]


def test_tsdb_series_identity_and_kind_conflict():
    tsdb = Tsdb()
    a = tsdb.series("req_total", kind="counter", nf="amf")
    b = tsdb.series("req_total", kind="counter", nf="amf")
    assert a is b
    with pytest.raises(ValueError):
        tsdb.series("req_total", kind="gauge", nf="amf")
    assert len(tsdb) == 1


def test_ingest_maps_registry_kinds():
    registry = MetricsRegistry()
    registry.counter("served_total", nf="amf").set(3)
    registry.gauge("breaker_open", nf="amf").set(1.0)
    histogram = registry.histogram("lt_us", server="eudm-srv")
    histogram.observe(10.0)
    histogram.observe(30.0)

    tsdb = Tsdb()
    tsdb.ingest(registry, 5 * NS_PER_S)
    assert tsdb.get("served_total", nf="amf").kind == "counter"
    assert tsdb.get("breaker_open", nf="amf").kind == "gauge"
    # Histograms land as cumulative _count/_sum counter series.
    assert tsdb.get("lt_us_count", server="eudm-srv").latest()[1] == 2.0
    assert tsdb.get("lt_us_sum", server="eudm-srv").latest()[1] == 40.0
    assert tsdb.scrape_times == [5 * NS_PER_S]


def test_increase_and_rate_over_window():
    tsdb = Tsdb()
    _counter_series(tsdb, [(0, 0.0), (1, 5.0), (2, 9.0), (3, 9.0)])
    at = 3 * NS_PER_S
    assert tsdb.increase("req_total", 3 * NS_PER_S, at) == 9.0
    assert tsdb.increase("req_total", 2 * NS_PER_S, at) == 4.0
    assert tsdb.rate("req_total", 2 * NS_PER_S, at) == 2.0
    # Fewer than two samples in the window -> no increase.
    assert tsdb.increase("req_total", int(0.5 * NS_PER_S), at) == 0.0
    assert tsdb.increase("missing_total", NS_PER_S, at) == 0.0
    with pytest.raises(ValueError):
        tsdb.rate("req_total", 0, at)


def test_increase_handles_counter_reset():
    # Prometheus reset semantics: 0->8, restart, 3->5 = 8 + 3 + 2 = 13.
    tsdb = Tsdb()
    _counter_series(tsdb, [(0, 0.0), (1, 8.0), (2, 3.0), (3, 5.0)])
    assert tsdb.increase("req_total", 3 * NS_PER_S, 3 * NS_PER_S) == 13.0


def test_quantile_and_windowed_mean():
    tsdb = Tsdb()
    _counter_series(tsdb, [(0, 0.0), (2, 4.0)], name="lt_us_count")
    _counter_series(tsdb, [(0, 0.0), (2, 100.0)], name="lt_us_sum")
    assert tsdb.windowed_mean("lt_us", 2 * NS_PER_S, 2 * NS_PER_S) == 25.0
    # No new observations in the window -> None, never a divide-by-zero.
    assert tsdb.windowed_mean("lt_us", NS_PER_S, 10 * NS_PER_S) is None


def test_to_dict_is_sorted_and_json_ready():
    import json

    tsdb = Tsdb(cap=8)
    tsdb.series("b_total", kind="counter").append(1, 1.0)
    tsdb.series("a_total", kind="counter", nf="amf").append(1, 2.0)
    payload = tsdb.to_dict()
    assert [entry["name"] for entry in payload["series"]] == ["a_total", "b_total"]
    assert payload["cap"] == 8
    assert json.dumps(payload)  # JSON-serialisable as-is


def test_from_dict_round_trips():
    tsdb = Tsdb(cap=8)
    tsdb.series("req_total", kind="counter", nf="amf").append(1, 3.0)
    tsdb.series("depth", kind="gauge").append(2, 1.5)
    tsdb.scrape_times.extend([1, 2])
    rebuilt = Tsdb.from_dict(tsdb.to_dict())
    assert rebuilt.to_dict() == tsdb.to_dict()


def test_absorb_adds_labels_and_pools_scrape_times():
    shard0, shard1 = Tsdb(), Tsdb()
    shard0.series("req_total", kind="counter").append(10, 1.0)
    shard0.scrape_times.append(10)
    shard1.series("req_total", kind="counter").append(5, 2.0)
    shard1.scrape_times.append(5)

    # Absorb order must not matter: same-named series stay distinct via
    # the shard label, scrape times come back sorted.
    ab, ba = Tsdb(), Tsdb()
    ab.absorb(shard0.to_dict(), shard="0")
    ab.absorb(shard1.to_dict(), shard="1")
    ba.absorb(shard1.to_dict(), shard="1")
    ba.absorb(shard0.to_dict(), shard="0")
    assert ab.to_dict() == ba.to_dict()
    assert ab.scrape_times == [5, 10]
    assert ab.get("req_total", shard="0").samples == [(10, 1.0)]
    assert ab.get("req_total", shard="1").samples == [(5, 2.0)]


def _exemplar_registry(trace_id: str, at_ns: int) -> MetricsRegistry:
    registry = MetricsRegistry()
    histogram = registry.histogram("sojourn_ms", gnb="gnb-0")
    histogram.observe(42.0)
    histogram.exemplars = {"50": (42.0, trace_id, at_ns)}
    return registry


def test_exemplars_ingest_dedups_per_bucket():
    tsdb = Tsdb()
    tsdb.ingest(_exemplar_registry("a" * 32, 1 * NS_PER_S), 1 * NS_PER_S)
    # Same trace id again: nothing appended.
    tsdb.ingest(_exemplar_registry("a" * 32, 2 * NS_PER_S), 2 * NS_PER_S)
    tsdb.ingest(_exemplar_registry("b" * 32, 3 * NS_PER_S), 3 * NS_PER_S)
    (labels, timeline), = tsdb.exemplars_named("sojourn_ms")
    assert labels == (("gnb", "gnb-0"),)
    assert [(entry[0], entry[3]) for entry in timeline] == [
        (1 * NS_PER_S, "a" * 32), (3 * NS_PER_S, "b" * 32),
    ]


def test_exemplars_in_window_filters_and_sorts():
    tsdb = Tsdb()
    tsdb.ingest(_exemplar_registry("b" * 32, 1 * NS_PER_S), 1 * NS_PER_S)
    tsdb.ingest(_exemplar_registry("a" * 32, 5 * NS_PER_S), 5 * NS_PER_S)
    assert tsdb.exemplars_in_window(
        "sojourn_ms", 10 * NS_PER_S, 6 * NS_PER_S, gnb="gnb-0"
    ) == ["a" * 32, "b" * 32]
    assert tsdb.exemplars_in_window(
        "sojourn_ms", 2 * NS_PER_S, 6 * NS_PER_S, gnb="gnb-0"
    ) == ["a" * 32]
    assert tsdb.exemplars_in_window(
        "sojourn_ms", 10 * NS_PER_S, 6 * NS_PER_S, gnb="other"
    ) == []


def test_exemplars_survive_dump_and_absorb_with_shard_labels():
    tsdb = Tsdb()
    tsdb.ingest(_exemplar_registry("a" * 32, 1 * NS_PER_S), 1 * NS_PER_S)
    dump = tsdb.to_dict()
    assert "exemplars" in dump
    merged = Tsdb()
    merged.absorb(dump, shard="2")
    (labels, timeline), = merged.exemplars_named("sojourn_ms")
    assert dict(labels) == {"gnb": "gnb-0", "shard": "2"}
    assert timeline[0][3] == "a" * 32
    # Exemplar-free stores dump without the key (golden artifacts).
    assert "exemplars" not in Tsdb().to_dict()
