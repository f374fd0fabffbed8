"""Exporter round-trips: JSON and Prometheus text both parse back."""

import json

import pytest

from repro.obs.export import (
    parse_prometheus_text,
    registry_from_dict,
    registry_to_dict,
    registry_to_json,
    registry_to_prometheus_text,
)
from repro.obs.metrics import MetricsRegistry


def _sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("http_requests_served_total", server="eudm-paka-srv-0").set(42)
    registry.counter("sgx_eenters_total", component="eudm").set(1_991)
    registry.gauge("circuit_breaker_open", nf="amf", peer="ausf").set(0.0)
    histogram = registry.histogram("http_lf_us", server="eudm-paka-srv-0")
    for value in (47.1, 50.2, 45.9, 48.8):
        histogram.observe(value)
    return registry


def test_json_round_trip_is_lossless():
    registry = _sample_registry()
    payload = json.loads(registry_to_json(registry))
    rebuilt = registry_from_dict(payload)
    assert registry_to_json(rebuilt) == registry_to_json(registry)


def test_json_dict_shape():
    payload = registry_to_dict(_sample_registry())
    counters = {c["name"]: c for c in payload["counters"]}
    assert counters["http_requests_served_total"]["value"] == 42
    assert counters["sgx_eenters_total"]["labels"] == {"component": "eudm"}
    histogram = payload["histograms"][0]
    assert histogram["count"] == 4
    assert histogram["window"] == [47.1, 50.2, 45.9, 48.8]
    assert histogram["sum"] == pytest.approx(192.0)


def test_prometheus_round_trip():
    registry = _sample_registry()
    text = registry_to_prometheus_text(registry)
    samples = parse_prometheus_text(text)
    assert samples[
        ("http_requests_served_total", (("server", "eudm-paka-srv-0"),))
    ] == 42.0
    assert samples[("sgx_eenters_total", (("component", "eudm"),))] == 1_991.0
    assert samples[
        ("http_lf_us_count", (("server", "eudm-paka-srv-0"),))
    ] == 4.0
    assert samples[
        ("http_lf_us_sum", (("server", "eudm-paka-srv-0"),))
    ] == pytest.approx(192.0)
    # Window quantiles are exposed with quantile labels.
    assert (
        "http_lf_us",
        (("quantile", "0.5"), ("server", "eudm-paka-srv-0")),
    ) in samples


def test_prometheus_inf_bucket_carries_cumulative_count():
    registry = _sample_registry()
    samples = parse_prometheus_text(registry_to_prometheus_text(registry))
    assert samples[
        ("http_lf_us_bucket", (("le", "+Inf"), ("server", "eudm-paka-srv-0")))
    ] == 4.0


def test_empty_histogram_exports_in_both_formats():
    """A registered-but-never-observed histogram must not crash either
    exporter: count/sum are zero, quantile/min/max samples are absent."""
    registry = MetricsRegistry()
    registry.histogram("idle_us", server="udr")
    text = registry_to_prometheus_text(registry)
    samples = parse_prometheus_text(text)
    assert samples[("idle_us_count", (("server", "udr"),))] == 0.0
    assert samples[("idle_us_sum", (("server", "udr"),))] == 0.0
    assert samples[("idle_us_bucket", (("le", "+Inf"), ("server", "udr")))] == 0.0
    assert not any(
        name == "idle_us" for name, _ in samples
    ), "no quantile samples for an empty window"
    rebuilt = registry_from_dict(registry_to_dict(registry))
    assert registry_to_json(rebuilt) == registry_to_json(registry)


def test_prometheus_type_comment_once_per_name():
    registry = MetricsRegistry()
    registry.counter("x_total", nf="amf").set(1)
    registry.counter("x_total", nf="smf").set(2)
    text = registry_to_prometheus_text(registry)
    assert text.count("# TYPE x_total counter") == 1


def test_prometheus_label_escaping_round_trips():
    registry = MetricsRegistry()
    registry.counter("esc_total", note='say "hi"\\now').set(3)
    samples = parse_prometheus_text(registry_to_prometheus_text(registry))
    assert samples[("esc_total", (("note", 'say "hi"\\now'),))] == 3.0


def test_prometheus_rejects_invalid_metric_name():
    registry = MetricsRegistry()
    registry.counter("bad name")
    with pytest.raises(ValueError):
        registry_to_prometheus_text(registry)


def test_empty_registry_exports():
    registry = MetricsRegistry()
    assert registry_from_dict(registry_to_dict(registry)) is not None
    assert parse_prometheus_text(registry_to_prometheus_text(registry)) == {}


def _exemplar_registry() -> MetricsRegistry:
    registry = _sample_registry()
    histogram = registry.histogram("http_lf_us", server="eudm-paka-srv-0")
    histogram.exemplars = {
        "50": (47.1, "ab" * 16, 1_000_000_000),
        "+Inf": (50.2, "cd" * 16, 2_000_000_000),
    }
    return registry


def test_prometheus_text_is_eof_terminated():
    """OpenMetrics terminator: last line of every exposition, even an
    empty one."""
    assert registry_to_prometheus_text(MetricsRegistry()).endswith("# EOF\n")
    text = registry_to_prometheus_text(_sample_registry())
    assert text.endswith("# EOF\n")
    assert text.count("# EOF") == 1


def test_exemplar_buckets_export_and_parse_back():
    """Exemplar-annotated bucket lines parse back: counts survive, the
    exemplar suffix is accepted and discarded."""
    registry = _exemplar_registry()
    text = registry_to_prometheus_text(registry)
    assert ' # {trace_id="' + "ab" * 16 + '"} 47.1 1.0' in text
    samples = parse_prometheus_text(text)
    key = ("http_lf_us_bucket", (("le", "50"), ("server", "eudm-paka-srv-0")))
    assert samples[key] == 3.0  # 45.9, 47.1, 48.8 <= 50 < 50.2
    inf_key = (
        "http_lf_us_bucket", (("le", "+Inf"), ("server", "eudm-paka-srv-0"))
    )
    assert samples[inf_key] == 4.0


def test_exemplars_survive_the_json_round_trip():
    registry = _exemplar_registry()
    rebuilt = registry_from_dict(registry_to_dict(registry))
    histogram = rebuilt.histogram("http_lf_us", server="eudm-paka-srv-0")
    assert histogram.exemplars == {
        "50": (47.1, "ab" * 16, 1_000_000_000),
        "+Inf": (50.2, "cd" * 16, 2_000_000_000),
    }
    assert registry_to_json(rebuilt) == registry_to_json(registry)


def test_exemplar_free_registry_dict_shape_is_unchanged():
    """Histograms without exemplars must serialize exactly as before the
    exemplar field existed (golden artifacts are byte-compared)."""
    payload = registry_to_dict(_sample_registry())
    histogram_entry = payload["histograms"][0]
    assert "exemplars" not in histogram_entry
