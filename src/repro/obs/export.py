"""JSON and Prometheus-text exporters for a :class:`MetricsRegistry`.

Both formats are *parseable back* — ``registry_from_dict`` and
``parse_prometheus_text`` reconstruct the counter/gauge values — so the
round-trip is a test surface, not a one-way dump.  The Prometheus output
follows the text exposition format: counters end in ``_total``-style
verbatim names, histograms are exposed summary-style with ``_count`` /
``_sum`` / ``_min`` / ``_max`` plus window quantiles.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Tuple

from repro.obs.metrics import LabelItems, MetricsRegistry

_QUANTILES = (50.0, 95.0, 99.0)
_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _labels_dict(labels: LabelItems) -> Dict[str, str]:
    return {k: v for k, v in labels}


# ----------------------------------------------------------------- JSON


def registry_to_dict(registry: MetricsRegistry) -> Dict[str, Any]:
    """Loss-free dictionary form (histogram windows included)."""
    return {
        "counters": [
            {"name": c.name, "labels": _labels_dict(c.labels), "value": c.value}
            for c in registry.counters()
        ],
        "gauges": [
            {"name": g.name, "labels": _labels_dict(g.labels), "value": g.value}
            for g in registry.gauges()
        ],
        "histograms": [
            {
                "name": h.name,
                "labels": _labels_dict(h.labels),
                "count": h.count,
                "sum": h.total,
                "min": h.minimum,
                "max": h.maximum,
                "window": list(h.series),
                **(
                    {
                        "exemplars": {
                            le: list(h.exemplars[le]) for le in sorted(h.exemplars)
                        }
                    }
                    if h.exemplars
                    else {}
                ),
            }
            for h in registry.histograms()
        ],
    }


def registry_to_json(registry: MetricsRegistry, indent: int = 2) -> str:
    return json.dumps(registry_to_dict(registry), indent=indent, sort_keys=True)


def registry_from_dict(payload: Dict[str, Any]) -> MetricsRegistry:
    """Rebuild a registry from :func:`registry_to_dict` output.

    Histogram running aggregates are only exact when the exported window
    was uncapped (the window then *is* the full history); with a capped
    window the rebuilt stats cover the retained samples, and the exported
    ``count``/``sum`` fields remain the authoritative aggregates.
    """
    registry = MetricsRegistry()
    for entry in payload.get("counters", []):
        registry.counter(entry["name"], **entry["labels"]).set(int(entry["value"]))
    for entry in payload.get("gauges", []):
        registry.gauge(entry["name"], **entry["labels"]).set(float(entry["value"]))
    for entry in payload.get("histograms", []):
        histogram = registry.histogram(entry["name"], **entry["labels"])
        for value in entry["window"]:
            histogram.observe(value)
        exemplars = entry.get("exemplars")
        if exemplars:
            histogram.exemplars = {
                le: (float(ex[0]), str(ex[1]), int(ex[2]))
                for le, ex in exemplars.items()
            }
    return registry


# ----------------------------------------------------------- Prometheus


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: LabelItems, extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    items = tuple(labels) + extra
    if not items:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in items)
    return "{" + inner + "}"


def _check_name(name: str) -> str:
    if not _NAME_OK.match(name):
        raise ValueError(f"invalid Prometheus metric name: {name!r}")
    return name


def _format_exemplar(exemplar: Tuple[float, str, int]) -> str:
    """OpenMetrics exemplar suffix: `` # {trace_id="..."} value ts``."""
    value, trace_id, observed_at_ns = exemplar
    return (
        f' # {{trace_id="{_escape_label_value(trace_id)}"}} '
        f"{value} {observed_at_ns / 1e9}"
    )


def registry_to_prometheus_text(registry: MetricsRegistry) -> str:
    """Prometheus text exposition format (counters, gauges, summaries),
    terminated with the OpenMetrics ``# EOF`` marker."""
    lines: List[str] = []
    typed: set = set()

    def _type_line(name: str, kind: str) -> None:
        # One TYPE comment per metric name, before its first sample.
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for counter in registry.counters():
        name = _check_name(counter.name)
        _type_line(name, "counter")
        lines.append(f"{name}{_format_labels(counter.labels)} {counter.value}")
    for gauge in registry.gauges():
        name = _check_name(gauge.name)
        _type_line(name, "gauge")
        lines.append(f"{name}{_format_labels(gauge.labels)} {gauge.value}")
    for histogram in registry.histograms():
        name = _check_name(histogram.name)
        labels = histogram.labels
        _type_line(name, "summary")
        lines.append(f"{name}_count{_format_labels(labels)} {histogram.count}")
        lines.append(f"{name}_sum{_format_labels(labels)} {histogram.total}")
        # OpenMetrics exemplars: histograms with an adopted exemplar map
        # expose per-bound cumulative buckets, each annotated with the
        # last traced observation to land in it.  Finite-bucket counts
        # come from the retained window (the raw samples we still hold);
        # the +Inf bucket stays the exact all-time count, which keeps the
        # bucket series monotone (window <= total).
        exemplars = histogram.exemplars
        if exemplars:
            window = list(histogram.series)
            bounds = sorted(
                (float("inf") if le == "+Inf" else float(le), le)
                for le in exemplars
            )
            for bound, le in bounds:
                if le == "+Inf":
                    continue
                bucket_count = sum(1 for v in window if v <= bound)
                bucket_labels = _format_labels(labels, (("le", le),))
                lines.append(
                    f"{name}_bucket{bucket_labels} {bucket_count}"
                    f"{_format_exemplar(exemplars[le])}"
                )
        # Histogram-style cumulative terminal bucket: every observation
        # is <= +Inf, so the bucket equals the count — downstream tools
        # that compute histogram_quantile() get a well-formed series even
        # for an empty histogram (count 0).
        inf_bucket = (("le", "+Inf"),)
        inf_exemplar = (
            _format_exemplar(exemplars["+Inf"])
            if exemplars and "+Inf" in exemplars
            else ""
        )
        lines.append(
            f"{name}_bucket{_format_labels(labels, inf_bucket)} "
            f"{histogram.count}{inf_exemplar}"
        )
        if histogram.minimum is not None:
            lines.append(f"{name}_min{_format_labels(labels)} {histogram.minimum}")
            lines.append(f"{name}_max{_format_labels(labels)} {histogram.maximum}")
        for q, value in zip(_QUANTILES, histogram.quantiles(_QUANTILES)):
            if value is None:
                continue
            quantile = ("quantile", f"{q / 100.0:g}")
            lines.append(f"{name}{_format_labels(labels, (quantile,))} {value}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# Sample lines optionally carry an OpenMetrics exemplar suffix
# (`` # {trace_id="..."} value [timestamp]``); the parser accepts and
# discards it — exemplar-aware consumers read the Tsdb, not this text.
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+#\s+\{(?P<exemplar>[^}]*)\}\s+(?P<exemplar_value>\S+)"
    r"(?:\s+(?P<exemplar_ts>\S+))?)?$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus_text(
    text: str,
) -> Dict[Tuple[str, LabelItems], float]:
    """Parse exposition text back to ``{(name, labels): value}``.

    Enough of the format for round-trip tests: comments are skipped,
    label values are unescaped, every sample line must parse.
    """
    samples: Dict[Tuple[str, LabelItems], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"unparseable Prometheus sample line: {line!r}")
        labels: List[Tuple[str, str]] = []
        raw = match.group("labels")
        if raw:
            if _LABEL_RE.sub("", raw).strip(", "):
                raise ValueError(f"unparseable Prometheus labels: {line!r}")
            for key, value in _LABEL_RE.findall(raw):
                # Char-wise unescape: sequential str.replace would corrupt
                # values like ``\now`` (backslash-backslash-n parses as an
                # escaped backslash followed by a literal n, not ``\`` + LF).
                unescaped = re.sub(
                    r"\\(.)",
                    lambda m: "\n" if m.group(1) == "n" else m.group(1),
                    value,
                )
                labels.append((key, unescaped))
        samples[(match.group("name"), tuple(sorted(labels)))] = float(
            match.group("value")
        )
    return samples
