"""A tiny time-series database over the simulated clock.

The scraper (:mod:`repro.obs.scrape`) periodically snapshots a
:class:`~repro.obs.metrics.MetricsRegistry` into this store; each metric
becomes a :class:`TsdbSeries` of ``(sim_ts_ns, value)`` points keyed by
``(name, labels)``, exactly how the registry keys metrics.  Retention is
an optional cap ≥ 2, with appends beyond it dropping the oldest half of
the retained window, so a long campaign's Tsdb stays bounded while
recent history stays dense.

Derived values are **recording rules computed at query time**, never
materialised at ingest:

* :meth:`Tsdb.increase` — Prometheus-style counter increase over a
  window, treating a decrease as a counter reset (the pre-reset value is
  banked and the post-reset value counts from zero),
* :meth:`Tsdb.rate` — increase per second of window.

Everything here only *reads* simulated time: ingesting or querying a
Tsdb never advances the clock and never draws from an RNG, which is what
lets an armed scraper leave golden clocks byte-identical.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import LabelItems, MetricKey, MetricsRegistry, _label_key

NS_PER_S = 1_000_000_000

SamplePoint = Tuple[int, float]  # (sim_ts_ns, value)


class TsdbSeries:
    """One ``(name, labels)`` series of timestamped samples.

    ``kind`` is ``"counter"`` (cumulative; query with increase/rate) or
    ``"gauge"`` (point-in-time; query with latest/quantile).  Samples are
    append-only with monotonically non-decreasing timestamps.
    """

    __slots__ = ("name", "labels", "kind", "cap", "samples")

    def __init__(
        self,
        name: str,
        labels: LabelItems,
        kind: str = "gauge",
        cap: Optional[int] = None,
    ) -> None:
        if kind not in ("counter", "gauge"):
            raise ValueError(f"unknown series kind {kind!r}")
        if cap is not None and cap < 2:
            raise ValueError(f"cap must be >= 2, got {cap}")
        self.name = name
        self.labels = labels
        self.kind = kind
        self.cap = cap
        self.samples: List[SamplePoint] = []

    def append(self, ts_ns: int, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(
                f"series {self.name} cannot ingest non-finite sample {value!r}"
            )
        if self.samples and ts_ns < self.samples[-1][0]:
            raise ValueError(
                f"series {self.name}: timestamps must not go backwards "
                f"({self.samples[-1][0]} -> {ts_ns})"
            )
        self.samples.append((int(ts_ns), value))
        # Beyond the cap, drop the oldest half of the retained window.
        if self.cap is not None and len(self.samples) > self.cap:
            del self.samples[: len(self.samples) // 2]

    def latest(self) -> Optional[SamplePoint]:
        return self.samples[-1] if self.samples else None

    def window(self, start_ns: int, end_ns: int) -> List[SamplePoint]:
        """Samples with ``start_ns <= ts <= end_ns`` (inclusive bounds)."""
        return [s for s in self.samples if start_ns <= s[0] <= end_ns]

    def __len__(self) -> int:
        return len(self.samples)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TsdbSeries({self.name!r}, kind={self.kind!r}, "
            f"n={len(self.samples)})"
        )


class Tsdb:
    """Ring-buffer store of scraped metric samples on the simulated clock."""

    # Per-series exemplar retention: enough to cover any SLO window at
    # scrape cadence (entries are deduplicated per bucket, so the list
    # grows only when a *new* trace lands in a bucket).
    _EXEMPLAR_CAP = 256

    def __init__(self, cap: Optional[int] = None) -> None:
        if cap is not None and not (isinstance(cap, int) and cap >= 2):
            raise ValueError(f"cap must be an int >= 2, got {cap!r}")
        self.cap = cap
        self._series: Dict[MetricKey, TsdbSeries] = {}
        # Exemplar timelines keyed like histogram series: (basename,
        # labels) -> [(observed_at_ns, le, value, trace_id), ...] in
        # ingest order.  Populated from histograms that carry an adopted
        # exemplar map; queried by the SLO engine and the detector to
        # cite trace ids in alert/verdict payloads.
        self._exemplars: Dict[MetricKey, List[Tuple[int, str, float, str]]] = {}
        # Every ingest timestamp, in order — the SLO engine replays these.
        self.scrape_times: List[int] = []

    # ------------------------------------------------------------- series

    def series(self, name: str, kind: str = "gauge", **labels: str) -> TsdbSeries:
        """Get-or-create the series for ``(name, labels)``."""
        key = (name, _label_key(labels))
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = TsdbSeries(
                name, key[1], kind=kind, cap=self.cap
            )
        elif series.kind != kind:
            raise ValueError(
                f"series {name} already exists with kind {series.kind!r}, "
                f"not {kind!r}"
            )
        return series

    def get(self, name: str, **labels: str) -> Optional[TsdbSeries]:
        return self._series.get((name, _label_key(labels)))

    def all_series(self) -> List[TsdbSeries]:
        return [self._series[key] for key in sorted(self._series)]

    def series_named(self, name: str) -> List[TsdbSeries]:
        """Every series with ``name``, in sorted label order.

        The detection analytics fan over per-label series (per-gNB
        arrival counters, shed-by-reason counters) without knowing the
        label values up front; sorted iteration keeps every consumer
        deterministic.
        """
        return [
            self._series[key] for key in sorted(self._series) if key[0] == name
        ]

    def __len__(self) -> int:
        return len(self._series)

    # ------------------------------------------------------------- ingest

    def ingest(self, registry: MetricsRegistry, ts_ns: int) -> None:
        """Pull one registry snapshot into the store at simulated ``ts_ns``.

        Counters and gauges land verbatim; histograms land as cumulative
        ``_count`` / ``_sum`` counter series (quantiles are windowed
        recording rules at query time, never materialised here).
        """
        ts_ns = int(ts_ns)
        # Insertion-order iteration: series are keyed by (name, labels),
        # so ingest order never changes a sample, and the exported views
        # (`all_series`, `to_dict`) sort for themselves.
        for counter in registry.iter_counters():
            self._ingest_one(counter.name, counter.labels, "counter",
                             ts_ns, float(counter.value))
        for gauge in registry.iter_gauges():
            self._ingest_one(gauge.name, gauge.labels, "gauge",
                             ts_ns, gauge.value)
        for histogram in registry.iter_histograms():
            self._ingest_one(histogram.name + "_count", histogram.labels,
                             "counter", ts_ns, float(histogram.count))
            self._ingest_one(histogram.name + "_sum", histogram.labels,
                             "counter", ts_ns, float(histogram.total))
            if histogram.exemplars:
                self._ingest_exemplars(
                    histogram.name, histogram.labels, histogram.exemplars
                )
        self.scrape_times.append(ts_ns)

    def _ingest_exemplars(
        self,
        basename: str,
        labels: LabelItems,
        exemplars: Dict[str, Tuple[float, str, int]],
    ) -> None:
        """Fold a histogram's per-bucket exemplars into the timeline.

        An entry is appended only when the bucket's exemplar changed
        since the previous scrape (new trace id), so a quiet histogram
        adds nothing per scrape.  Buckets are visited in sorted ``le``
        order — ingest stays deterministic no matter how the producer
        populated its dict.
        """
        key = (basename, labels)
        timeline = self._exemplars.get(key)
        if timeline is None:
            timeline = self._exemplars[key] = []
        latest_by_le: Dict[str, str] = {}
        for observed_at_ns, le, _value, trace_id in timeline:
            latest_by_le[le] = trace_id
        for le in sorted(exemplars):
            value, trace_id, observed_at_ns = exemplars[le]
            if latest_by_le.get(le) == trace_id:
                continue
            timeline.append((int(observed_at_ns), le, float(value), trace_id))
        if len(timeline) > self._EXEMPLAR_CAP:
            del timeline[: len(timeline) // 2]

    def _ingest_one(
        self, name: str, labels: LabelItems, kind: str, ts_ns: int, value: float
    ) -> None:
        key = (name, labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = TsdbSeries(
                name, labels, kind=kind, cap=self.cap
            )
        # Inlined :meth:`TsdbSeries.append` (same checks, one call fewer
        # per sample — a scrape ingests a few hundred of these).
        if not math.isfinite(value):
            raise ValueError(
                f"series {name} cannot ingest non-finite sample {value!r}"
            )
        samples = series.samples
        if samples and ts_ns < samples[-1][0]:
            raise ValueError(
                f"series {name}: timestamps must not go backwards "
                f"({samples[-1][0]} -> {ts_ns})"
            )
        samples.append((ts_ns, value))
        cap = series.cap
        if cap is not None and len(samples) > cap:
            del samples[: len(samples) // 2]

    # ---------------------------------------------------- recording rules

    def increase(
        self, name: str, window_ns: int, at_ns: int, **labels: str
    ) -> float:
        """Counter increase over ``[at_ns - window_ns, at_ns]``.

        Prometheus-style reset handling: a sample lower than its
        predecessor means the producer restarted — the positive deltas on
        either side of the reset are summed, and the post-reset value
        counts from zero.  Returns 0.0 with fewer than two samples.
        """
        series = self.get(name, **labels)
        if series is None:
            return 0.0
        window = series.window(at_ns - window_ns, at_ns)
        if len(window) < 2:
            return 0.0
        total = 0.0
        previous = window[0][1]
        for _, value in window[1:]:
            total += value - previous if value >= previous else value
            previous = value
        return total

    def rate(self, name: str, window_ns: int, at_ns: int, **labels: str) -> float:
        """Per-second :meth:`increase` over the window."""
        if window_ns <= 0:
            raise ValueError(f"window must be positive: {window_ns}")
        return self.increase(name, window_ns, at_ns, **labels) / (
            window_ns / NS_PER_S
        )

    def windowed_mean(
        self,
        basename: str,
        window_ns: int,
        at_ns: int,
        **labels: str,
    ) -> Optional[float]:
        """Mean of a histogram over the window: Δ``_sum`` / Δ``_count``.

        The textbook PromQL ``rate(x_sum[w]) / rate(x_count[w])``;
        ``None`` when the window saw no new observations.
        """
        count = self.increase(basename + "_count", window_ns, at_ns, **labels)
        if count <= 0:
            return None
        return self.increase(basename + "_sum", window_ns, at_ns, **labels) / count

    # ---------------------------------------------------------- exemplars

    def exemplars_in_window(
        self, basename: str, window_ns: int, at_ns: int, **labels: str
    ) -> List[str]:
        """Sorted unique trace ids observed in ``[at_ns - window_ns, at_ns]``.

        ``basename`` is the histogram name the exemplars were ingested
        under (e.g. ``gnb_registration_sojourn_ms``).
        """
        timeline = self._exemplars.get((basename, _label_key(labels)))
        if not timeline:
            return []
        start_ns = at_ns - window_ns
        return sorted({
            trace_id
            for observed_at_ns, _le, _value, trace_id in timeline
            if start_ns <= observed_at_ns <= at_ns
        })

    def exemplars_named(
        self, basename: str
    ) -> List[Tuple[LabelItems, List[Tuple[int, str, float, str]]]]:
        """Every exemplar timeline under ``basename``, sorted by labels."""
        return [
            (key[1], self._exemplars[key])
            for key in sorted(self._exemplars)
            if key[0] == basename
        ]

    # -------------------------------------------------------- merge / load

    def absorb(self, data: Dict[str, Any], **extra_labels: str) -> None:
        """Merge a :meth:`to_dict` dump into this store.

        ``extra_labels`` are added to every absorbed series — the
        partitioned campaign driver merges per-shard dumps with a
        ``shard`` label, so same-named series from different shards stay
        distinct (and per-shard timestamp monotonicity is preserved).
        Scrape times are pooled and kept sorted, which makes the merged
        store independent of absorb order.
        """
        for raw in data.get("series", []):
            labels = dict(raw["labels"])
            labels.update(extra_labels)
            series = self.series(raw["name"], kind=raw["kind"], **labels)
            for ts_ns, value in raw["samples"]:
                series.append(int(ts_ns), float(value))
        for raw in data.get("exemplars", []):
            labels = dict(raw["labels"])
            labels.update(extra_labels)
            key = (raw["name"], _label_key(labels))
            timeline = self._exemplars.setdefault(key, [])
            for observed_at_ns, le, value, trace_id in raw["entries"]:
                timeline.append(
                    (int(observed_at_ns), str(le), float(value), str(trace_id))
                )
        self.scrape_times = sorted(
            self.scrape_times + [int(t) for t in data.get("scrape_times", [])]
        )

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Tsdb":
        """Rebuild a store from a :meth:`to_dict` dump."""
        tsdb = cls(cap=data.get("cap"))
        tsdb.absorb(data)
        return tsdb

    # ------------------------------------------------------------- export

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic, JSON-ready dump (bit-identical per seeded run)."""
        payload: Dict[str, Any] = {
            "cap": self.cap,
            "scrape_times": list(self.scrape_times),
            "series": [
                {
                    "name": series.name,
                    "labels": {k: v for k, v in series.labels},
                    "kind": series.kind,
                    "samples": [[ts, value] for ts, value in series.samples],
                }
                for series in self.all_series()
            ],
        }
        if self._exemplars:
            payload["exemplars"] = [
                {
                    "name": key[0],
                    "labels": {k: v for k, v in key[1]},
                    "entries": [
                        [observed_at_ns, le, value, trace_id]
                        for observed_at_ns, le, value, trace_id
                        in self._exemplars[key]
                    ],
                }
                for key in sorted(self._exemplars)
            ]
        return payload
