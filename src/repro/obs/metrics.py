"""Counters, gauges and histograms behind one registry.

The primitives deliberately reuse :class:`~repro.sim.metrics.RunningStats`
and :class:`~repro.sim.metrics.SampleSeries`: histogram aggregates stay
exact over every observation ever made, the same series the HTTP servers
already use for their latency samples.  A histogram can also *adopt* a live
``SampleSeries`` (``registry.histogram_from_series``), so collection
from a running testbed is a pull — zero cost on the simulation hot path.

Metrics are identified by ``(name, labels)``; ``registry.counter(...)``
is get-or-create, so instrumentation code never needs to pre-declare.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Tuple

from repro.sim.metrics import SampleSeries
from repro.sim.summary import percentiles

LabelItems = Tuple[Tuple[str, str], ...]
MetricKey = Tuple[str, LabelItems]

# Label-kwargs -> canonical sorted key tuple.  Every scrape re-derives
# the same few hundred keys (fixed call sites, fixed label sets), so the
# sort + str() normalisation runs once per distinct label set instead of
# once per metric lookup.  Keyed on the raw insertion-ordered items; the
# cache is tiny in practice (component/NF/host names) but bounded anyway.
_LABEL_KEY_CACHE: Dict[tuple, LabelItems] = {}
_LABEL_KEY_CACHE_CAP = 4096


def _label_key(labels: Dict[str, str]) -> LabelItems:
    try:
        raw = tuple(labels.items())
        cached = _LABEL_KEY_CACHE.get(raw)
    except TypeError:  # unhashable label value: normalise without caching
        return tuple(sorted((str(k), str(v)) for k, v in labels.items()))
    if cached is None:
        if len(_LABEL_KEY_CACHE) >= _LABEL_KEY_CACHE_CAP:
            _LABEL_KEY_CACHE.clear()
        cached = _LABEL_KEY_CACHE[raw] = tuple(
            sorted((str(k), str(v)) for k, v in labels.items())
        )
    return cached


class Counter:
    """A monotonically increasing integer with reset detection.

    ``value`` is the exposed cumulative total; ``raw`` remembers the last
    snapshot handed to :meth:`set`.  When a producer restarts (an NF dies
    and revives under fault injection) its live counters start over from
    zero — Prometheus-style, a *decrease* of the raw snapshot is treated
    as a reset: the pre-reset total is banked and the post-reset value
    counts on top, so ``value`` never goes backwards.
    """

    __slots__ = ("name", "labels", "value", "raw")

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self.value = 0
        self.raw = 0

    def set(self, value: int) -> None:
        """Snapshot-style assignment (pull collection from live objects).

        Monotone snapshot sequences behave as plain assignment
        (``value`` tracks the snapshot exactly); a snapshot below the
        previous one marks a producer restart and accumulates instead.
        """
        if value < 0:
            raise ValueError(
                f"counter {self.name} cannot hold a negative value ({value})"
            )
        if value < self.raw:  # producer restarted: bank the old total
            self.value += value
        else:
            self.value += value - self.raw
        self.raw = value


class Gauge:
    """A point-in-time value that may move either way."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(
                f"gauge {self.name} cannot hold non-finite value {value!r}"
            )
        self.value = value


class Histogram:
    """Distribution metric over a (possibly adopted) sample series.

    ``exemplars`` is an optional adopted mapping of OpenMetrics ``le``
    label strings to ``(value, trace_id, observed_at_ns)`` — the most
    recent traced observation to land in each bucket.  Like the series,
    it is adopted live (the producer owns and mutates it); ``None`` (the
    default) means the producer records no exemplars and export emits
    plain bucket lines.
    """

    __slots__ = ("name", "labels", "series", "exemplars")

    def __init__(
        self,
        name: str,
        labels: LabelItems,
        series: Optional[SampleSeries] = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self.series = series if series is not None else SampleSeries()
        self.exemplars: Optional[Dict[str, Tuple[float, str, int]]] = None

    def observe(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(
                f"histogram {self.name} cannot observe non-finite value "
                f"{value!r}"
            )
        self.series.append(value)

    @property
    def count(self) -> int:
        return self.series.stats.count

    @property
    def total(self) -> float:
        return self.series.stats.total

    @property
    def minimum(self) -> Optional[float]:
        return self.series.stats.minimum

    @property
    def maximum(self) -> Optional[float]:
        return self.series.stats.maximum

    def quantiles(self, qs: Tuple[float, ...] = (50.0, 95.0, 99.0)):
        return percentiles(self.series, qs)


class MetricsRegistry:
    """Get-or-create home of every metric, iterable for export."""

    def __init__(self) -> None:
        self._counters: Dict[MetricKey, Counter] = {}
        self._gauges: Dict[MetricKey, Gauge] = {}
        self._histograms: Dict[MetricKey, Histogram] = {}

    # ------------------------------------------------------------ create

    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _label_key(labels))
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter(name, key[1])
        return metric

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, _label_key(labels))
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge(name, key[1])
        return metric

    def histogram(self, name: str, **labels: str) -> Histogram:
        key = (name, _label_key(labels))
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram(name, key[1])
        return metric

    def histogram_from_series(
        self, name: str, series: SampleSeries, **labels: str
    ) -> Histogram:
        """Adopt a live series (pull collection; no copy, no hot-path cost).

        Handing in a *different* series object for an existing metric
        re-adopts it: a restarted producer allocates fresh series, and a
        persistent registry must follow the live object rather than keep
        reading the dead one.
        """
        key = (name, _label_key(labels))
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram(name, key[1], series=series)
        elif metric.series is not series:
            metric.series = series
        return metric

    # ----------------------------------------------------------- iterate

    def counters(self) -> List[Counter]:
        return [self._counters[key] for key in sorted(self._counters)]

    def gauges(self) -> List[Gauge]:
        return [self._gauges[key] for key in sorted(self._gauges)]

    def histograms(self) -> List[Histogram]:
        return [self._histograms[key] for key in sorted(self._histograms)]

    # Insertion-order views for consumers that key on (name, labels)
    # themselves (the Tsdb ingest path) and don't need the sorted export
    # order — skipping the three per-snapshot sorts matters at scrape
    # cadence.
    def iter_counters(self) -> Iterator[Counter]:
        return iter(self._counters.values())

    def iter_gauges(self) -> Iterator[Gauge]:
        return iter(self._gauges.values())

    def iter_histograms(self) -> Iterator[Histogram]:
        return iter(self._histograms.values())

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def __iter__(self) -> Iterator[object]:
        yield from self.counters()
        yield from self.gauges()
        yield from self.histograms()
