"""Metric sample series with exact running summary statistics.

Long campaigns (the 10k-UE capacity benchmark) push hundreds of thousands
of per-request latency samples into the HTTP servers' metric lists.  The
raw samples only matter for percentile plots over bounded windows; the
aggregate statistics must stay exact over the whole run.  This module
splits the two concerns: :class:`RunningStats` holds count / total /
min / max over every sample ever added, while :class:`SampleSeries` is a
packed sequence of raw samples that keeps its stats up to date on every
append.
"""

from __future__ import annotations

from array import array
from copy import copy
from typing import Any, Dict, Iterable, Optional, Tuple


class RunningStats:
    """Exact streaming count/total/min/max/mean over all samples added
    (by :meth:`SampleSeries.append`, the only writer)."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RunningStats(count={self.count}, mean={self.mean:.3f}, "
            f"min={self.minimum}, max={self.maximum})"
        )


class SampleSeries(array):
    """An ``array('d')`` of samples with running stats.

    Samples are packed doubles — 8 bytes each, where a list spent a
    pointer and a boxed float — so a sample must be a real number
    (anything else is a ``TypeError`` and leaves :attr:`stats` untouched)
    and reads back as a ``float``.  Indexing, ``len`` and iteration are a
    sequence's; a copy or a pickle of any protocol keeps the stats; a
    slice is a plain ``array('d')``, which compares equal to another
    array, never to a list.

    The series drops nothing on its own: windows are sliced by index.

    The series is **append-only**: every mutator that introduces new
    samples (:meth:`extend`, ``+=``) routes through :meth:`append` so the
    running stats always see them, and mutators that would rewrite or
    splice samples in place (``insert``, item or slice assignment) are
    rejected — they would desynchronise :attr:`stats` from the sample
    window.  Deletion is allowed because stats intentionally cover
    everything ever appended, not just the retained window.
    """

    def __new__(cls):
        return super().__new__(cls, "d")

    def __init__(self) -> None:
        self.stats = RunningStats()

    # ``array`` copies its samples but drops the instance dict, and below
    # protocol 3 pickles through ``cls(typecode, list)``, which
    # ``__new__`` refuses; a slotted ``RunningStats`` does not pickle
    # below protocol 2.  So every protocol carries the raw samples and
    # the stats' four numbers, bypassing ``__init__``, and a copy, deep
    # or not, owns its stats: they are part of the series' value.
    def __reduce_ex__(self, protocol: int) -> Tuple[Any, ...]:
        stats = self.stats
        state = (stats.count, stats.total, stats.minimum, stats.maximum)
        return array.__new__, (type(self), "d", self.tobytes()), state

    def __setstate__(
        self, state: Tuple[int, float, Optional[float], Optional[float]]
    ) -> None:
        stats = self.stats = RunningStats()
        stats.count, stats.total, stats.minimum, stats.maximum = state

    def __copy__(self, memo: Optional[Dict[int, Any]] = None) -> "SampleSeries":
        clone = array.__new__(type(self), "d", self.tobytes())
        clone.stats = copy(self.stats)
        return clone

    __deepcopy__ = __copy__

    def append(self, value: float) -> None:
        array.append(self, value)
        stats = self.stats
        stats.count += 1
        stats.total += value
        if stats.minimum is None or value < stats.minimum:
            stats.minimum = value
        if stats.maximum is None or value > stats.maximum:
            stats.maximum = value

    def extend(self, iterable: Iterable[float]) -> None:
        for value in iterable:
            self.append(value)

    def __iadd__(self, iterable: Iterable[float]) -> "SampleSeries":
        self.extend(iterable)
        return self

    def insert(self, index, value) -> None:
        raise TypeError(
            "SampleSeries is append-only: insert() would bypass the "
            "running stats"
        )

    def __setitem__(self, index, value) -> None:
        raise TypeError(
            "SampleSeries is append-only: item/slice assignment would "
            "bypass the running stats"
        )
