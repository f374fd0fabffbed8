"""Bounded metric series with exact running summary statistics.

Long campaigns (the 10k-UE capacity benchmark) push hundreds of thousands
of per-request latency samples into the HTTP servers' metric lists.  The
raw samples only matter for percentile plots over bounded windows; the
aggregate statistics must stay exact over the whole run.  This module
splits the two concerns: :class:`RunningStats` holds count / total /
min / max over every sample ever added, while :class:`BoundedSeries` is a
packed sequence of recent raw samples with an optional retention cap
that keeps its stats up to date on every append.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Optional


class RunningStats:
    """Exact streaming count/total/min/max/mean over all samples added
    (by :meth:`BoundedSeries.append`, the only writer)."""

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


class BoundedSeries(array):
    """An ``array('d')`` of samples with running stats and an optional cap.

    Samples are packed doubles — 8 bytes each, where a list spent a
    pointer and a boxed float — so a sample must be a real number
    (anything else is a ``TypeError`` and leaves :attr:`stats` untouched)
    and reads back as a ``float``.  Indexing, ``len``, iteration and
    pickling are a sequence's; a slice is a plain ``array('d')``, which
    compares equal to another array, never to a list.

    With ``cap=None`` (the default everywhere latency windows are sliced
    by index) nothing is ever dropped.  With a cap, appends beyond it
    drop the oldest half of the retained samples — the stats stay exact
    over everything ever appended, only the raw window is trimmed.

    The series is **append-only**: every mutator that introduces new
    samples (:meth:`extend`, ``+=``) routes through :meth:`append` so the
    running stats and the retention cap always see them, and mutators
    that would rewrite or splice samples in place (``insert``, item or
    slice assignment) are rejected — they would desynchronise
    :attr:`stats` from the sample window.  Deletion (the cap trim) is
    allowed because stats intentionally cover everything ever appended,
    not just the retained window.
    """

    def __new__(cls, cap: Optional[int] = None, iterable: Iterable[float] = ()):
        return super().__new__(cls, "d")

    def __init__(self, cap: Optional[int] = None, iterable: Iterable[float] = ()) -> None:
        if cap is not None and cap < 2:
            raise ValueError(f"cap must be >= 2, got {cap}")
        self.cap = cap
        self.stats = RunningStats()
        for value in iterable:
            self.append(value)

    def append(self, value: float) -> None:
        array.append(self, value)
        stats = self.stats
        stats.count += 1
        stats.total += value
        if stats.minimum is None or value < stats.minimum:
            stats.minimum = value
        if stats.maximum is None or value > stats.maximum:
            stats.maximum = value
        if self.cap is not None and len(self) > self.cap:
            del self[: len(self) // 2]

    def extend(self, iterable: Iterable[float]) -> None:
        for value in iterable:
            self.append(value)

    def __iadd__(self, iterable: Iterable[float]) -> "BoundedSeries":
        self.extend(iterable)
        return self

    def insert(self, index, value) -> None:
        raise TypeError(
            "BoundedSeries is append-only: insert() would bypass the "
            "running stats and the retention cap"
        )

    def __setitem__(self, index, value) -> None:
        raise TypeError(
            "BoundedSeries is append-only: item/slice assignment would "
            "bypass the running stats and the retention cap"
        )
