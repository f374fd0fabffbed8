"""Exact distribution summaries in pure Python.

The numeric kernel behind every percentile, mean and standard deviation
the reproduction reports — experiment tables, metric histograms and Tsdb
recording rules alike.  It lives under ``sim`` so that ``obs`` and
``experiments`` both sit above it and neither imports the other.

The committed ``benchmarks/results/*`` carry these numbers at full
float64 precision, so the arithmetic is spelled the way NumPy spells it
and agrees with it bit for bit (``tests/experiments/test_stats.py`` keeps
NumPy as the oracle): quantiles interpolate linearly between the two
neighbouring order statistics, and sums run in NumPy's pairwise
reduction order rather than left to right.
"""

from __future__ import annotations

from functools import reduce
from math import sqrt
from operator import add
from typing import Dict, List, Optional, Sequence


def _pairwise_sum(data: List[float], lo: int, hi: int) -> float:
    """``data[lo:hi]`` summed in the order of NumPy's float64 ``add.reduce``.

    ``reduce(add, …)`` rather than ``sum``: from Python 3.12 on the
    built-in compensates float sums, which is more accurate and therefore
    not the same number.
    """
    n = hi - lo
    if n < 8:
        return reduce(add, data[lo:hi], -0.0)
    if n <= 128:
        # Eight interleaved accumulators over the multiple-of-8 prefix,
        # folded as a balanced tree, then the tail one by one.
        tail = hi - n % 8
        r = [reduce(add, data[lo + lane:tail:8]) for lane in range(8)]
        head = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, data[tail:hi], head)
    half = n // 2 // 8 * 8  # halves, the first a whole number of 8-lane rows
    return _pairwise_sum(data, lo, lo + half) + _pairwise_sum(data, lo + half, hi)


def _quantile(ordered: List[float], q: float) -> float:
    """The ``q``-th percentile of an ascending list, linear interpolation."""
    if not 0 <= q <= 100:
        raise ValueError("Percentiles must be in the range [0, 100]")
    last = len(ordered) - 1
    virtual = last * (q / 100)
    if virtual >= last:
        return ordered[-1]
    below = int(virtual)
    gamma = virtual - below
    a, b = ordered[below], ordered[below + 1]
    # Interpolate from whichever neighbour is nearer, so that the result
    # is monotone in ``gamma`` and exact at both ends.
    return a + (b - a) * gamma if gamma < 0.5 else b - (b - a) * (1 - gamma)


def percentiles(values: Sequence[float], qs: Sequence[float]) -> List[Optional[float]]:
    """Percentiles ``qs`` (0…100) of ``values``, one sort shared by all.

    An empty series is a legitimate degenerate measurement (e.g. an
    all-failures fault arm with no latency samples), not a crash: it
    yields ``None`` per requested quantile — ``None`` survives JSON
    export, unlike NaN.
    """
    ordered = sorted(map(float, values))
    if not ordered:
        return [None] * len(qs)
    return [_quantile(ordered, q) for q in qs]


def describe(values: Sequence[float]) -> Dict[str, float]:
    """The fields of a :class:`~repro.experiments.stats.SeriesSummary`
    for a non-empty series: mean and sample standard deviation
    (``ddof=1``; 0.0 for one sample) over the series as given, order
    statistics over one sorted copy."""
    data = list(map(float, values))
    n = len(data)
    mean = _pairwise_sum(data, 0, n) / n
    squares = [(value - mean) * (value - mean) for value in data]
    data.sort()
    mid = n // 2
    return {
        "n": n,
        "mean": mean,
        "median": data[mid] if n % 2 else (data[mid - 1] + data[mid]) / 2,
        "p25": _quantile(data, 25),
        "p75": _quantile(data, 75),
        "stdev": sqrt(_pairwise_sum(squares, 0, n) / (n - 1)) if n > 1 else 0.0,
        "minimum": data[0],
        "maximum": data[-1],
    }


def outlier_fraction(values: Sequence[float], k: float = 1.5) -> float:
    """Fraction of points outside the Tukey fences (paper: <5 % outliers)."""
    if len(values) < 4:
        return 0.0
    ordered = sorted(map(float, values))
    q1, q3 = _quantile(ordered, 25), _quantile(ordered, 75)
    iqr = q3 - q1
    low, high = q1 - k * iqr, q3 + k * iqr
    return sum(1 for value in ordered if value < low or value > high) / len(ordered)
