"""Experiment statistics helpers.

The summaries are pure Python (:mod:`repro.sim.summary`); NumPy, which
they replaced and whose float64 results the committed
``benchmarks/results/*`` carry at full precision, is the oracle here: the
second half of this file demands ``==``, not ``approx``, and skips where
NumPy is not installed (a bare ``pip install -e .``).
"""

import random
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.stats import outlier_fraction, percentiles, summarize


def test_summarize_basic():
    summary = summarize("s", [1.0, 2.0, 3.0, 4.0, 5.0], "us")
    assert summary.n == 5
    assert summary.mean == 3.0
    assert summary.median == 3.0
    assert summary.minimum == 1.0 and summary.maximum == 5.0
    assert summary.p25 == 2.0 and summary.p75 == 4.0
    assert summary.iqr == 2.0


def test_summarize_single_value_has_zero_stdev():
    summary = summarize("s", [7.0], "ms")
    assert summary.stdev == 0.0


def test_summarize_empty_raises():
    with pytest.raises(ValueError):
        summarize("s", [], "us")


def test_format_contains_key_fields():
    text = summarize("latency", [1.0, 2.0], "us").format()
    assert "latency" in text and "mean=" in text and "us" in text


def test_outlier_fraction_clean_data():
    assert outlier_fraction([10.0] * 50 + [10.5] * 50) == 0.0


def test_outlier_fraction_detects_spikes():
    data = [10.0] * 95 + [100.0] * 5
    assert 0.0 < outlier_fraction(data) <= 0.06


def test_outlier_fraction_small_samples():
    assert outlier_fraction([1.0, 2.0]) == 0.0
    assert outlier_fraction([]) == 0.0


def test_percentiles_basic():
    assert percentiles([1.0, 2.0, 3.0, 4.0, 5.0], (50,)) == [3.0]
    p25, p75 = percentiles([1.0, 2.0, 3.0, 4.0, 5.0], (25, 75))
    assert (p25, p75) == (2.0, 4.0)


def test_percentiles_empty_returns_none_per_quantile():
    # An all-failures fault arm has no latency samples; the helper must
    # not crash np.percentile, and None (unlike NaN) survives JSON.
    assert percentiles([], (50, 95, 99)) == [None, None, None]


def test_availability_percentiles_guard_empty():
    from repro.experiments.availability import _percentiles_ms

    row = _percentiles_ms([])
    assert row == {"p50_ms": None, "p95_ms": None, "p99_ms": None}
    filled = _percentiles_ms([1.0, 2.0, 3.0])
    assert filled["p50_ms"] == 2.0
    assert filled["p99_ms"] is not None


def test_percentiles_reject_out_of_range_quantiles():
    with pytest.raises(ValueError):
        percentiles([1.0, 2.0], (101,))
    with pytest.raises(ValueError):
        percentiles([1.0, 2.0], (-1,))


# ------------------------------------------------------- NumPy as oracle

QS = (0, 25, 33.3, 50, 75, 95, 99, 99.9, 100)
# Either side of every branch of the pairwise reduction (running sum below
# 8, one 8-lane block up to 128, recursive halves above) and of its tails.
SIZES = (*range(1, 10), *range(127, 131), *range(255, 258), 1500)


@st.composite
def series(draw):
    """A measured series: seeded bulk for the large sizes, floats chosen by
    hypothesis (negatives, zeros, ties) for the small ones."""
    n = draw(st.sampled_from(SIZES))
    if n < 10 and draw(st.booleans()):
        value = st.floats(-1e6, 1e6, allow_nan=False) | st.integers(-50, 50) | st.booleans()
        return draw(st.lists(value, min_size=n, max_size=n))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from((1e-3, 1.0, 1e3, 1e6)))
    if draw(st.booleans()):  # heavy duplication, as latency plateaus have
        pool = [rnd.random() * scale for _ in range(3)]
        return [rnd.choice(pool) for _ in range(n)]
    return [rnd.random() * scale for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(series())
def test_percentiles_equal_numpy(values):
    np = pytest.importorskip("numpy")
    want = [float(q) for q in np.percentile(np.asarray(values, dtype=float), QS)]
    assert percentiles(values, QS) == want


@settings(max_examples=300, deadline=None)
@given(series())
def test_summarize_equals_numpy_field_by_field(values):
    np = pytest.importorskip("numpy")
    array = np.asarray(values, dtype=float)
    assert asdict(summarize("s", values, "us")) == {
        "name": "s",
        "unit": "us",
        "n": array.size,
        "mean": float(array.mean()),
        "median": float(np.median(array)),
        "p25": float(np.percentile(array, 25)),
        "p75": float(np.percentile(array, 75)),
        "stdev": float(array.std(ddof=1)) if array.size > 1 else 0.0,
        "minimum": float(array.min()),
        "maximum": float(array.max()),
    }


@settings(max_examples=200, deadline=None)
@given(series(), st.sampled_from((0.5, 1.5, 3.0)))
def test_outlier_fraction_equals_numpy(values, k):
    np = pytest.importorskip("numpy")
    array = np.asarray(values, dtype=float)
    want = 0.0
    if array.size >= 4:
        q1, q3 = np.percentile(array, [25, 75])
        low, high = q1 - k * (q3 - q1), q3 + k * (q3 - q1)
        want = float(np.mean((array < low) | (array > high)))
    assert outlier_fraction(values, k) == want
