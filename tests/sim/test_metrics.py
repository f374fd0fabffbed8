"""Bounded metric series: exact running stats over a trimmed raw window."""

import pickle
from array import array

import pytest

from repro.sim.metrics import BoundedSeries, RunningStats


class TestRunningStats:
    def test_empty(self):
        stats = RunningStats()
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.minimum is None and stats.maximum is None


class TestBoundedSeries:
    def test_stats_accumulate_exactly(self):
        series = BoundedSeries()
        for value in (3.0, 1.0, 2.0):
            series.append(value)
        stats = series.stats
        assert stats.count == 3
        assert stats.total == 6.0
        assert stats.mean == 2.0
        assert (stats.minimum, stats.maximum) == (1.0, 3.0)

    def test_uncapped_behaves_like_a_list(self):
        series = BoundedSeries()
        for i in range(100):
            series.append(float(i))
        assert list(series) == [float(i) for i in range(100)]
        assert list(series[10:12]) == [10.0, 11.0]
        assert len(series) == series.stats.count == 100

    def test_cap_trims_oldest_half(self):
        series = BoundedSeries(cap=10)
        for i in range(25):
            series.append(float(i))
        assert len(series) <= 10
        # The newest sample always survives.
        assert series[-1] == 24.0
        # The retained window is a contiguous suffix of the appends.
        assert list(series) == [float(i) for i in range(25 - len(series), 25)]

    def test_stats_are_exact_despite_trimming(self):
        series = BoundedSeries(cap=8)
        values = [float(i * 7 % 13) for i in range(200)]
        for value in values:
            series.append(value)
        assert series.stats.count == 200
        assert series.stats.total == pytest.approx(sum(values))
        assert series.stats.minimum == min(values)
        assert series.stats.maximum == max(values)

    def test_tiny_cap_rejected(self):
        with pytest.raises(ValueError):
            BoundedSeries(cap=1)

    def test_init_iterable_counts_in_stats(self):
        series = BoundedSeries(cap=None, iterable=[1.0, 2.0])
        assert list(series) == [1.0, 2.0]
        assert series.stats.count == 2

    def test_extend_routes_through_append(self):
        series = BoundedSeries(cap=4)
        series.extend([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert series.stats.count == 6
        assert series.stats.total == 21.0
        assert series.stats.maximum == 6.0
        assert len(series) <= 4  # the cap applies to extended samples too
        assert series[-1] == 6.0

    def test_iadd_routes_through_append(self):
        series = BoundedSeries()
        series += [3.0, 4.0]
        series += (5.0,)
        assert isinstance(series, BoundedSeries)
        assert list(series) == [3.0, 4.0, 5.0]
        assert series.stats.count == 3
        assert series.stats.total == 12.0

    def test_insert_is_forbidden(self):
        series = BoundedSeries(iterable=[1.0])
        with pytest.raises(TypeError, match="append-only"):
            series.insert(0, 99.0)
        assert series.stats.count == 1
        assert list(series) == [1.0]

    def test_item_assignment_is_forbidden(self):
        series = BoundedSeries(iterable=[1.0, 2.0])
        with pytest.raises(TypeError, match="append-only"):
            series[0] = 99.0
        with pytest.raises(TypeError, match="append-only"):
            series[0:1] = [99.0, 98.0]
        assert list(series) == [1.0, 2.0]
        assert series.stats.count == 2

    def test_window_deletion_keeps_stats_exact(self):
        # Deletion only trims the retained window (like the cap trim);
        # stats cover everything ever appended by design.
        series = BoundedSeries(iterable=[1.0, 2.0, 3.0])
        del series[:2]
        assert list(series) == [3.0]
        assert series.stats.count == 3
        assert series.stats.total == 6.0

    def test_samples_are_packed_doubles(self):
        series = BoundedSeries(iterable=[1.5, 2])
        assert series.typecode == "d" and series.itemsize == 8
        # A real number is stored as a double and reads back as a float.
        assert series[1] == 2.0 and type(series[1]) is float
        assert series.stats.total == 3.5

    def test_non_numeric_sample_is_rejected_and_not_counted(self):
        series = BoundedSeries(iterable=[1.0])
        for bad in ("2.0", None, [3.0]):
            with pytest.raises(TypeError):
                series.append(bad)
        with pytest.raises(TypeError):
            series.extend([2.0, "x"])
        # The sample before the bad one was a good one.
        assert list(series) == [1.0, 2.0]
        assert series.stats.count == 2 and series.stats.total == 3.0

    def test_a_slice_is_a_plain_array_and_leaves_the_series_alone(self):
        series = BoundedSeries(cap=8, iterable=[float(i) for i in range(6)])
        window = series[2:]
        assert type(window) is array and window == array("d", [2.0, 3.0, 4.0, 5.0])
        assert window != [2.0, 3.0, 4.0, 5.0]  # never equal to a list
        assert len(series) == 6 and series.stats.count == 6

    def test_del_trims_by_index_slice_and_stride(self):
        series = BoundedSeries(iterable=[float(i) for i in range(10)])
        del series[0]
        del series[-2:]
        del series[::3]
        assert list(series) == [2.0, 3.0, 5.0, 6.0]
        assert series.stats.count == 10 and series.stats.minimum == 0.0

    def test_pickle_round_trip_keeps_cap_stats_and_window(self):
        series = BoundedSeries(cap=10)
        for i in range(25):
            series.append(i / 4)
        # Protocol 3 on (the default is 4+): an array travels as its raw
        # bytes plus the instance dict, never through ``__init__``.
        for protocol in range(3, pickle.HIGHEST_PROTOCOL + 1):
            twin = pickle.loads(pickle.dumps(series, protocol))
            assert type(twin) is BoundedSeries
            assert twin == series and list(twin) == list(series)
            assert twin.cap == 10
            stats = twin.stats
            assert (stats.count, stats.total, stats.minimum, stats.maximum) == (
                25, series.stats.total, 0.0, 6.0
            )
            # The twin is live: the cap and the stats keep working.
            for i in range(25, 40):
                twin.append(i / 4)
            assert len(twin) <= 10 and twin[-1] == 9.75
            assert twin.stats.count == 40
        # A shipped slice (what an arm returns to its parent) is 8 B/sample.
        assert len(pickle.dumps(series[:])) < 8 * len(series) + 80
