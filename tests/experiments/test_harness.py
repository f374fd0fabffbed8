"""Experiment harness: band checks, reports, collection plumbing."""

import pytest

from repro.experiments.harness import (
    MODULE_NAMES,
    BandCheck,
    ExperimentReport,
    build_testbed,
    collect_module_latencies,
    warmed_testbed,
)
from repro.paka.deploy import IsolationMode


class TestBandCheck:
    def test_in_band(self):
        check = BandCheck("x", measured=1.3, low=1.1, high=1.6, paper_value=1.2)
        assert check.ok
        assert "OK" in check.format() and "paper: 1.2" in check.format()

    def test_out_of_band(self):
        check = BandCheck("x", measured=2.0, low=1.1, high=1.6)
        assert not check.ok
        assert "OUT" in check.format()

    def test_boundaries_inclusive(self):
        assert BandCheck("x", 1.1, 1.1, 1.6).ok
        assert BandCheck("x", 1.6, 1.1, 1.6).ok


class TestReport:
    def test_all_checks_ok(self):
        report = ExperimentReport("E0", "test")
        report.checks.append(BandCheck("a", 1.0, 0.5, 1.5))
        assert report.all_checks_ok
        report.checks.append(BandCheck("b", 9.0, 0.5, 1.5))
        assert not report.all_checks_ok
        assert [c.name for c in report.failed_checks()] == ["b"]

    def test_format_includes_everything(self):
        from repro.experiments.stats import summarize

        report = ExperimentReport("E0", "Title")
        report.series["s"] = summarize("series", [1.0, 2.0], "us")
        report.derived["ratio"] = 1.23
        report.rows.append({"module": "eudm", "value": 1})
        report.checks.append(BandCheck("c", 1.0, 0.0, 2.0))
        report.notes = "a note"
        text = report.format()
        for fragment in ("E0", "Title", "series", "ratio", "module=eudm", "a note"):
            assert fragment in text


def test_build_testbed_modes():
    assert build_testbed(None).paka is None
    assert build_testbed(IsolationMode.CONTAINER).paka is not None
    assert not build_testbed(IsolationMode.CONTAINER).paka.shielded


def test_warmed_testbed_consumed_first_requests():
    testbed = warmed_testbed(IsolationMode.SGX, seed=5, warmup_registrations=1)
    for module in testbed.paka.modules.values():
        assert module.runtime._warmed_up


def test_collect_module_latencies_counts(container_testbed):
    data = collect_module_latencies(container_testbed, registrations=4, skip=1)
    assert set(data) == set(MODULE_NAMES)
    for series in data.values():
        assert len(series["lf_us"]) == 3  # 4 regs - 1 skipped
        assert len(series["lt_us"]) == 3
        assert len(series["r_us"]) == 3


def test_collect_requires_modules(monolithic_testbed):
    with pytest.raises(ValueError, match="requires deployed modules"):
        collect_module_latencies(monolithic_testbed, registrations=1)
