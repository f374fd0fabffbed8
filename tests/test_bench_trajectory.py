"""``BENCH_hostbench.json`` is a trajectory: every row complete, and every
PR measured on both sides (its parent beside its change, same session)."""

import importlib.util
import json
import math
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("trajectory", ROOT / "benchmarks" / "trajectory.py")
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)


#: The first PR whose CHANGES.md entry must have its hostbench run in the
#: file.  PR 40's entry reports one, but gives no numbers to back-fill: the
#: one gap since the file began at PR 33.
FIRST_RECORDED_PR = 41


def rows():
    return json.loads(trajectory.TRAJECTORY.read_text())["rows"]


def prs_reporting_hostbench():
    """The PRs whose CHANGES.md entry reports a hostbench run."""
    entries = (ROOT / "CHANGES.md").read_text().splitlines()
    return {
        int(match.group(1))
        for match in (re.match(r"PR (\d+) \(", line) for line in entries)
        if match and "hostbench" in match.string.lower()
    }


def test_every_row_is_complete_and_every_pr_has_both_sides():
    assert rows()
    assert trajectory.problems(rows()) == []


def test_every_number_is_a_number():
    for row in rows():
        for name in trajectory.END_TO_END:
            spread = row[name]
            assert spread["q1"] <= spread["median"] <= spread["q3"], (row["pr"], name)
            assert all(math.isfinite(value) for value in spread.values())
        assert row["runs"] >= 1 and row["cal_unit_ns"] > 0
        assert 0 <= row["fail_ratio"] <= 1
        assert len(row["sim_digest"]) == 64


def test_a_missing_side_or_field_is_named():
    row = rows()[0]
    assert trajectory.problems([row]) == [
        f"PR {row['pr']} {row['workload']} seed {row['seed']} has only {[row['side']]}"
    ]
    partial = {key: value for key, value in row.items() if key != "sim_digest"}
    assert "lacks ['sim_digest']" in trajectory.problems([partial])[0]


def test_every_reported_hostbench_run_has_rows():
    reported = {pr for pr in prs_reporting_hostbench() if pr >= FIRST_RECORDED_PR}
    assert FIRST_RECORDED_PR in reported
    assert sorted(reported - {row["pr"] for row in rows()}) == []
