"""Fold hostbench result files into rows of ``BENCH_hostbench.json``.

A performance PR measures its parent and its change in the same session
(the calibrated unit drifts between sessions, so only a parent measured
beside the change is a baseline) with ``benchmarks/hostbench/run.py
--repeat K --output`` or ``--append``, and records both files here:

    python benchmarks/trajectory.py --pr 33 PARENT.json CHANGE.json

Each file holds the runs of one seed.  Each workload of each file becomes
one row: PR × workload × seed × side, with the median and quartiles of
the four end-to-end metrics over its runs, the ``sim_digest``, the median
``host.cal_unit_ns`` and the fail ratio.  Recording a (PR, seed) again
replaces its rows.  ``tests/test_bench_trajectory.py`` checks that every
row is complete and that every PR has both sides.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "hostbench"))

import compare  # noqa: E402
import metrics  # noqa: E402

TRAJECTORY = HERE.parent / "BENCH_hostbench.json"
END_TO_END = tuple(name for name, _, _ in metrics.END_TO_END)
SIDES = ("parent", "change")
ROW_KEYS = (
    "pr", "workload", "seed", "side", "runs", *END_TO_END,
    "sim_digest", "cal_unit_ns", "fail_ratio",
)


def quartiles(values: List[float]) -> Dict[str, float]:
    """``compare``'s quartiles, to the 4 decimals it prints them with."""
    return {
        key: round(value, 4)
        for key, value in zip(("q1", "median", "q3"), compare.quartiles(values))
    }


def rows_of(result: Dict, pr: int, side: str) -> List[Dict]:
    """One row per workload of one ``run.py --output`` file."""
    rows = []
    workloads = dict.fromkeys(name for run in result["runs"] for name in run)
    for workload in workloads:
        runs = [run[workload] for run in result["runs"] if workload in run]
        digests = {run["sim_digest"] for run in runs}
        if len(digests) != 1:
            raise SystemExit(f"{workload}: runs disagree on sim_digest: {sorted(digests)}")
        row = {"pr": pr, "workload": workload, "seed": result["seed"], "side": side,
               "runs": len(runs)}
        for name in END_TO_END:
            row[name] = quartiles([run["end_to_end"][name] for run in runs])
        row["sim_digest"] = digests.pop()
        row["cal_unit_ns"] = round(statistics.median(
            run["per_layer"]["host.cal_unit_ns"] for run in runs
        ), 4)
        row["fail_ratio"] = (
            sum(run["failed"] for run in runs) / sum(run["attempted"] for run in runs)
        )
        rows.append(row)
    return rows


def problems(rows: List[Dict]) -> List[str]:
    """Why ``rows`` are not a trajectory: incomplete rows, or a (PR,
    workload, seed) without both sides."""
    found = [
        f"row {index} lacks {sorted(set(ROW_KEYS) - set(row))}"
        for index, row in enumerate(rows)
        if set(row) != set(ROW_KEYS)
    ]
    sides: Dict[tuple, set] = {}
    for row in rows:
        sides.setdefault((row["pr"], row["workload"], row["seed"]), set()).add(row["side"])
    found += [
        f"PR {pr} {workload} seed {seed} has only {sorted(have)}"
        for (pr, workload, seed), have in sides.items()
        if have != set(SIDES)
    ]
    return found


def record(pr: int, parent: Dict, change: Dict, path: Path = TRAJECTORY) -> List[Dict]:
    if parent["seed"] != change["seed"]:
        raise SystemExit("parent and change were measured at different seeds")
    rows = json.loads(path.read_text())["rows"] if path.exists() else []
    rows = [row for row in rows if (row["pr"], row["seed"]) != (pr, parent["seed"])]
    rows += rows_of(parent, pr, "parent") + rows_of(change, pr, "change")
    rows.sort(key=lambda row: (row["pr"], row["seed"], row["workload"],
                               SIDES.index(row["side"])))
    found = problems(rows)
    if found:
        raise SystemExit("\n".join(found))
    path.write_text(json.dumps({"rows": rows}, indent=1) + "\n")
    return rows


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("parent", type=Path, help="run.py --output file of the parent")
    parser.add_argument("change", type=Path, help="run.py --output file of the change")
    args = parser.parse_args(argv)
    rows = record(
        args.pr, json.loads(args.parent.read_text()), json.loads(args.change.read_text())
    )
    print(f"{TRAJECTORY.name}: {len(rows)} rows")


if __name__ == "__main__":
    main()
