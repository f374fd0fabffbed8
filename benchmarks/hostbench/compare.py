"""``compare A.json B.json``: did B move anything relative to A?

A and B are result files written by ``run.py --repeat K`` (A = parent,
B = change), same seed and ``--seconds``.  Per workload and end-to-end
metric it prints both medians and quartiles and one verdict:

* ``improved``   — at least ten run pairs, B wins at least 9/10 of them
  (ties count for neither side) *and* the medians differ by more than A's
  own interquartile range; with fewer pairs the same evidence only earns
  ``unresolved``;
* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — neither, but a side's run-to-run spread exceeds the
  bound, so "no regression" cannot be asserted (unless every B run beats
  every A run);
* ``unchanged``  — otherwise.

``sim_ms_per_op`` and every per-op counter (``*_per_op``,
``*.calls_per_op``, ``paka.*_lt_us``) must be exactly equal; any
difference on them is reported as ``improved``/``regressed`` by sign.
``sim_digest`` has no sign: any difference is ``regressed``, because a
host-only change must leave every simulated statistic identical.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Optional, Tuple

import metrics

GAIN_WIN_SHARE = 0.9
MIN_GAIN_PAIRS = 10


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: List[float], b: List[float], bound: float) -> str:
    """Lower-is-better verdict for runs ``a`` (parent) vs ``b`` (change)."""
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if y < x)
    if wins >= GAIN_WIN_SHARE * len(pairs) and a_med - b_med > a_q3 - a_q1:
        return "improved" if len(pairs) >= MIN_GAIN_PAIRS else "unresolved"
    if b_med - a_med > bound * a_med:
        return "regressed"
    widest = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    if widest > bound and not max(b) < min(a):
        return "unresolved"
    return "unchanged"


def exact_verdict(a: List[float], b: List[float], better: str = "lower") -> str:
    if set(a) == set(b) and len(set(a)) == 1:
        return "unchanged"
    gain = statistics.median(a) - statistics.median(b)
    if better == "higher":
        gain = -gain
    return "improved" if gain > 0 else "regressed"


def compare(parent: Dict, change: Dict) -> List[Tuple[str, str, str, str]]:
    """Rows of ``(workload, metric, verdict, detail)``."""
    if (parent["seed"], parent["seconds"]) != (change["seed"], change["seconds"]):
        raise SystemExit("compare: the two files differ in seed or seconds")
    rows = []
    better = {name: direction for name, _, direction in metrics.per_layer()}
    for workload in metrics.WORKLOADS:
        a_runs = [run[workload] for run in parent["runs"] if workload in run]
        b_runs = [run[workload] for run in change["runs"] if workload in run]
        if not a_runs or not b_runs:
            continue
        for name, unit, bound in metrics.END_TO_END:
            a = [run["end_to_end"][name] for run in a_runs]
            b = [run["end_to_end"][name] for run in b_runs]
            outcome = exact_verdict(a, b) if metrics.is_exact(name) else verdict(a, b, bound)
            (a_q1, a_med, a_q3), (b_q1, b_med, b_q3) = quartiles(a), quartiles(b)
            detail = (
                f"A {a_med:.4f} [{a_q1:.4f}, {a_q3:.4f}] n={len(a)}  "
                f"B {b_med:.4f} [{b_q1:.4f}, {b_q3:.4f}] n={len(b)} {unit}"
            )
            rows.append((workload, name, outcome, detail))
        a_digests = sorted({run["sim_digest"] for run in a_runs})
        b_digests = sorted({run["sim_digest"] for run in b_runs})
        rows.append((
            workload, "sim_digest",
            "unchanged" if a_digests == b_digests and len(a_digests) == 1 else "regressed",
            f"A {[d[:12] for d in a_digests]}  B {[d[:12] for d in b_digests]}",
        ))
        a_fail = sum(run["failed"] for run in a_runs)
        b_fail = sum(run["failed"] for run in b_runs)
        rows.append((
            workload, "fail_ratio",
            "regressed" if b_fail > a_fail else "improved" if b_fail < a_fail else "unchanged",
            f"A {a_fail} failed  B {b_fail} failed",
        ))
        for name in metrics.PER_LAYER_UNITS:
            if not metrics.is_exact(name):
                continue
            a = [run["per_layer"][name] for run in a_runs if "per_layer" in run]
            b = [run["per_layer"][name] for run in b_runs if "per_layer" in run]
            if not a or not b:
                continue
            outcome = exact_verdict(a, b, better[name])
            if outcome != "unchanged":
                rows.append((workload, name, outcome, f"A {sorted(set(a))}  B {sorted(set(b))}"))
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        parent = json.load(handle)
    with open(argv[1]) as handle:
        change = json.load(handle)
    rows = compare(parent, change)
    for workload, name, outcome, detail in rows:
        print(f"{workload:18s} {name:28s} {outcome:10s} {detail}")
    tally = {o: sum(1 for row in rows if row[2] == o)
             for o in ("improved", "unchanged", "unresolved", "regressed")}
    print("  ".join(f"{count} {outcome}" for outcome, count in tally.items()))
    return 1 if tally["regressed"] else 0
