"""Smoke test of the host-time benchmark.

Not part of tier-1 (``testpaths = ["tests"]``); run it explicitly::

    python -m pytest benchmarks/hostbench/test_hostbench.py -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import metrics  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_manifest_is_the_committed_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        assert json.load(handle) == metrics.manifest()


def test_smoke_run_emits_exactly_the_declared_metrics(tmp_path):
    output = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--output", str(output)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    document = json.loads(output.read_text())
    (run,) = document["runs"]
    # a result set compared with itself moves nothing
    assert {row[2] for row in compare.compare(document, document)} == {"unchanged"}

    assert list(run) == [w["name"] for w in declared["workloads"]]
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    for name, unit in {**end_to_end, **per_layer}.items():
        assert NAME.fullmatch(name), name
        assert unit, name
    for workload, result in run.items():
        assert NAME.fullmatch(workload)
        assert result["failed"] == 0, result["problems"]
        assert set(result["end_to_end"]) == set(end_to_end), workload
        assert set(result["per_layer"]) == set(per_layer), workload
        assert all(value > 0 for value in result["end_to_end"].values()), workload
        # every declared name is printed with its unit
        for name, unit in {**end_to_end, **per_layer}.items():
            assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$",
                             proc.stdout, re.M), name


def test_verdict_rules():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    assert compare.verdict(parent, [v * 0.9 for v in parent], 0.10) == "improved"
    assert compare.verdict(parent[:3], [v * 0.9 for v in parent[:3]], 0.10) == "unresolved"
    assert compare.verdict(parent, [v * 1.2 for v in parent], 0.10) == "regressed"
    assert compare.verdict(parent, [v * 1.01 for v in parent], 0.10) == "unchanged"
    noisy = [80.0, 125.0, 90.0, 118.0, 100.0, 84.0, 121.0, 95.0, 110.0, 101.0]
    assert compare.verdict(noisy, noisy[::-1], 0.10) == "unresolved"
    assert compare.exact_verdict([52.8] * 3, [52.8] * 3) == "unchanged"
    assert compare.exact_verdict([52.8] * 3, [52.7] * 3) == "improved"
    assert compare.exact_verdict([52.8] * 3, [52.9] * 3) == "regressed"
