"""Host-time benchmark: calibrated cost per registration, six workloads.

    python3 benchmarks/hostbench/run.py                      # all six, both metric sets
    python3 benchmarks/hostbench/run.py --smoke              # same, seconds-scale
    python3 benchmarks/hostbench/run.py --repeat 10 --output A.json
    python3 benchmarks/hostbench/run.py compare A.json B.json
    python3 benchmarks/hostbench/run.py --workload attach-sgx --seed 3 --seconds 10 --trace 0

The last form is the driver contract: one workload, and the last stdout
line is ``{"correct", "attempted", "failed", "metrics"}`` with the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  Every workload runs in its own ``worker.py`` process.
See README.md in this directory for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import metrics  # noqa: E402
from calibrate import at_reference_speed  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
GOLDENS = os.path.join(HERE, "goldens.json")
OUT_DIR = os.path.join(HERE, "out")

SETUP_LAUNCHES = 5
SMOKE_SECONDS = 0.3
#: A worker that has not finished by then is killed and the run fails.
WORKER_TIMEOUT_S = 170


def launch(workload: str, seed: int, seconds: float, trace: int, phase: str):
    """Run one worker phase to completion; returns ``(result, setup_wall_s,
    setup_s)``.

    Set-up spans interpreter launch to the driver being ready for its
    first timed op (import + testbed build + warm-up + population):
    ``setup_wall_s`` as the wall clock read it, ``setup_s`` at reference
    host speed, by the calibration passes the worker runs once ready.
    """
    command = [
        sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--phase", phase,
    ]
    # A fixed hash seed removes one source of process-to-process variation
    # (dict/set layout); it does not touch simulated results.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    spawned_at = time.time()
    proc = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise SystemExit(proc.returncode)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    wall_s = result.pop("ready_at") - spawned_at
    return result, wall_s, at_reference_speed(wall_s, result.pop("ready_cal_passes"))


def golden_status(result: Dict[str, Any]) -> str:
    """``match`` / ``mismatch`` against goldens.json, or ``none`` if this
    (workload, seed, seconds) is not pinned."""
    with open(GOLDENS) as handle:
        goldens = json.load(handle)
    key = f"{result['workload']}/seed{result['seed']}/seconds{result['seconds']:g}"
    if key not in goldens:
        return "none"
    return "match" if goldens[key] == result["sim_digest"] else "mismatch"


def run_workload(
    workload: str, seed: int, seconds: float, trace: int, setup_launches: int
) -> Dict[str, Any]:
    """One workload: set-up probes, the measuring worker and, with
    ``trace``, the traced worker whose metrics are merged in."""
    setups = [
        launch(workload, seed, seconds, 0, "setup")[1:] for _ in range(setup_launches - 1)
    ]
    result, *setup = launch(workload, seed, seconds, trace, "measure")
    setups.append(setup)
    wall_s, at_reference_s = zip(*setups)
    result["end_to_end"]["setup_s"] = statistics.median(at_reference_s)
    result["samples"]["setup_launches"] = len(setups)
    problems = result["problems"]
    if trace:
        traced, *_ = launch(workload, seed, seconds, trace, "layers")
        if traced["traced_digest"] != result["traced_digest"]:
            problems.append("simulated statistics differ between traced and untraced passes")
        result["per_layer"] = {
            **dict.fromkeys(metrics.PER_LAYER_UNITS, 0.0),
            **result["per_layer"],
            **traced["per_layer"],
            "host.trace_overhead_ratio":
                traced["traced_cost_cal"] / result["end_to_end"]["op_cost_cal"],
            "host.setup_wall_s": statistics.median(wall_s),
        }
        result["trace_file"] = traced["trace_file"]
    # Reported, not failed: a change that is meant to alter simulated
    # behaviour re-pins goldens.json; `compare` flags any digest difference.
    result["golden"] = golden_status(result)
    # Failed ops and broken checks are counted alike: either makes the run incorrect.
    result["failed"] = result.pop("failed_ops") + len(problems)
    result["fail_ratio"] = result["failed"] / result["attempted"]
    return result


def print_result(result: Dict[str, Any]) -> None:
    samples = result["samples"]
    print(
        f"== {result['workload']}  seed={result['seed']} seconds={result['seconds']:g} "
        f"backend={result['crypto_backend']} golden={result['golden']}"
    )
    print(
        f"   samples: {samples['batches']} batches, {samples['cal_passes']} calibration "
        f"passes, {samples['setup_launches']} set-up launches, "
        f"{samples['register_latencies']} register latencies; "
        f"checkpoint at {result['checkpoint_ops']} ops"
    )
    print(
        f"   attempted={result['attempted']} failed={result['failed']} "
        f"fail_ratio={result['fail_ratio']:.6f} sim_digest={result['sim_digest'][:16]}…"
    )
    for name, value in result["end_to_end"].items():
        print(f"   {name:34s} {value:14.4f} {metrics.END_TO_END_UNITS[name]}")
    for name, value in result.get("per_layer", {}).items():
        print(f"   {name:34s} {value:14.4f} {metrics.PER_LAYER_UNITS[name]}")
    for problem in result["problems"]:
        print(f"   CHECK FAILED: {problem}")


def contract_line(result: Dict[str, Any], trace: int) -> str:
    units = metrics.PER_LAYER_UNITS if trace else metrics.END_TO_END_UNITS
    values = result["per_layer"] if trace else result["end_to_end"]
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    })


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    if argv[:1] == ["manifest"]:
        print(json.dumps(metrics.manifest(), indent=2))
        return 0

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7,
                        help="drives testbed seed, population and storm (default 7; "
                        "11 is held out for later claims)")
    parser.add_argument("--seconds", type=float, default=float(metrics.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: which metric set the last line carries")
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-scale run of everything (<15 s), one set-up launch")
    parser.add_argument("--repeat", type=int, default=1, metavar="K",
                        help="K result sets in one file, for `compare`")
    parser.add_argument("--output", default=None,
                        help="result file (default: out/result-seed<N>.json here)")
    parser.add_argument("--append", action="store_true",
                        help="extend an existing result file, so parent and change "
                        "can be measured alternately, one set at a time")
    args = parser.parse_args(argv)

    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    setup_launches = 1 if args.smoke else SETUP_LAUNCHES

    if args.workload is not None:
        result = run_workload(
            args.workload, args.seed, seconds, args.trace,
            1 if args.trace else setup_launches,
        )
        print_result(result)
        print(contract_line(result, args.trace))
        return 0 if result["failed"] == 0 else 1

    output = args.output or os.path.join(OUT_DIR, f"result-seed{args.seed}.json")
    runs = []
    if args.append and os.path.exists(output):
        with open(output) as handle:
            previous = json.load(handle)
        if (previous["seed"], previous["seconds"]) != (args.seed, seconds):
            parser.error(f"{output} holds runs of another seed or --seconds")
        runs = previous["runs"]
    failed = 0
    # Measuring runs go one workload at a time; the smoke run only proves
    # that everything executes and reports, so it may share the CPUs.
    with ThreadPoolExecutor(max_workers=2 if args.smoke else 1) as pool:
        for _ in range(args.repeat):
            results = list(pool.map(
                lambda workload: run_workload(workload, args.seed, seconds, 1, setup_launches),
                metrics.WORKLOADS,
            ))
            for result in results:
                print_result(result)
                failed += result["failed"]
            runs.append({result["workload"]: result for result in results})
    os.makedirs(os.path.dirname(os.path.abspath(output)), exist_ok=True)
    with open(output, "w") as handle:
        json.dump({"seed": args.seed, "seconds": seconds, "runs": runs}, handle, indent=1)
    print(f"wrote {output} ({len(runs)} result set(s)); {failed} failed op(s)/check(s)")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
