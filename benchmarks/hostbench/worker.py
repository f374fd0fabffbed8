"""One workload, one phase, one fresh process.

Launched by ``run.py``; prints one JSON object as its last stdout line.

``--phase setup``    pin the crypto backend, import ``repro``, build the
                     driver (testbed + warm-up + population), stop.
``--phase measure``  set-up, then the *timed pass* with the profiler off:
                     batches until ``--seconds`` have passed and the
                     checkpoint (a fixed op count for this ``--seconds``)
                     is behind us; CPU time per batch, calibration passes
                     in every gap; at the checkpoint peak RSS, simulated
                     statistics, hard checks.  Then a same-seed twin
                     replays the first batches in-process and must
                     reproduce the timed pass's digest at that op count.
``--phase layers``   set-up, then the same replay as the very first work
                     of the process — so the call counts do not depend on
                     what a timed pass of host-dependent length left in
                     ``repro``'s caches — with cProfile on once the
                     workload's start-up transient is over; then the
                     layer kernels.  Its digest must equal the measure
                     phase's: tracing changes no simulated statistic.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import resource
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from calibrate import cal_passes, cal_unit_s
from compare import quartiles
from metrics import KERNEL_WORKLOADS, LAYERS, PURE_CRYPTO_WORKLOADS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

EXIT_NO_SOURCE = 2
EXIT_BACKEND = 3

#: Share of the nominal run (``--seconds`` at the sizing rate) after which
#: the checkpoint falls, and share the replay pass repeats.
CHECKPOINT_SHARE = 0.35
REPLAY_SHARE = 0.10
CAL_PASSES_PER_GAP = 3
#: Passes run the moment set-up is done, to quote set-up time at reference speed.
READY_CAL_PASSES = 20


def pin_backend(pure: bool) -> str:
    """Force the workload's crypto backend before ``repro`` is imported and
    prove it took; never fall back silently."""
    for var in ("REPRO_PURE_AES", "REPRO_PURE_X25519"):
        if pure:
            os.environ[var] = "1"
        else:
            os.environ.pop(var, None)
    from repro.crypto import aes, suci

    active = (aes.HAVE_HW_AES, suci.HAVE_HW_X25519)
    if pure and any(active):
        sys.exit("hostbench: pure-Python crypto requested but libcrypto is active")
    if not pure and not all(active):
        print(
            "hostbench: this workload needs the libcrypto backend (python "
            "package 'cryptography'); refusing to fall back to pure Python",
            file=sys.stderr,
        )
        sys.exit(EXIT_BACKEND)
    return "pure-python" if pure else "libcrypto"


def cpu_now() -> float:
    """CPU seconds of this process plus its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_kb() -> int:
    """High-water RSS of this process or its largest reaped child."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median


def midmean(values: List[float]) -> float:
    """Interquartile mean: as robust to outlier batches as a median, but
    averaging the middle half instead of reading one order statistic."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def timed_batches(
    driver: Any, batch_ops: int, after_batch: Callable[[int, int], bool]
) -> Tuple[List[float], List[float], int, int]:
    """Run batches, calibration passes in every gap, until ``after_batch
    (batches done, ops attempted)`` says stop.

    Returns each batch's cost in ``cal`` per op — its CPU seconds per op
    over the mean of the passes right before and right after it — then all
    calibration passes, ops attempted and ops failed.
    """
    costs: List[float] = []
    passes: List[float] = []
    attempted = failed = index = 0
    before = cal_passes(CAL_PASSES_PER_GAP)
    while True:
        start = cpu_now()
        ops, bad = driver.run_batch(index, batch_ops)
        cpu_per_op = (cpu_now() - start) / ops
        after = cal_passes(CAL_PASSES_PER_GAP)
        costs.append(cpu_per_op / cal_unit_s(before + after))
        passes.extend(before)
        before = after
        attempted += ops
        failed += bad
        index += 1
        if after_batch(index, attempted):
            passes.extend(before)
            return costs, passes, attempted, failed


def load_workload(name: str):
    """Pin the backend, import the simulator from this checkout only, and
    return ``(spec, backend)``; exits non-zero when that cannot be done."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"hostbench: no simulator source at {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_SOURCE)
    sys.path.insert(0, SRC)
    if name not in WORKLOADS:
        sys.exit(f"hostbench: unknown workload {name!r}")
    backend = pin_backend(pure=name in PURE_CRYPTO_WORKLOADS)

    import repro
    from workloads import SPECS

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"hostbench: imported repro from {repro.__file__}, not {SRC}")
    return SPECS[name], backend


def run(args: argparse.Namespace) -> Dict[str, Any]:
    spec, backend = load_workload(args.workload)
    batch_ops = spec.batch_ops_for(args.seconds)
    nominal_batches = args.seconds * spec.ops_per_s / batch_ops
    replay = max(1, round(REPLAY_SHARE * nominal_batches))
    # The traced window is as long, but starts once the workload has left
    # its start-up transient.
    traced = range(spec.settle_batches, spec.settle_batches + replay)
    checkpoint = max(2, traced.stop, round(CHECKPOINT_SHARE * nominal_batches))

    driver = spec.build(args.seed, batch_ops)
    out: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "crypto_backend": backend,
        "ready_at": time.time(),
        "ready_cal_passes": cal_passes(READY_CAL_PASSES),
    }
    if args.phase == "measure":
        out.update(measure(args, spec, driver, batch_ops, checkpoint, replay, traced.stop))
    elif args.phase == "layers":
        out.update(trace_layers(args, spec, driver, batch_ops, traced))
    return out


def measure(
    args, spec, driver, batch_ops: int, checkpoint: int, replay: int, traced_to: int
) -> Dict[str, Any]:
    """Timed pass, in-process replay, and — with ``--trace 1`` — the
    per-layer metrics that come from the timed pass itself."""
    from workloads import AttachDriver, digest_of

    digests: Dict[int, str] = {}
    at_checkpoint: Dict[str, Any] = {}
    rss_start_kb = peak_rss_kb()
    wall_start = time.perf_counter()

    def after_batch(index: int, attempted: int) -> bool:
        if index in (replay, traced_to, checkpoint):
            digests[index] = digest_of(driver.snapshot())
        if index == checkpoint:
            at_checkpoint.update(
                ops=attempted,
                rss_kb=peak_rss_kb(),
                wall_s=time.perf_counter() - wall_start,
                counters=driver.counters(),
                problems=driver.checks(attempted),
                latencies=list(driver.latencies_s),
            )
        return index >= checkpoint and time.perf_counter() - wall_start >= args.seconds

    costs, passes, attempted, failed = timed_batches(driver, batch_ops, after_batch)
    ops_cp = at_checkpoint["ops"]
    problems: List[str] = at_checkpoint["problems"]
    op_cost_cal = midmean(costs)

    twin = driver.fresh()
    for index in range(replay):
        ops, bad = twin.run_batch(index, batch_ops)
        attempted += ops
        failed += bad
    if digest_of(twin.snapshot()) != digests[replay]:
        problems.append(
            f"same-seed in-process replay of {replay} batches did not "
            "reproduce the timed pass's simulated digest"
        )

    out: Dict[str, Any] = dict(
        attempted=attempted,
        failed_ops=failed,
        problems=problems,
        sim_digest=digests[checkpoint],
        traced_digest=digests[traced_to],
        checkpoint_ops=ops_cp,
        samples={
            "batches": len(costs),
            "cal_passes": len(passes),
            "register_latencies": len(at_checkpoint["latencies"]),
        },
        end_to_end={
            "op_cost_cal": op_cost_cal,
            "peak_rss_mb": at_checkpoint["rss_kb"] / 1024,
            "sim_ms_per_op": at_checkpoint["counters"]["sim_ns"] / ops_cp / 1e6,
        },
    )
    if not args.trace:
        return out

    per_layer = counter_metrics(at_checkpoint, rss_start_kb, passes)
    if args.workload == "sharded-4x2":
        # One inline (jobs=1) campaign against the fanned (jobs=2) median:
        # what the worker processes buy in wall time.
        per_layer["experiments.fanout_speedup"] = (
            statistics.median(twin.wall_s) / statistics.median(driver.wall_s)
        )
    if args.workload == "observed":
        # The same loop with nothing armed, on a same-seed testbed, over a
        # fifth of the batches.
        bare_batches = max(5, len(costs) // 5)
        bare_costs, _, _, _ = timed_batches(
            AttachDriver(args.seed, spec.isolation), batch_ops,
            lambda index, _: index >= bare_batches,
        )
        per_layer["obs.overhead_ratio"] = op_cost_cal / midmean(bare_costs)
    out["per_layer"] = per_layer
    return out


def counter_metrics(
    at_checkpoint: Dict[str, Any], rss_start_kb: int, passes: List[float]
) -> Dict[str, float]:
    """Per-layer metrics read from the drivers' public counters, plus the
    harness diagnostics, all over the timed pass up to the checkpoint."""
    from repro.experiments.stats import percentiles

    counters = at_checkpoint["counters"]
    ops = at_checkpoint["ops"]
    unit_s = cal_unit_s(passes)
    attack_events = counters.get("attack_events", 0)
    p50_s, p99_s = percentiles(at_checkpoint["latencies"], (50, 99))
    return {
        "sgx.eenters_per_op": counters.get("eenters", 0) / ops,
        "sgx.aex_per_op": counters.get("aexs", 0) / ops,
        "sgx.bytes_copied_per_op": counters.get("bytes_copied", 0) / ops,
        "gramine.ocalls_per_op": counters.get("ocalls", 0) / ops,
        "net.requests_per_op": counters.get("requests", 0) / ops,
        "fivegc.shed_ratio": counters.get("shed", 0) / attack_events if attack_events else 0.0,
        "security.events_per_sim_s": attack_events / (counters["sim_ns"] / 1e9),
        "obs.scrapes": counters.get("scrapes", 0),
        "obs.tsdb_series": counters.get("tsdb_series", 0),
        "obs.traces_kept": counters.get("traces_kept", 0),
        "host.cal_unit_ns": unit_s * 1e9,
        "host.cal_spread": spread(passes),
        "host.ops_per_s_raw": ops / at_checkpoint["wall_s"],
        "host.rss_kb_per_op": (at_checkpoint["rss_kb"] - rss_start_kb) / ops,
        "ran.register_p50_cal": (p50_s or 0.0) / unit_s,
        "ran.register_p99_cal": (p99_s or 0.0) / unit_s,
    }


def trace_layers(args, spec, driver, batch_ops: int, traced: range) -> Dict[str, Any]:
    """The traced run: the ``traced`` batches under cProfile (the ones
    before them unprofiled), folded by layer; then the layer kernels and
    the simulated breakdown."""
    import kernels
    import layers
    from repro.obs.flame import collapsed_text, sanitize_frame
    from workloads import digest_of

    if args.workload == "sharded-4x2":
        driver = driver.fresh()  # jobs=1: inline shard arms, so the fold sees them
    profile = cProfile.Profile()
    passes = cal_passes(2 * CAL_PASSES_PER_GAP)
    traced_ops = 0
    traced_cpu = 0.0
    for index in range(traced.start):
        driver.run_batch(index, batch_ops)
    for index in traced:
        start = cpu_now()
        profile.enable()
        ops, _ = driver.run_batch(index, batch_ops)
        profile.disable()
        traced_cpu += cpu_now() - start
        traced_ops += ops
    passes += cal_passes(2 * CAL_PASSES_PER_GAP)
    traced_digest = digest_of(driver.snapshot())

    folded = layers.fold(profile, os.path.join(SRC, "repro"))
    traced_s = sum(folded["self_s"].values())
    per_layer: Dict[str, float] = {}
    for layer in LAYERS:
        per_layer[f"{layer}.self_share"] = folded["self_s"][layer] / traced_s
        per_layer[f"{layer}.calls_per_op"] = round(folded["calls"][layer] / traced_ops, 6)
    if args.workload in KERNEL_WORKLOADS:
        per_layer.update(kernels.run_suite(args.seed, args.seconds / 400))
    per_layer.update(kernels.sim_breakdown(args.seed, spec.isolation))
    per_layer["testbed.import_s"] = kernels.import_s(SRC)
    if args.workload == "sharded-4x2":
        per_layer["experiments.worker_spawn_s"] = kernels.worker_spawn_s()

    stacks = {
        (layer, sanitize_frame(label)): ns
        for (layer, label), ns in layers.top_functions(folded["functions"]).items()
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}.collapsed")
    with open(trace_path, "w") as handle:
        handle.write(collapsed_text(stacks))
    return {
        "traced_digest": traced_digest,
        "traced_cost_cal": traced_cpu / traced_ops / cal_unit_s(passes),
        "per_layer": per_layer,
        "trace_file": os.path.relpath(trace_path, ROOT),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "measure", "layers"), default="measure")
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
