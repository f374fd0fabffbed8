"""Host-performance harness: how fast the simulator itself runs.

Everything in ``benchmarks/`` measures *simulated* time — the scientific
output.  This script measures the *host* wall-clock cost of producing it,
so crypto fast-path work (the T-table AES rewrite, per-key cipher caches)
can be tracked with hard numbers:

* one-shot AES blocks/s      — ``aes128_encrypt_block`` per call
* keyed AES blocks/s         — ``AES128.encrypt_block`` on a held cipher
* MILENAGE vectors/s         — full f1 + f2345 authentication vectors on
                               a held ``Milenage`` (the AKA crypto core)
* SBI roundtrips/s           — ``dumps_flat``/``loads_object`` over a
                               representative registration body set
* registrations/s            — stable-regime 5G-AKA registrations on a
                               warmed SGX testbed (the simulator hot path)
* capacity regs/s (opt-in)   — host wall over a full ``--capacity N``
                               UE campaign (the 10k/100k-UE scale runs)
* sharded regs/s (opt-in)    — host wall + serial-vs-fanned speedup of
                               the partitioned ``--sharded-capacity``
                               campaign (the million-UE scale-out path)
* suite wall-clock (opt-in)  — one full ``pytest benchmarks`` run

Results land in ``BENCH_hostperf.json`` at the repo root; each invocation
appends to the ``runs`` history so regressions are visible in the diff.

Usage::

    PYTHONPATH=src python benchmarks/host_perf.py [--suite] [--label TEXT]
        [--quick] [--gate NAME=PERCENT ...]

``--quick`` shrinks the batches to CI-smoke scale and skips the history
file (so smoke runs never pollute the committed numbers); each ``--gate``
bounds the paired overhead of one armed subsystem from
``OVERHEAD_GATES``.  The raw registrations/s reading is recorded, never
judged — it is host-dependent; ``benchmarks/hostbench`` is the
calibrated end-to-end judge.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_hostperf.json"

BLOCK_BATCH = 20_000
# Post-rewrite a registration costs ~3 ms of host time, so 100 samples
# is still sub-second; at 10–20 samples the regs/s rate swung ±15% on a
# noisy host.
REGISTRATIONS = 100
QUICK_REGISTRATIONS = 30


def measure_aes_blocks(batch: int = BLOCK_BATCH) -> dict:
    """Blocks/s for the one-shot API and for a held keyed cipher."""
    from repro.crypto.aes import AES128, aes128_encrypt_block

    key = bytes(range(16))
    block = bytes(range(16, 32))

    start = time.perf_counter()
    for _ in range(batch):
        aes128_encrypt_block(key, block)
    oneshot_s = time.perf_counter() - start

    cipher = AES128(key)
    encrypt = cipher.encrypt_block
    start = time.perf_counter()
    for _ in range(batch):
        encrypt(block)
    keyed_s = time.perf_counter() - start

    # Bulk CTR over a NAS-sized message (the actual hot-path shape).
    message = bytes(240)
    nonce = bytes(range(32, 48))
    ctr_batch = max(1, batch // 4)
    ctr = cipher.ctr
    start = time.perf_counter()
    for _ in range(ctr_batch):
        ctr(nonce, message)
    ctr_s = time.perf_counter() - start

    return {
        "block_batch": batch,
        "oneshot_blocks_per_s": round(batch / oneshot_s, 1),
        "keyed_blocks_per_s": round(batch / keyed_s, 1),
        "ctr_240B_msgs_per_s": round(ctr_batch / ctr_s, 1),
    }


def measure_milenage(batch: int = BLOCK_BATCH // 4) -> dict:
    """Full MILENAGE authentication vectors/s on a held ``Milenage``.

    One vector is the batched f1 + f2345 pass (MAC-A, RES, CK, IK, AK) —
    the UDM/USIM cost of every 5G-AKA run, and the unit the bulk-crypto
    rewrite optimises.  RAND varies per call so the per-RAND TEMP cache
    cannot short-circuit the measurement.
    """
    from repro.crypto.milenage import Milenage

    mil = Milenage(bytes(range(16)), bytes(range(16, 32)))
    sqn = bytes(6)
    amf = b"\x80\x00"
    rands = [i.to_bytes(16, "big") for i in range(batch)]

    generate = mil.generate
    start = time.perf_counter()
    for rand in rands:
        generate(rand, sqn, amf)
    wall_s = time.perf_counter() - start

    return {
        "vector_batch": batch,
        "milenage_vectors_per_s": round(batch / wall_s, 1),
    }


def measure_sbi_roundtrips(batch: int = BLOCK_BATCH // 4) -> dict:
    """Serialize+parse roundtrips/s over a registration's SBI body set.

    One roundtrip pushes a representative mix of the ~14 flat JSON bodies
    a registration exchanges (auth vectors, SUCI resolution, confirmation,
    session setup) through ``dumps_flat`` and back through
    ``loads_object`` — the fast-serialization layer's unit of work.
    """
    from repro.net.codec import dumps_flat, loads_object

    bodies = [
        {"supi": "imsi-001010000000001", "servingNetworkName": "5G:mnc001.mcc001.3gppnetwork.org"},
        {
            "rand": "00112233445566778899aabbccddeeff",
            "autn": "ffeeddccbbaa99887766554433221100",
            "hxresStar": "0f1e2d3c4b5a69788796a5b4c3d2e1f0" * 2,
            "authCtxId": "ctx-000001",
        },
        {"resStar": "f0e1d2c3b4a5968778695a4b3c2d1e0f" * 2},
        {"authResult": "AUTHENTICATION_SUCCESS", "supi": "imsi-001010000000001", "kseaf": "00" * 32},
        {"pduSessionId": 1, "dnn": "internet", "sscMode": 1, "established": True},
    ]

    start = time.perf_counter()
    for _ in range(batch):
        for body in bodies:
            loads_object(dumps_flat(body))
    wall_s = time.perf_counter() - start

    return {
        "roundtrip_batch": batch,
        "bodies_per_roundtrip": len(bodies),
        "sbi_roundtrips_per_s": round(batch / wall_s, 1),
    }


def measure_capacity(ues: int) -> dict:
    """Host wall-clock over one full capacity campaign (``ues`` UEs).

    The campaign's committed report carries only simulated results; the
    host-side throughput of producing them belongs here, next to the
    other wall-clock numbers, so the 10k/100k-UE scale arms gate on it.
    """
    from repro.experiments.capacity import capacity_campaign

    start = time.perf_counter()
    report = capacity_campaign(ues=ues)
    wall_s = time.perf_counter() - start

    return {
        "ues": ues,
        "wall_s": round(wall_s, 2),
        "host_regs_per_s": round(ues / wall_s, 2),
        "success_rate": report.derived["success_rate"],
        "simulated_regs_per_s": report.derived["simulated_regs_per_s"],
    }


def measure_sharded_capacity(ues: int, shards: int, jobs: int) -> dict:
    """Host wall-clock speedup of the partitioned capacity campaign.

    Runs the same ``ues``-UE campaign twice — once serially (``jobs=1``)
    and once fanned out over ``jobs`` worker processes — and reports the
    wall-clock speedup.  The merged reports are byte-identical by
    contract (asserted here), so the speedup is pure harness
    parallelism, never a change in the simulated science.
    """
    from repro.experiments.export import report_to_json
    from repro.experiments.parallel import default_jobs
    from repro.experiments.shard import sharded_campaign

    jobs = jobs or default_jobs()

    start = time.perf_counter()
    serial = sharded_campaign(ues=ues, shards=shards, jobs=1)
    serial_wall_s = time.perf_counter() - start

    start = time.perf_counter()
    fanned = sharded_campaign(ues=ues, shards=shards, jobs=jobs)
    fanned_wall_s = time.perf_counter() - start

    if report_to_json(fanned.report) != report_to_json(serial.report):
        raise RuntimeError("sharded campaign reports diverged across --jobs")

    return {
        "ues": ues,
        "shards": shards,
        "jobs": jobs,
        "schedulable_cpus": default_jobs(),
        "serial_wall_s": round(serial_wall_s, 2),
        "wall_s": round(fanned_wall_s, 2),
        "sharded_regs_per_s": round(ues / fanned_wall_s, 2),
        "speedup": round(serial_wall_s / fanned_wall_s, 2),
        "simulated_regs_per_s": fanned.report.derived["simulated_regs_per_s"],
    }


def measure_registrations(registrations: int = REGISTRATIONS) -> dict:
    """Wall-clock for stable-regime registrations on a warmed SGX testbed."""
    from repro.experiments.harness import warmed_testbed
    from repro.paka.deploy import IsolationMode

    testbed = warmed_testbed(IsolationMode.SGX, seed=7)
    start = time.perf_counter()
    for _ in range(registrations):
        ue = testbed.add_subscriber()
        outcome = testbed.register(ue, establish_session=False)
        if not outcome.success:
            raise RuntimeError(f"registration failed: {outcome.failure_cause}")
    wall_s = time.perf_counter() - start

    return {
        "registrations": registrations,
        "wall_s": round(wall_s, 4),
        "registrations_per_s": round(registrations / wall_s, 2),
    }


# Overhead gates compare two arms whose true difference is ~1% — far
# below this-host noise (CPU steal, allocator state, GC pauses) at any
# whole-arm granularity.  The estimator therefore pairs the arms at
# *registration* granularity on two identically seeded testbeds, times
# each registration of each arm back to back with GC paused, and takes a
# trimmed mean of the per-pair deltas (the noisiest 10% of pairs by
# |delta| dropped).  Whole-arm best-of-N was ±10% on the same host; this
# lands within ±1.5%.
OVERHEAD_REGISTRATIONS = 150
_TRIM_FRACTION = 0.10


def _paired_overhead(arm, registrations: int = OVERHEAD_REGISTRATIONS) -> dict:
    """Percent host-time overhead of ``arm(testbed)`` vs an untouched twin."""
    import gc

    from repro.experiments.harness import warmed_testbed
    from repro.paka.deploy import IsolationMode

    control = warmed_testbed(IsolationMode.SGX, seed=7)
    armed = warmed_testbed(IsolationMode.SGX, seed=7)
    arm(armed)

    def one(testbed) -> float:
        ue = testbed.add_subscriber()
        start = time.perf_counter()
        outcome = testbed.register(ue, establish_session=False)
        elapsed = time.perf_counter() - start
        if not outcome.success:
            raise RuntimeError(f"registration failed: {outcome.failure_cause}")
        return elapsed

    bases = []
    deltas = []
    gc.collect()
    gc.disable()
    try:
        for _ in range(registrations):
            base = one(control)
            bases.append(base)
            deltas.append(one(armed) - base)
    finally:
        gc.enable()

    order = sorted(range(registrations), key=lambda i: abs(deltas[i]))
    keep = order[: registrations - int(registrations * _TRIM_FRACTION)]
    base_s = sum(bases[i] for i in keep)
    armed_s = base_s + sum(deltas[i] for i in keep)
    return {
        "registrations": registrations,
        "trimmed_pairs": registrations - len(keep),
        "base_wall_s": round(base_s, 4),
        "armed_wall_s": round(armed_s, 4),
        "overhead_percent": round(100.0 * (armed_s / base_s - 1.0), 2),
    }


# What each overhead gate arms on the second testbed.  Every arm but
# ``observed`` is the *quiescent* form of a subsystem — installed,
# consulted on every hook, doing no work — so the gates are how CI sees
# that the observation seam on ``PhysicalHost`` and the admission hook
# are free when nothing is happening; ``observed`` bounds what watching
# for real costs.


def _arm_tracer(tb) -> None:
    """Attached-but-disabled ``Tracer``: every seam hook resolves it."""
    from repro.obs.trace import Tracer

    tb.host.tracer = Tracer(tb.host.clock, enabled=False)


def _arm_traces(tb) -> None:
    """Disabled tracer provisioned for distributed tracing (trace seed +
    ``TraceStore``): the heavier state behind the same seam."""
    from repro.obs.trace import TraceStore, Tracer

    tb.host.tracer = Tracer(
        tb.host.clock,
        enabled=False,
        trace_seed=7,
        store=TraceStore(cap=512, sample_every=8),
    )


def _arm_observed(tb) -> None:
    """What a campaign arms (hostbench ``observed``, ``experiments.shard``):
    an enabled trace-context ``Tracer`` with a tail-sampling ``TraceStore``
    plus the 1 s ``Scraper``.  10-30 % while OCALL replays stay fused
    under the tracer; 85-100 % if they fall back to one span per OCALL."""
    _arm_traces(tb)
    tb.host.tracer.enabled = True
    _arm_monitor(tb)


def _arm_monitor(tb) -> None:
    """Installed 1 s-cadence ``Scraper``: ticks on every registration
    plus whatever scrapes land on the timeline."""
    from repro.obs.scrape import Scraper

    Scraper.for_testbed(tb, cadence_s=1.0).install(tb.host)


def _arm_detect(tb) -> None:
    """Scraper + subscribed ``AdmissionGovernor`` classifying every
    scrape over quiet traffic (never arms): the price of watching."""
    from repro.obs.detect import AdmissionGovernor, AttackClassifier

    _arm_monitor(tb)
    tb.host.monitor.subscribe(AdmissionGovernor(tb.amf, AttackClassifier()))


def _arm_attack(tb) -> None:
    """Permissive ``AdmissionController`` (every arrival checked, none
    shed) plus a provisioned ``AttackPlane`` executing no events."""
    from repro.fivegc.admission import AdmissionConfig, AdmissionController
    from repro.security.attacks import AttackPlane

    tb.amf.admission = AdmissionController(AdmissionConfig())
    AttackPlane(tb)


OVERHEAD_GATES = {
    "tracer": _arm_tracer,
    "monitor": _arm_monitor,
    "attack": _arm_attack,
    "detect": _arm_detect,
    "traces": _arm_traces,
    "observed": _arm_observed,
}


def _parse_gate(text: str):
    """``name=pct`` -> (name, pct) for one ``--gate`` occurrence."""
    name, sep, pct = text.partition("=")
    if not sep or name not in OVERHEAD_GATES:
        raise argparse.ArgumentTypeError(
            f"expected NAME=PERCENT with NAME in {sorted(OVERHEAD_GATES)}, "
            f"got {text!r}"
        )
    try:
        return name, float(pct)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad percentage in {text!r}")


def measure_suite() -> dict:
    """Wall-clock of one full benchmark-suite run (the expensive bit)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks", "-q", "-p", "no:cacheprovider"],
        cwd=REPO_ROOT,
        env={**__import__("os").environ, "PYTHONPATH": "src"},
        capture_output=True,
        text=True,
    )
    wall_s = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(
            f"benchmark suite failed (exit {proc.returncode}):\n{proc.stdout[-2000:]}"
        )
    return {"suite_wall_s": round(wall_s, 2)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        action="store_true",
        help="also time one full 'pytest benchmarks' run (minutes, not seconds)",
    )
    parser.add_argument(
        "--label", default="", help="free-text tag stored with this run"
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=DEFAULT_OUTPUT,
        help=f"results file (default: {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-smoke scale; measures but does not append to the history file",
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=None,
        metavar="UES",
        help="also wall-clock one full capacity campaign of this many UEs "
        "(10_000 = the paper-scale run; 100_000 = the CI smoke arm)",
    )
    parser.add_argument(
        "--sharded-capacity",
        type=int,
        default=None,
        metavar="UES",
        help="also wall-clock the partitioned (sharded) capacity campaign "
        "of this many UEs, serial vs fanned-out, recording the speedup",
    )
    parser.add_argument(
        "--sharded-shards",
        type=int,
        default=4,
        metavar="N",
        help="shard count for the --sharded-capacity run (default: 4)",
    )
    parser.add_argument(
        "--sharded-jobs",
        type=int,
        default=0,
        metavar="M",
        help="worker processes for the fanned-out arm of the "
        "--sharded-capacity run (0 = one per schedulable CPU)",
    )
    parser.add_argument(
        "--sharded-gate",
        type=float,
        default=None,
        metavar="SPEEDUP",
        help="exit non-zero if the sharded-campaign wall-clock speedup "
        "lands below this floor; the floor is automatically capped at "
        "0.8 x min(shards, jobs, schedulable CPUs) so the gate only "
        "bites where the hardware can actually deliver it",
    )
    parser.add_argument(
        "--gate",
        action="append",
        type=_parse_gate,
        default=[],
        metavar="NAME=PERCENT",
        help="measure the host-time overhead of an armed subsystem on "
        "legitimate registrations and exit non-zero if it exceeds PERCENT; "
        "repeatable.  "
        + "  ".join(
            f"{name}: {' '.join(arm.__doc__.split())}"
            for name, arm in OVERHEAD_GATES.items()
        ),
    )
    args = parser.parse_args(argv)

    block_batch = BLOCK_BATCH // 5 if args.quick else BLOCK_BATCH
    registrations = QUICK_REGISTRATIONS if args.quick else REGISTRATIONS

    run = {
        "label": args.label,
        "python": platform.python_version(),
        "aes": measure_aes_blocks(block_batch),
        "milenage": measure_milenage(block_batch // 4),
        "sbi": measure_sbi_roundtrips(block_batch // 4),
        "registration": measure_registrations(registrations),
    }
    if args.capacity is not None:
        run["capacity"] = measure_capacity(args.capacity)
    if args.sharded_capacity is not None or args.sharded_gate is not None:
        run["sharded_capacity"] = measure_sharded_capacity(
            args.sharded_capacity or 10_000,
            args.sharded_shards,
            args.sharded_jobs,
        )
    # Gate measurements always use the full paired-sample count: the
    # estimator needs ~150 pairs for a stable trimmed mean, and --quick
    # shrinking them would just make the gate flaky.
    for name, _ in args.gate:
        run[f"{name}_overhead"] = _paired_overhead(OVERHEAD_GATES[name])
    if args.suite:
        run.update(measure_suite())

    if not args.quick:
        if args.output.exists():
            document = json.loads(args.output.read_text())
        else:
            document = {
                "description": "host wall-clock performance history",
                "runs": [],
            }
        document["runs"].append(run)
        args.output.write_text(json.dumps(document, indent=2) + "\n")

    print(json.dumps(run, indent=2))
    if not args.quick:
        print(f"recorded -> {args.output}")

    if args.sharded_gate is not None:
        sharded = run["sharded_capacity"]
        # The gate can only demand what the hardware offers: a 1-CPU
        # container cannot produce a 2.5x wall-clock speedup no matter
        # how well the partitioning works, so the floor is capped by the
        # effective parallelism of this run.
        effective = min(
            sharded["shards"], sharded["jobs"], sharded["schedulable_cpus"]
        )
        floor = min(args.sharded_gate, 0.8 * effective)
        if floor < args.sharded_gate:
            print(
                f"note: --sharded-gate floor capped at {floor:.2f}x "
                f"(effective parallelism {effective}, requested "
                f"{args.sharded_gate}x)"
            )
        if sharded["speedup"] < floor:
            print(
                f"FAIL: sharded-campaign speedup {sharded['speedup']}x below "
                f"the --sharded-gate floor of {floor:.2f}x",
                file=sys.stderr,
            )
            return 1
    for name, budget in args.gate:
        overhead = run[f"{name}_overhead"]["overhead_percent"]
        if overhead > budget:
            print(
                f"FAIL: {name} overhead {overhead}% exceeds the "
                f"--gate {name}={budget:g} budget",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
