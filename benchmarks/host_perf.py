"""Host-performance gates: what CI judges about the simulator's own speed.

Everything else in ``benchmarks/`` measures *simulated* time -- the
scientific output -- and ``benchmarks/hostbench`` is the calibrated
end-to-end judge of host cost.  This script keeps the three checks CI
still runs on the wall clock:

* ``--gate NAME=PERCENT``   paired host-time overhead of one armed
                            subsystem from ``OVERHEAD_GATES`` on
                            legitimate registrations (repeatable)
* ``--capacity N``          host wall over a full ``N``-UE capacity
                            campaign (the 100k-UE CI smoke arm)
* ``--sharded-capacity N``  the partitioned campaign serial vs fanned
                            out: merged reports byte-identical, and with
                            ``--sharded-gate`` a floor on the speed-up

Usage::

    PYTHONPATH=src python benchmarks/host_perf.py [--quick]
        [--gate NAME=PERCENT ...] [--capacity UES]
        [--sharded-capacity UES [--sharded-gate SPEEDUP]]

It prints what it measured as JSON and writes nothing:
``BENCH_hostperf.json`` is frozen history.  ``--quick`` is accepted and
changes nothing (it once kept smoke runs out of that file).
"""

from __future__ import annotations

import argparse
import json
import sys
import time


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
    """What hostbench ``observed`` and ``repro traces`` arm: an enabled
    trace-context ``Tracer`` with a tail-sampling ``TraceStore``
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="accepted for the CI command lines; no effect",
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=None,
        metavar="UES",
        help="wall-clock one full capacity campaign of this many UEs "
        "(10_000 = the paper-scale run; 100_000 = the CI smoke arm)",
    )
    parser.add_argument(
        "--sharded-capacity",
        type=int,
        default=None,
        metavar="UES",
        help="wall-clock the partitioned (sharded) capacity campaign "
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

    run = {}
    if args.capacity is not None:
        run["capacity"] = measure_capacity(args.capacity)
    if args.sharded_capacity is not None or args.sharded_gate is not None:
        run["sharded_capacity"] = measure_sharded_capacity(
            args.sharded_capacity or 10_000,
            args.sharded_shards,
            args.sharded_jobs,
        )
    for name, _ in args.gate:
        run[f"{name}_overhead"] = _paired_overhead(OVERHEAD_GATES[name])
    print(json.dumps(run, indent=2))

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
