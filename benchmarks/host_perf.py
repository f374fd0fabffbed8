"""Host-performance gates: what CI judges about the simulator's own speed.

Everything else in ``benchmarks/`` measures *simulated* time -- the
scientific output -- and ``benchmarks/hostbench`` is the calibrated
end-to-end judge of host cost.  This script keeps the three host-time
checks CI still runs beside it:

* ``--gate NAME=PERCENT``   paired host-time overhead of one armed
                            subsystem from ``OVERHEAD_GATES`` on
                            legitimate registrations, the median of
                            ``GATE_REPEATS`` interleaved estimates
                            (repeatable)
* ``--capacity N``          host wall over a full ``N``-UE capacity
                            campaign (the 100k-UE CI smoke arm)
* ``--sharded-capacity N``  the partitioned campaign serial vs fanned
                            out, three interleaved pairs: merged reports
                            byte-identical, and with ``--sharded-gate`` a
                            ceiling on the median pair's CPU ratio

Usage::

    PYTHONPATH=src python benchmarks/host_perf.py
        [--gate NAME=PERCENT ...] [--capacity UES]
        [--sharded-capacity UES [--sharded-gate CPU_RATIO]]

It prints what it measured as JSON and writes nothing:
``BENCH_hostperf.json`` is frozen history.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
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


def _cpu_s() -> float:
    """CPU seconds of this process plus its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


# Serial/fanned pairs behind one --sharded-capacity reading: one pair's
# CPU ratio read 0.94-1.30 over ten runs on 2 vCPUs, so the gate judges
# the median of three, interleaved so drift in the host hits both sides.
SHARDED_PAIRS = 3


def measure_sharded_capacity(ues: int, shards: int, jobs: int) -> dict:
    """What fanning the partitioned capacity campaign out costs.

    Runs the same ``ues``-UE campaign :data:`SHARDED_PAIRS` times as an
    interleaved pair — serially (``jobs=1``), then fanned out over
    ``jobs`` processes — and reports the CPU seconds of each run,
    children included (``run_arms`` reaps every child before it
    returns), each pair's ratio and their median ``cpu_ratio``: the
    fan-out's forks and cold starts in the unit the host pays, whatever
    the runner's CPU count.  The wall-clock speed-up is reported beside
    it.  Every pair's merged reports are byte-identical by contract
    (asserted here), so neither number is ever a change in the
    simulated science.
    """
    from repro.experiments.export import report_to_json
    from repro.experiments.parallel import default_jobs
    from repro.experiments.shard import sharded_campaign

    jobs = jobs or default_jobs()

    def timed(run_jobs):
        start, cpu_start = time.perf_counter(), _cpu_s()
        result = sharded_campaign(ues=ues, shards=shards, jobs=run_jobs)
        return result, time.perf_counter() - start, _cpu_s() - cpu_start

    pairs = []
    for _ in range(SHARDED_PAIRS):
        serial, serial_wall_s, serial_cpu_s = timed(1)
        fanned, fanned_wall_s, fanned_cpu_s = timed(jobs)
        if report_to_json(fanned.report) != report_to_json(serial.report):
            raise RuntimeError("sharded campaign reports diverged across --jobs")
        pairs.append((serial_wall_s, fanned_wall_s, serial_cpu_s, fanned_cpu_s))

    serial_wall_s, fanned_wall_s, serial_cpu_s, fanned_cpu_s = (
        statistics.median(column) for column in zip(*pairs)
    )
    cpu_ratios = [round(fanned / serial, 3) for _, _, serial, fanned in pairs]
    return {
        "ues": ues,
        "shards": shards,
        "jobs": jobs,
        "schedulable_cpus": default_jobs(),
        "serial_wall_s": round(serial_wall_s, 2),
        "wall_s": round(fanned_wall_s, 2),
        "sharded_regs_per_s": round(ues / fanned_wall_s, 2),
        "speedup": round(serial_wall_s / fanned_wall_s, 2),
        "serial_cpu_s": round(serial_cpu_s, 2),
        "cpu_s": round(fanned_cpu_s, 2),
        "cpu_ratios": cpu_ratios,
        "cpu_ratio": statistics.median(cpu_ratios),
        "simulated_regs_per_s": fanned.report.derived["simulated_regs_per_s"],
    }


# Overhead gates compare two arms whose true difference is ~1% — far
# below this-host noise (CPU steal, allocator state, GC pauses) at any
# whole-arm granularity.  The estimator therefore pairs the arms at
# *registration* granularity on two identically seeded testbeds, times
# each registration of each arm back to back with GC paused, and takes a
# trimmed mean of the per-pair deltas (the noisiest 10% of pairs by
# |delta| dropped).  Whichever arm runs second in a pair reads ≈10%
# cheaper whatever is armed, so the order alternates pair by pair and
# the two halves' estimates are reported beside the whole one.
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
        for pair in range(registrations):
            # Control first on even pairs, armed first on odd ones.
            if pair % 2:
                armed_s = one(armed)
                base = one(control)
            else:
                base = one(control)
                armed_s = one(armed)
            bases.append(base)
            deltas.append(armed_s - base)
    finally:
        gc.enable()

    order = sorted(range(registrations), key=lambda i: abs(deltas[i]))
    keep = order[: registrations - int(registrations * _TRIM_FRACTION)]

    def percent(pairs) -> float:
        delta_s = sum(deltas[i] for i in pairs)
        return round(100.0 * delta_s / sum(bases[i] for i in pairs), 2)

    return {
        "registrations": registrations,
        "trimmed_pairs": registrations - len(keep),
        "overhead_percent": percent(keep),
        "control_first_percent": percent([i for i in keep if i % 2 == 0]),
        "armed_first_percent": percent([i for i in keep if i % 2]),
    }


# Estimates behind one --gate verdict: one 150-pair estimate of a
# quiescent gate spreads about +-2 % around a median under 1 % on 2 vCPUs,
# so a 2 % budget failed about one run in four on noise.  Each gate judges
# the median of five, the gates interleaved repeat by repeat so drift in
# the host hits every gate alike.
GATE_REPEATS = 5


def measure_gates(names) -> dict:
    """Each named gate's overhead: the median of :data:`GATE_REPEATS`
    :func:`_paired_overhead` estimates, with every estimate and their
    spread beside it."""
    estimates = {name: [] for name in names}
    for _ in range(GATE_REPEATS):
        for name, runs in estimates.items():
            runs.append(_paired_overhead(OVERHEAD_GATES[name]))

    def median(runs, key) -> float:
        return round(statistics.median(run[key] for run in runs), 2)

    return {
        name: {
            "repeats": len(runs),
            "registrations": runs[0]["registrations"],
            "trimmed_pairs": runs[0]["trimmed_pairs"],
            "overhead_percents": [run["overhead_percent"] for run in runs],
            "overhead_percent": median(runs, "overhead_percent"),
            "control_first_percent": median(runs, "control_first_percent"),
            "armed_first_percent": median(runs, "armed_first_percent"),
        }
        for name, runs in estimates.items()
    }


# What each overhead gate arms on the second testbed.  ``monitor``,
# ``detect`` and ``attack`` are the *quiescent* form of a subsystem —
# installed, consulted on every hook, doing no work — so the gates are
# how CI sees that the scrape tick and the admission hook are free when
# nothing is happening; ``observed`` bounds what tracing for real costs.
# A tracer has no quiescent form: installed, it records.


def _arm_observed(tb) -> None:
    """What hostbench ``observed`` and ``repro traces`` arm: a
    trace-context ``Tracer`` with a tail-sampling ``TraceStore``
    plus the 1 s ``Scraper``.  10-15 % while OCALL replays stay fused
    under the tracer; 85-100 % if they fall back to one span per OCALL."""
    from repro.obs.trace import TraceStore, Tracer

    tb.host.tracer = Tracer(
        tb.host.clock, trace_seed=7, store=TraceStore(cap=512, sample_every=8)
    )
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
    "monitor": _arm_monitor,
    "attack": _arm_attack,
    "detect": _arm_detect,
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
        help="processes for the fanned-out arm of the --sharded-capacity "
        "run, the caller included (0 = one per schedulable CPU)",
    )
    parser.add_argument(
        "--sharded-gate",
        type=float,
        default=None,
        metavar="CPU_RATIO",
        help="exit non-zero if the fanned-out sharded campaign costs more "
        "than this multiple of the serial campaign's CPU seconds (reaped "
        "children counted; the median of the interleaved pairs); the "
        "wall-clock speed-up is reported, not gated",
    )
    parser.add_argument(
        "--gate",
        action="append",
        type=_parse_gate,
        default=[],
        metavar="NAME=PERCENT",
        help="measure the host-time overhead of an armed subsystem on "
        "legitimate registrations and exit non-zero if the median of "
        f"{GATE_REPEATS} estimates exceeds PERCENT; repeatable.  "
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
    gates = measure_gates(dict(args.gate))
    run.update((f"{name}_overhead", gate) for name, gate in gates.items())
    print(json.dumps(run, indent=2))

    if args.sharded_gate is not None:
        ratio = run["sharded_capacity"]["cpu_ratio"]
        if ratio > args.sharded_gate:
            print(
                f"FAIL: the fanned-out sharded campaign cost {ratio}x the "
                f"serial campaign's CPU seconds (median pair), above the "
                f"--sharded-gate ceiling of {args.sharded_gate}x",
                file=sys.stderr,
            )
            return 1
    failed = False
    for name, budget in args.gate:
        gate = gates[name]
        overhead, percents = gate["overhead_percent"], gate["overhead_percents"]
        verdict = "FAIL" if overhead > budget else "pass"
        failed |= verdict == "FAIL"
        print(
            f"{verdict}: {name} overhead {overhead}% (median of {len(percents)}; "
            f"spread {min(percents)} .. {max(percents)}%), "
            f"--gate {name}={budget:g} budget",
            file=sys.stderr,
        )
    return int(failed)


if __name__ == "__main__":
    raise SystemExit(main())
