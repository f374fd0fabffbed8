"""E-AVAIL: registration availability under injected faults.

Sweeps fault intensity (multiples of :data:`~repro.faults.BASELINE_RATES`)
over identical warmed SGX slices and measures what the resilience layer
delivers: registration success rate, retry/timeout/reconnect counts,
circuit-breaker activity and tail latency (p50/p95/p99).  Arrivals are
paced on the simulated clock across a fixed horizon, so every arm faces
the same fault timeline regardless of how many UEs it registers — the
``--quick`` smoke run samples the same windows the full campaign does.

Determinism: the fault plan is a pure value of ``(seed, horizon, rates)``
and the injector draws only from dedicated ``faults.*`` RNG streams, so
``(seed, plan)`` replays bit-identically and the 0× arm reproduces the
fault-free golden clocks exactly.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.harness import BandCheck, ExperimentReport, warmed_testbed
from repro.experiments.stats import percentiles, summarize
from repro.faults.injector import FaultInjector
from repro.faults.plan import BASELINE_RATES, FaultPlan
from repro.net.http import DEFAULT_SBI_RETRY
from repro.obs.scrape import Scraper
from repro.obs.slo import SloEngine, default_slos
from repro.paka.deploy import IsolationMode

NS_PER_S = 1_000_000_000

#: Fault-rate multipliers for the default sweep (0× = fault-free control).
DEFAULT_FACTORS = (0.0, 1.0, 2.0, 4.0)

#: Default monitoring cadence: one scrape per simulated second.
DEFAULT_CADENCE_S = 1.0


def _percentiles_ms(latencies_ms: Sequence[float]) -> Dict[str, object]:
    """Tail-latency row fields; ``None`` values when there are no samples.

    An all-failures arm (every registration refused before a latency was
    measured) must still produce a row — ``success_rate=0`` with absent
    percentiles — instead of crashing ``np.percentile`` on an empty array.
    """
    p50, p95, p99 = percentiles(latencies_ms, (50, 95, 99))
    return {
        "p50_ms": None if p50 is None else round(p50, 3),
        "p95_ms": None if p95 is None else round(p95, 3),
        "p99_ms": None if p99 is None else round(p99, 3),
    }


def _run_arm(
    factor: float,
    registrations: int,
    horizon_s: float,
    seed: int,
    cadence_s: float = DEFAULT_CADENCE_S,
) -> Dict[str, object]:
    """One sweep arm: a fresh warmed slice under ``factor×`` fault rates.

    A :class:`~repro.obs.scrape.Scraper` monitors the whole arm on a
    ``cadence_s`` simulated-time cadence, and the paper-derived SLOs are
    evaluated over its Tsdb afterwards — scrapes are pull-only, so the
    monitored arm spends exactly the same simulated nanoseconds as an
    unmonitored one (the 0× arm still reproduces the golden clocks).
    """
    testbed = warmed_testbed(IsolationMode.SGX, seed=seed)
    nfs = (
        testbed.nrf, testbed.udr, testbed.udm, testbed.ausf,
        testbed.amf, testbed.smf, testbed.upf,
    )
    for nf in nfs:
        nf.retry_policy = DEFAULT_SBI_RETRY

    plan = FaultPlan.generate(seed, horizon_s, BASELINE_RATES.scaled(factor))
    injector = FaultInjector(testbed, plan).arm()
    clock = testbed.host.clock
    start_ns = clock.now_ns
    gap_s = horizon_s / registrations

    scraper = Scraper.for_testbed(
        testbed, cadence_s=cadence_s, fault_injector=injector
    ).install(testbed.host)

    successes = 0
    latencies_ms: List[float] = []
    for index in range(registrations):
        # Hold the arrival grid: idle up to this UE's slot, then sync the
        # window-driven fault state (EPC pressure, AEX storms).
        target_ns = start_ns + int(index * gap_s * NS_PER_S)
        remaining_ns = target_ns - clock.now_ns
        if remaining_ns > 0:
            testbed.idle(remaining_ns / NS_PER_S)
        injector.tick()

        ue = testbed.add_subscriber()
        t0 = clock.now_ns
        outcome = testbed.register(ue, establish_session=False)
        latencies_ms.append((clock.now_ns - t0) / 1e6)
        successes += 1 if outcome.success else 0

    injector.tick()
    injector.disarm()

    # Recovery probe: with the plan disarmed and the circuit-breaker
    # cooldown (5 s) elapsed, the slice must serve again.  The scraper
    # stays installed so post-fault scrapes let burn-rate alerts resolve.
    testbed.idle(6.0)
    probe = testbed.register(testbed.add_subscriber(), establish_session=False)
    scraper.uninstall(testbed.host)

    slos = default_slos(testbed)
    alerts = SloEngine(slos).evaluate(scraper.tsdb)

    retries = sum(nf.client.retries for nf in nfs)
    timeouts = sum(nf.client.timeouts for nf in nfs)
    reconnects = sum(nf.client.reconnects for nf in nfs)
    breakers = [b for nf in nfs for b in nf.circuit_breakers.values()]
    row: Dict[str, object] = {
        "fault_factor": factor,
        "fault_windows": len(plan.windows),
        "attempts": registrations,
        "successes": successes,
        "success_rate": round(successes / registrations, 4) if registrations else 0.0,
        "retries": retries,
        "timeouts": timeouts,
        "reconnects": reconnects,
        "frames_dropped": injector.frames_dropped,
        "requests_refused": injector.requests_refused,
        "breaker_opens": sum(b.times_opened for b in breakers),
        "fast_failures": sum(b.fast_failures for b in breakers),
        "recovered": int(probe.success),
        "alerts_fired": len(alerts),
        "final_clock_ns": clock.now_ns,
    }
    row.update(_percentiles_ms(latencies_ms))
    row["latencies_ms"] = latencies_ms  # stripped before the report
    row["_monitor"] = {  # stripped before the report; kept by monitored_arm
        "cadence_s": cadence_s,
        "base_ns": start_ns,
        "scrapes": scraper.scrapes,
        "series": len(scraper.tsdb),
        "slos": [slo.describe() for slo in slos],
        "alerts": [alert.to_dict(start_ns) for alert in alerts],
        "fault_windows": [
            {
                "kind": window.kind.value,
                "target": window.target,
                "start_s": round(window.start_ns / NS_PER_S, 6),
                "end_s": round(window.end_ns / NS_PER_S, 6),
                "magnitude": round(window.magnitude, 6),
            }
            for window in plan.windows
        ],
        "alerts_in_fault_windows": _alerts_in_windows(alerts, plan, start_ns),
    }
    return row


def _alerts_in_windows(alerts, plan: FaultPlan, base_ns: int) -> int:
    """How many alerts fired while at least one fault window was active."""
    count = 0
    for alert in alerts:
        rel_ns = alert.fired_at_ns - base_ns
        if any(window.active(rel_ns) for window in plan.windows):
            count += 1
    return count


def monitored_arm(
    factor: float = 2.0,
    registrations: int = 120,
    horizon_s: float = 180.0,
    seed: int = 23,
    cadence_s: float = DEFAULT_CADENCE_S,
) -> Dict[str, object]:
    """One fully monitored fault arm with alert detail (``repro monitor``).

    Returns the availability row plus the monitoring payload: declared
    SLOs, every alert with simulated firing/resolve timestamps (relative
    seconds from the arm start), the injected fault windows, and how
    many alerts fired while a fault window was active.  Deterministic —
    byte-identical JSON for a fixed ``(seed, factor, cadence)``.
    """
    row = _run_arm(factor, registrations, horizon_s, seed, cadence_s=cadence_s)
    monitor = row.pop("_monitor")
    row.pop("latencies_ms")
    return {"row": row, "monitor": monitor}


def availability_experiment(
    registrations: int = 120,
    horizon_s: float = 180.0,
    seed: int = 23,
    factors: Sequence[float] = DEFAULT_FACTORS,
) -> ExperimentReport:
    """Sweep fault-rate multiples and report availability per arm."""
    report = ExperimentReport(
        experiment_id="availability",
        title=(
            f"registration availability under faults "
            f"({registrations} UEs over {horizon_s:.0f}s per arm)"
        ),
    )

    rows = [_run_arm(f, registrations, horizon_s, seed) for f in factors]
    by_factor = {row["fault_factor"]: row for row in rows}
    for row in rows:
        label = f"x{row['fault_factor']:g}"
        row.pop("_monitor")
        latencies = row.pop("latencies_ms")
        if latencies:
            report.series[f"latency_ms_{label}"] = summarize(
                f"registration latency {label}", latencies, "ms"
            )
        for key in ("success_rate", "p95_ms", "retries"):
            if row[key] is not None:
                report.derived[f"{key}_{label}"] = float(row[key])
        report.rows.append(row)

    control = by_factor[min(by_factor)]
    worst = by_factor[max(by_factor)]
    report.checks.append(
        BandCheck(
            name="fault-free success rate",
            measured=float(control["success_rate"]),
            low=1.0, high=1.0,
        )
    )
    report.checks.append(
        BandCheck(
            name="fault-free retries (resilience layer idle)",
            measured=float(control["retries"]),
            low=0.0, high=0.0,
        )
    )
    report.checks.append(
        BandCheck(
            name="max-fault arm loses some registrations",
            measured=float(worst["success_rate"]),
            low=0.05, high=0.98,
        )
    )
    if worst["p95_ms"] is not None and control["p95_ms"]:
        report.checks.append(
            BandCheck(
                name="max-fault arm tail latency inflation (p95 ratio)",
                measured=float(worst["p95_ms"]) / float(control["p95_ms"]),
                low=1.0, high=1e6,
            )
        )
    report.checks.append(
        BandCheck(
            name="every arm recovers once faults clear",
            measured=float(sum(row["recovered"] for row in rows)),
            low=float(len(rows)), high=float(len(rows)),
        )
    )
    report.notes = (
        f"seed={seed}; rates = factor x BASELINE_RATES "
        f"({BASELINE_RATES.total_per_min:.2g}/min total at 1x); "
        "paced arrivals share one fault timeline across arms"
    )
    return report
