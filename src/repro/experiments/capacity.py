"""E-CAP: mass-registration capacity campaign (10k UEs on one slice).

The paper's evaluation registers tens of UEs per arm (Table III sweeps
1–10); this campaign pushes the same stable-regime registration loop to
campaign scale — thousands of subscribers against one warmed SGX slice —
to measure what the serial slice sustains and to exercise the simulator's
own wire-speed hot path (bulk CTR keystream, fused SGX cost accounting,
indexed/bounded event log).

The scientific outputs are simulated quantities and therefore
deterministic per seed: simulated registrations/s, per-registration
enclave transitions (Table III's ≈90 EENTERs per module per
registration) and the eUDM total-latency summary.  Host wall-clock is
deliberately *not* part of the report — it belongs to
``BENCH_hostperf.json`` (see ``benchmarks/host_perf.py``), so the
committed results files stay byte-identical across machines.
"""

from __future__ import annotations

from repro.experiments.harness import MODULE_NAMES, BandCheck, ExperimentReport

# Inert: the event log keeps counts, which need no bound.  Only the
# frozen hostbench still passes it (as ``event_log_capacity``).
EVENT_LOG_CAPACITY = 20_000


def capacity_campaign(ues: int = 10_000, seed: int = 7) -> ExperimentReport:
    """Register ``ues`` subscribers back-to-back on one warmed SGX slice.

    This is the one-shard arm of the partitioned campaign
    (:func:`repro.experiments.shard.run_shard`): same seed, warmup and
    registration sequence, reported unmerged.
    """
    from repro.experiments.shard import population_msins, run_shard

    shard = run_shard(0, population_msins(ues), seed)
    successes = shard["successes"]
    simulated_s = shard["simulated_ns"] / 1e9

    report = ExperimentReport(
        experiment_id="capacity_10k" if ues >= 10_000 else f"capacity_{ues}",
        title=f"mass registration capacity ({ues} UEs, serial slice)",
    )
    report.derived["ues"] = float(ues)
    report.derived["success_rate"] = successes / ues
    report.derived["simulated_s"] = round(simulated_s, 6)
    report.derived["simulated_regs_per_s"] = round(ues / simulated_s, 4)
    report.derived["simulated_ms_per_reg"] = round(simulated_s * 1e3 / ues, 4)
    report.derived["eudm_lt_mean_us"] = round(shard["eudm_lt_mean_us"], 4)
    for name in MODULE_NAMES:
        per_reg = shard["eenters"][name] / ues
        report.derived[f"{name}_eenters_per_reg"] = round(per_reg, 4)
        report.checks.append(
            BandCheck(
                name=f"{name} EENTERs per registration",
                measured=per_reg,
                low=80,
                high=95,
                paper_value=90,
            )
        )

    report.checks.append(
        BandCheck(
            name="registration success rate",
            measured=successes / ues,
            low=1.0,
            high=1.0,
        )
    )
    report.checks.append(
        BandCheck(
            name="simulated ms per registration (stable regime)",
            measured=simulated_s * 1e3 / ues,
            low=40.0,
            high=70.0,
        )
    )
    report.notes = (
        "serial slice capacity; host wall-clock tracked separately in "
        "BENCH_hostperf.json"
    )
    return report
