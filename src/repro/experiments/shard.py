"""E-SCALE: partitioned million-UE capacity campaigns.

One warmed SGX slice sustains a few hundred simulated registrations per
second (E-CAP); reaching a million UEs in one process — one simulated
clock — would serialise everything behind a single Python loop.  This
driver instead *partitions* the subscriber population with one seeded
consistent-hash ring (:func:`repro.fivegc.routing.supi_ring`) into N
independent single-slice testbeds: each shard's UEs are registered
against that shard's own seeded sub-testbed in a worker process, and the
per-shard results — simulated clocks, Table III enclave counters, span
decompositions, scraped Tsdb series — are merged deterministically into
one report.

Determinism contract:

* the UE→shard assignment is a pure function of ``(population,
  shards)`` — keyed blake2b, no process state, no ``PYTHONHASHSEED``;
* each shard arm is a pure function of its kwargs (its own testbed, its
  own clock, its own RNG service), so the merge sees identical inputs
  whether arms ran inline or across 4 workers;
* the merge itself walks shards in index order.

Hence **the merged report is byte-identical regardless of ``--jobs``**,
and with ``shards=1`` the single arm *is* the E-CAP campaign loop — same
seed, same warmup, same registration sequence — so its simulated clock
reproduces :func:`repro.experiments.capacity.capacity_campaign`
bit-for-bit.

Merge semantics (what "one report" means for partitioned simulated time):

* ``simulated_s`` / ``simulated_regs_per_s``: shards are independent
  slices running *concurrently* in simulated time, so campaign makespan
  is the **max** over shard clocks and throughput is total UEs over it;
* ``simulated_ms_per_reg``: per-registration serial cost — **sum** of
  shard clocks over total UEs (comparable with E-CAP's 40–70 ms band);
* Table III EENTER counters: **summed** over shards, then normalised
  per registration (the paper's ≈90/module/registration must survive
  sharding unchanged);
* span decomposition: per-module component means, **weighted by shard
  population**;
* Tsdb series: per-shard dumps absorbed into one store with a ``shard``
  label added, so same-named series stay distinct and sorted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.experiments.capacity import EVENT_LOG_CAPACITY
from repro.experiments.harness import (
    MODULE_NAMES,
    BandCheck,
    ExperimentReport,
    warmed_testbed,
)
from repro.experiments.parallel import Arm, run_arms
from repro.fivegc.routing import shard_labels, supi_ring
from repro.obs.tsdb import Tsdb
from repro.paka.deploy import IsolationMode

# warmed_testbed's two warmup registrations consume auto-assigned msins
# 1 and 2; the campaign population starts where E-CAP's auto counter
# would resume, so a 1-shard partitioned run replays the exact E-CAP
# registration sequence.
POPULATION_FIRST_MSIN = 3

# Seed stride between shard sub-testbeds.  Shard 0 keeps the base seed
# (that arm *is* the unsharded campaign); siblings get well-separated
# named-stream universes.  A prime, so strides never collide across
# (seed, shard) pairs of one campaign family.
SHARD_SEED_STRIDE = 100_003


def shard_seed(seed: int, shard_index: int) -> int:
    """The sub-testbed seed for ``shard_index`` (base seed for shard 0)."""
    return seed + SHARD_SEED_STRIDE * shard_index


def population_msins(ues: int, first: int = POPULATION_FIRST_MSIN) -> List[str]:
    """The campaign population: msins ``first .. first + ues - 1``."""
    return [f"{index:010d}" for index in range(first, first + ues)]


def assign_shards(msins: List[str], shards: int) -> Dict[str, List[str]]:
    """Partition ``msins`` (of PLMN 001/01, the testbed default) by the
    deployment's SUPI→shard ring.

    Returns ``{shard_label: [msin, ...]}`` with every shard present (a
    shard can legitimately be empty at tiny populations) and per-shard
    order preserved from the population order.
    """
    ring = supi_ring(shards)
    buckets: Dict[str, List[str]] = {label: [] for label in shard_labels(shards)}
    for msin in msins:
        buckets[ring.pick(f"imsi-00101{msin}")].append(msin)
    return buckets


def run_shard(
    shard_index: int,
    msins: List[str],
    seed: int,
    monitor_cadence_s: Optional[float] = None,
) -> Dict[str, Any]:
    """One shard arm: register this shard's UEs on its own sub-testbed.

    Module-level and plain-data in/out, so it fans out over worker
    processes.  The measured window is exactly E-CAP's: clock read after
    warmup, registrations back-to-back, clock read again — the optional
    scraper is pull-only and the trace for the span decomposition runs
    *after* the window closes, so neither perturbs the measured clock.
    """
    from repro.obs.scrape import Scraper

    testbed = warmed_testbed(
        IsolationMode.SGX,
        seed=shard_seed(seed, shard_index),
        event_log_capacity=EVENT_LOG_CAPACITY,
    )
    eenters_before = {
        name: testbed.paka.modules[name].runtime.sgx_stats.eenters
        for name in MODULE_NAMES
    }
    scraper = None
    if monitor_cadence_s is not None:
        scraper = Scraper.for_testbed(
            testbed, cadence_s=monitor_cadence_s, series_cap=512
        ).install(testbed.host)
    clock_before_ns = testbed.host.clock.now_ns

    successes = 0
    for msin in msins:
        ue = testbed.add_subscriber(msin)
        outcome = testbed.register(ue, establish_session=False)
        successes += 1 if outcome.success else 0

    simulated_ns = testbed.host.clock.now_ns - clock_before_ns
    if scraper is not None:
        scraper.scrape()  # closing sample at the campaign edge
        scraper.uninstall(testbed.host)
    eenters = {
        name: testbed.paka.modules[name].runtime.sgx_stats.eenters
        - eenters_before[name]
        for name in MODULE_NAMES
    }
    # Latency summary before the trace below appends its own sample.
    eudm_lt_mean_us = testbed.paka.modules["eudm"].server.lt_us.stats.mean

    # Span decomposition for this shard (one traced registration, after
    # the measured window).
    trace = testbed.trace_registration(establish_session=False)
    breakdown = {
        module: {key: float(value) for key, value in sorted(parts.items())}
        for module, parts in sorted(trace.breakdown.items())
    }

    return {
        "shard": shard_index,
        "ues": len(msins),
        "successes": successes,
        "simulated_ns": simulated_ns,
        "eudm_lt_mean_us": eudm_lt_mean_us,
        "eenters": eenters,
        "breakdown": breakdown,
        "tsdb": scraper.tsdb.to_dict() if scraper is not None else None,
    }


@dataclass
class ShardedCampaignResult:
    """The merged campaign: report plus the raw per-shard results."""

    report: ExperimentReport
    shard_results: List[Dict[str, Any]] = field(default_factory=list)
    tsdb: Optional[Tsdb] = None


def _human_count(ues: int) -> str:
    if ues >= 1_000_000 and ues % 1_000_000 == 0:
        return f"{ues // 1_000_000}m"
    if ues >= 1_000 and ues % 1_000 == 0:
        return f"{ues // 1_000}k"
    return str(ues)


def sharded_campaign(
    ues: int = 100_000,
    shards: int = 4,
    jobs: int = 1,
    seed: int = 7,
    monitor_cadence_s: Optional[float] = None,
) -> ShardedCampaignResult:
    """Partitioned mass-registration campaign over ``shards`` slices.

    ``jobs`` follows :func:`repro.experiments.parallel.run_arms` (inline
    or a fresh executor) and **cannot** change a byte of the merged
    report — only how long the host waits.
    """
    if ues < 1:
        raise ValueError(f"ues must be >= 1, got {ues}")
    buckets = assign_shards(population_msins(ues), shards)
    arms = [
        Arm(
            key=label,
            fn=run_shard,
            kwargs={
                "shard_index": index,
                "msins": buckets[label],
                "seed": seed,
                "monitor_cadence_s": monitor_cadence_s,
            },
        )
        for index, label in enumerate(shard_labels(shards))
    ]
    results = run_arms(arms, jobs=jobs)
    return merge_shard_results(
        list(results.values()), ues=ues, shards=shards, seed=seed
    )


def merge_shard_results(
    shard_results: List[Dict[str, Any]],
    ues: int,
    shards: int,
    seed: int,
) -> ShardedCampaignResult:
    """Deterministic merge of per-shard results into one report."""
    ordered = sorted(shard_results, key=lambda r: r["shard"])
    successes = sum(r["successes"] for r in ordered)
    total_ns = sum(r["simulated_ns"] for r in ordered)
    makespan_ns = max(r["simulated_ns"] for r in ordered)
    makespan_s = makespan_ns / 1e9

    report = ExperimentReport(
        experiment_id=f"capacity_{_human_count(ues)}_x{shards}",
        title=(
            f"sharded mass registration ({ues} UEs over {shards} "
            f"control-plane shards)"
        ),
    )
    report.derived["ues"] = float(ues)
    report.derived["shards"] = float(shards)
    report.derived["success_rate"] = successes / ues
    report.derived["simulated_s"] = round(makespan_s, 6)
    report.derived["simulated_regs_per_s"] = round(ues / makespan_s, 4)
    report.derived["simulated_ms_per_reg"] = round(total_ns / 1e6 / ues, 4)
    # Population-weighted mean of per-shard eUDM total-latency means.
    report.derived["eudm_lt_mean_us"] = round(
        sum(r["eudm_lt_mean_us"] * r["ues"] for r in ordered if r["ues"])
        / max(1, sum(r["ues"] for r in ordered if r["ues"])),
        4,
    )

    for name in MODULE_NAMES:
        per_reg = sum(r["eenters"][name] for r in ordered) / ues
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

    # Per-shard rows (the partition itself is part of the result).
    for r in ordered:
        shard_s = r["simulated_ns"] / 1e9
        report.rows.append(
            {
                "shard": r["shard"],
                "ues": r["ues"],
                "successes": r["successes"],
                "simulated_s": round(shard_s, 6),
                "regs_per_s": round(r["ues"] / shard_s, 4) if shard_s else 0.0,
            }
        )

    # Merged span decomposition: per-module component means weighted by
    # shard population (sorted keys for deterministic row layout).
    modules = sorted({m for r in ordered for m in r["breakdown"]})
    weight_total = sum(r["ues"] for r in ordered if r["ues"]) or 1
    for module in modules:
        merged_row: Dict[str, object] = {"module": module}
        keys = sorted(
            {k for r in ordered for k in r["breakdown"].get(module, {})}
        )
        for key in keys:
            weighted = sum(
                r["breakdown"].get(module, {}).get(key, 0.0) * r["ues"]
                for r in ordered
                if r["ues"]
            )
            merged_row[key] = round(weighted / weight_total, 4)
        report.rows.append(merged_row)

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
            measured=total_ns / 1e6 / ues,
            low=40.0,
            high=70.0,
        )
    )
    report.notes = (
        f"partitioned campaign, seed {seed}: shards run concurrently in "
        "simulated time (makespan = max shard clock); report bytes are "
        "independent of --jobs"
    )

    merged_tsdb: Optional[Tsdb] = None
    if any(r.get("tsdb") for r in ordered):
        merged_tsdb = Tsdb()
        for r in ordered:
            if r.get("tsdb"):
                merged_tsdb.absorb(r["tsdb"], shard=str(r["shard"]))
        report.derived["tsdb_series"] = float(len(merged_tsdb))
        report.derived["tsdb_scrapes"] = float(len(merged_tsdb.scrape_times))

    return ShardedCampaignResult(
        report=report, shard_results=ordered, tsdb=merged_tsdb
    )
