"""Partitioned campaign driver: determinism, merge semantics, E-CAP parity."""

import os
import pickle
import subprocess
import sys
from hashlib import blake2b
from pathlib import Path

from repro.experiments.capacity import capacity_campaign
from repro.experiments.export import report_to_json
from repro.experiments.shard import (
    POPULATION_FIRST_MSIN,
    assign_shards,
    population_msins,
    run_shard,
    shard_seed,
    sharded_campaign,
)

_UES = 160  # small enough for CI, large enough for every shard to fill


def test_population_and_assignment_are_stable():
    msins = population_msins(10)
    assert msins[0] == f"{POPULATION_FIRST_MSIN:010d}"
    assert len(set(msins)) == 10
    buckets = assign_shards(msins, 4)
    assert sorted(buckets) == ["0", "1", "2", "3"]
    assert sum(len(b) for b in buckets.values()) == 10
    # Pure function: same partition on every call.
    assert assign_shards(msins, 4) == buckets


def test_100k_partition_is_the_committed_one():
    """The rows of ``benchmarks/results/capacity_100k_x8.txt``, plus a
    digest of the whole msin→shard map: a ring change that re-homes even
    one UE shows here, not only in a five-minute bench."""
    buckets = assign_shards(population_msins(100_000), 8)
    assert [len(b) for b in buckets.values()] == [
        12741, 10899, 9375, 14419, 10461, 16384, 13831, 11890,
    ]
    digest = blake2b(digest_size=16)
    for label, msins in buckets.items():
        digest.update(f"{label}:{','.join(msins)};".encode())
    assert digest.hexdigest() == "d7a88c6be889a47d3da1ca41539ace46"


def test_shard_seed_offsets_are_distinct():
    seeds = {shard_seed(7, k) for k in range(16)}
    assert len(seeds) == 16
    assert shard_seed(7, 0) == 7  # shard 0 *is* the unsharded campaign


def test_one_shard_reproduces_the_capacity_campaign_bit_for_bit():
    """shards=1 replays E-CAP's exact registration sequence: every shared
    derived value (simulated clocks included) must match to the digit."""
    cap = capacity_campaign(ues=_UES)
    sharded = sharded_campaign(ues=_UES, shards=1, jobs=1).report
    for key in (
        "simulated_s",
        "simulated_regs_per_s",
        "simulated_ms_per_reg",
        "eudm_lt_mean_us",
        "success_rate",
        "eudm_eenters_per_reg",
        "eausf_eenters_per_reg",
        "eamf_eenters_per_reg",
    ):
        assert sharded.derived[key] == cap.derived[key], key


def test_merged_report_is_byte_identical_across_jobs():
    serial = sharded_campaign(ues=_UES, shards=4, jobs=1)
    fanned = sharded_campaign(ues=_UES, shards=4, jobs=4)
    assert report_to_json(fanned.report) == report_to_json(serial.report)


_FRESH_SHARD = """
import pickle, sys
from repro.experiments.shard import assign_shards, population_msins, run_shard

buckets = assign_shards(population_msins(40), 2)
sys.stdout.buffer.write(pickle.dumps(run_shard(1, buckets["1"], seed=7)))
"""


def test_a_reused_process_leaks_nothing_between_shards():
    """The caller runs shard after shard and keeps its process-wide memos
    warm: shard 1 after shard 0 here must be exactly shard 1 run in a
    fresh interpreter, and a second campaign must repeat the first."""
    buckets = assign_shards(population_msins(40), 2)
    run_shard(0, buckets["0"], seed=7)
    reused = run_shard(1, buckets["1"], seed=7)
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])
    ))
    fresh = subprocess.run(
        [sys.executable, "-c", _FRESH_SHARD], env=env, check=True,
        capture_output=True, timeout=120,
    ).stdout
    assert pickle.loads(fresh) == reused
    first, second = (
        report_to_json(sharded_campaign(ues=40, shards=4, jobs=2).report)
        for _ in range(2)
    )
    assert first == second


def test_merge_semantics():
    result = sharded_campaign(ues=_UES, shards=4, jobs=1)
    report = result.report
    shard_rows = [row for row in report.rows if "shard" in row]
    assert len(shard_rows) == 4
    assert sum(row["ues"] for row in shard_rows) == _UES
    assert sum(row["successes"] for row in shard_rows) == _UES
    # Makespan = max shard clock; serial cost = sum over shards.
    makespan = max(row["simulated_s"] for row in shard_rows)
    assert report.derived["simulated_s"] == round(makespan, 6)
    total_s = sum(r["simulated_ns"] for r in result.shard_results) / 1e9
    assert report.derived["simulated_ms_per_reg"] == round(
        total_s * 1e3 / _UES, 4
    )
    # Table III shape survives sharding.
    assert report.all_checks_ok, [c.format() for c in report.failed_checks()]
    # Span decomposition rows: one per module, population-weighted.
    module_rows = {row["module"] for row in report.rows if "module" in row}
    assert module_rows == {"eudm", "eausf", "eamf"}


def test_monitored_campaign_merges_tsdb_with_shard_labels():
    result = sharded_campaign(
        ues=80, shards=2, jobs=1, monitor_cadence_s=1.0
    )
    assert result.tsdb is not None
    shards_seen = {
        dict(series.labels).get("shard") for series in result.tsdb.all_series()
    }
    assert shards_seen == {"0", "1"}
    assert result.report.derived["tsdb_series"] == float(len(result.tsdb))
    # Scrape times are pooled and sorted.
    times = result.tsdb.scrape_times
    assert times == sorted(times)
