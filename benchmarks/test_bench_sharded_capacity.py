"""E-SCALE: partitioned mass-registration capacity at 100k UEs.

The sharded campaign splits the UE population across independent
consistent-hash shards, runs each shard's seeded sub-testbed on its own
worker, and merges the per-shard results into one report that is
byte-identical regardless of ``--jobs``.  This benchmark commits the
100k-UE merged report — the scale-out headline — and budgets the host
wall-clock so the partitioned driver stays CI-tolerable.

The host throughput is printed and recorded in ``benchmark.extra_info``.
Under ``--quick`` the campaign shrinks to 400 UEs: band checks still
run, nothing on disk is touched and the wall-clock budget is not judged.
"""

import time

from repro.experiments.shard import sharded_campaign

FULL_100K = 100_000
QUICK_SIZE = 400
SHARDS = 8

# Single-core floor: the unsharded 10k arm clears ~700 regs/s on a
# developer host, so 100k UEs plus the merge must land well inside this.
MAX_WALL_S_100K = 420.0


def test_bench_sharded_capacity_100k(benchmark, campaign, record_report, jobs, request):
    ues = campaign(FULL_100K, quick_size=QUICK_SIZE)
    start = time.perf_counter()
    result = benchmark.pedantic(
        sharded_campaign,
        kwargs={"ues": ues, "shards": SHARDS, "jobs": jobs},
        rounds=1,
        iterations=1,
    )
    wall_s = time.perf_counter() - start
    report = record_report(result.report)
    benchmark.extra_info["host_wall_s"] = round(wall_s, 2)
    benchmark.extra_info["sharded_regs_per_s"] = round(ues / wall_s, 1)
    print()
    print(report.format())
    print(f"  host wall-clock: {wall_s:.2f}s ({ues / wall_s:.1f} regs/s)")

    if not request.config.getoption("--quick"):
        assert wall_s < MAX_WALL_S_100K, (
            f"100k-UE sharded campaign took {wall_s:.1f}s host wall-clock "
            f"(budget {MAX_WALL_S_100K:.0f}s)"
        )
