"""E-CAP: mass-registration capacity at 1k and 10k UEs.

The simulated outputs (registrations per simulated second, transitions
per registration) are deterministic and recorded via ``record_report``
like every other benchmark.  The *host* wall-clock of the 10k arm — the
number the wire-speed hot-path work is accountable to — is printed,
recorded in ``benchmark.extra_info`` and budgeted at full scale.

Under ``--quick`` both arms shrink to 200 registrations: band checks
still run (the stable regime is scale-independent) but the results
files are not touched and the wall-clock budget is not judged.
"""

import time

from repro.experiments.capacity import capacity_campaign

FULL_10K = 10_000
FULL_1K = 1_000
QUICK_SIZE = 200

# The 10k arm must stay interactive on a developer machine; the seed
# baseline ran at ~69 regs/s (2.4 minutes for 10k).
MAX_WALL_S_10K = 60.0


def test_bench_capacity_1k(benchmark, campaign, record_report):
    ues = campaign(FULL_1K, quick_size=QUICK_SIZE)
    report = benchmark.pedantic(
        capacity_campaign, kwargs={"ues": ues}, rounds=1, iterations=1
    )
    record_report(report)
    print()
    print(report.format())


def test_bench_capacity_10k(benchmark, campaign, record_report, request):
    ues = campaign(FULL_10K, quick_size=QUICK_SIZE)
    start = time.perf_counter()
    report = benchmark.pedantic(
        capacity_campaign, kwargs={"ues": ues}, rounds=1, iterations=1
    )
    wall_s = time.perf_counter() - start
    record_report(report)
    benchmark.extra_info["host_wall_s"] = round(wall_s, 2)
    benchmark.extra_info["host_regs_per_s"] = round(ues / wall_s, 1)
    print()
    print(report.format())
    print(f"  host wall-clock: {wall_s:.2f}s ({ues / wall_s:.1f} regs/s)")

    if not request.config.getoption("--quick"):
        assert wall_s < MAX_WALL_S_10K, (
            f"10k-UE campaign took {wall_s:.1f}s host wall-clock "
            f"(budget {MAX_WALL_S_10K:.0f}s)"
        )
