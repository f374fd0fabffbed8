"""What a registration leaves behind, and what a campaign never loads.

Host *memory* is judged by ``benchmarks/hostbench`` (``peak_rss_mb``,
``host.rss_kb_per_op``); this is the part of that judgement that needs no
particular host.  A million-UE campaign can only afford per-UE state that
is the subscriber itself (its UDR record, its AMF context, its latency
samples), so on a warmed testbed whose event ring is already full:

* the RNG service keeps no stream per UE — K/OPc and the ECIES
  ephemerals are drawn from streams owned by what draws from them;
* the AUSF keeps no authentication context of a confirmed UE;
* ``tracemalloc`` growth stays under :data:`BUDGET_BYTES` per
  registration (≈4.9 kB measured; 14.4 kB when three Mersenne states and
  an ``_AuthContext`` stayed behind per UE).

And in a fresh interpreter the CLI, a sharded campaign and an SLO
evaluation run without NumPy ever being imported: the package has no
hard dependency.

``python tests/integration/test_memory_budget.py`` prints the table, by
allocating source file.
"""

import gc
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from repro.experiments.harness import warmed_testbed
from repro.paka.deploy import IsolationMode

REGISTRATIONS = 200
BUDGET_BYTES = 8 * 1024
# Small enough that the event ring is full, i.e. at its steady state,
# well within the warm-up; the campaign cap (20 000 entries) takes ≈1 000
# registrations to get there and the footprint past that point is the same.
EVENT_LOG_CAPACITY = 1_000
WARMUP_REGISTRATIONS = 100

SRC = Path(__file__).resolve().parents[2] / "src"


def footprint(isolation: IsolationMode, registrations: int = REGISTRATIONS) -> dict:
    """Traced heap growth over ``registrations`` fresh subscribers."""
    testbed = warmed_testbed(
        isolation,
        seed=7,
        warmup_registrations=WARMUP_REGISTRATIONS,
        event_log_capacity=EVENT_LOG_CAPACITY,
    )
    streams = len(testbed.host.rng._streams)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for _ in range(registrations):
            ue = testbed.add_subscriber()
            assert testbed.register(ue, establish_session=False).success
        del ue
        gc.collect()
        growth = tracemalloc.take_snapshot().compare_to(before, "filename")
    finally:
        tracemalloc.stop()
    by_file: Counter = Counter()
    for stat in growth:
        path = Path(stat.traceback[0].filename)
        owner = path.relative_to(SRC) if SRC in path.parents else Path(path.name)
        by_file[str(owner)] += stat.size_diff
    return {
        "bytes_per_registration": sum(by_file.values()) / registrations,
        "rng_streams_added": len(testbed.host.rng._streams) - streams,
        "ausf_contexts": len(testbed.ausf._contexts),
        "by_file": {
            owner: round(size / registrations, 1)
            for owner, size in by_file.most_common()
            if size >= 32 * registrations
        },
    }


@pytest.mark.parametrize(
    "isolation", [IsolationMode.SGX, IsolationMode.CONTAINER], ids=["sgx", "container"]
)
def test_a_registration_leaves_only_the_subscriber_behind(isolation):
    row = footprint(isolation)
    assert row["rng_streams_added"] == 0
    assert row["ausf_contexts"] == 0
    assert row["bytes_per_registration"] <= BUDGET_BYTES, row["by_file"]


_CAMPAIGN = """
import json, sys
import repro.cli
from repro.experiments.harness import warmed_testbed
from repro.experiments.shard import sharded_campaign
from repro.obs.slo import SloEngine, default_slos
from repro.paka.deploy import IsolationMode

campaign = sharded_campaign(ues=6, shards=2, jobs=1, monitor_cadence_s=1.0)
assert campaign.report.derived["success_rate"] == 1.0
SloEngine(default_slos(warmed_testbed(IsolationMode.SGX, seed=7))).evaluate(campaign.tsdb)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "numpy")))
"""


def test_cli_campaign_and_slo_evaluation_never_import_numpy():
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        ),
    )
    out = subprocess.run(
        [sys.executable, "-c", _CAMPAIGN],
        env=env,
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    ).stdout
    assert json.loads(out) == []


if __name__ == "__main__":
    print(json.dumps({
        "sgx": footprint(IsolationMode.SGX),
        "container": footprint(IsolationMode.CONTAINER),
    }, indent=1))
