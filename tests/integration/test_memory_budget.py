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
  registration (≈2.9 kB measured on SGX, ≈3.8 kB on CONTAINER, either
  crypto backend; +1.2 kB when every latency sample was a boxed float
  behind a list slot, +9.5 kB when three Mersenne states and an
  ``_AuthContext`` stayed behind per UE);
* *observed* — what the 1M-UE campaign arms: a trace-context tracer
  feeding a ``TraceStore(cap=512, sample_every=8)`` and a 1 s scraper —
  a registration leaves at most :data:`OBSERVED_BUDGET_BYTES`, scrapes
  included (≈7.2 kB; was ≈30.7), and a kept trace costs what the tracer
  already built, at most :data:`KEPT_TREE_BUDGET_BYTES` more than a
  declined one (≈27 kB; ≈227 kB when a kept tree was snapshotted into
  dicts with every OCALL leaf built).

And in a fresh interpreter the CLI, a sharded campaign and an SLO
evaluation run without NumPy ever being imported: the package has no
hard dependency.

``python tests/integration/test_memory_budget.py`` prints the table, by
allocating source file.
"""

import functools
import gc
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from typing import Optional

import pytest

from repro.experiments.harness import warmed_testbed
from repro.obs.scrape import Scraper
from repro.obs.trace import TraceStore, Tracer
from repro.paka.deploy import IsolationMode

SEED = 7
REGISTRATIONS = 200
# Before CPython 3.11 every instance carried a dict of its own from
# birth; the same subscriber state weighs ≈20 % more there (CI runs 3.9).
BUDGET_BYTES = (4 if sys.version_info >= (3, 11) else 5) * 1024
OBSERVED_BUDGET_BYTES = 12 * 1024
KEPT_TREE_BUDGET_BYTES = 40 * 1024
CAMPAIGN_SAMPLE_EVERY = 8
DECLINE_HEALTHY = 1 << 32  # head-sample 1 in 2**32: the tail rules only
# Small enough that the event ring is full, i.e. at its steady state,
# well within the warm-up; the campaign cap (20 000 entries) takes ≈1 000
# registrations to get there and the footprint past that point is the same.
EVENT_LOG_CAPACITY = 1_000
WARMUP_REGISTRATIONS = 100

SRC = Path(__file__).resolve().parents[2] / "src"


@functools.lru_cache(maxsize=None)
def prime_key_memos() -> None:
    """Once per process: leave the bounded key memos as a campaign's
    steady state has them, as the capped event ring is left full.

    ``aes128_cipher`` and ``milenage_for`` keep 4 096 entries each,
    process-wide; until they are full every key new to them adds one
    (≈0.75 kB a registration on libcrypto, ≈2.1 kB with the pure-python
    key schedules), after that it replaces one.  A campaign is past that
    point after 4 096 UEs, and a reading taken before it depends on which
    keys earlier tests left behind.  Keys follow from ``(seed, msin)``,
    so one dry pass over the subscribers every :func:`footprint` call
    registers makes each of them a memo hit, whatever ran before.
    """
    warmed_testbed(
        IsolationMode.SGX,
        seed=SEED,
        warmup_registrations=WARMUP_REGISTRATIONS + REGISTRATIONS,
        event_log_capacity=EVENT_LOG_CAPACITY,
    )


def footprint(isolation: IsolationMode, sample_every: Optional[int] = None) -> dict:
    """Traced heap growth over :data:`REGISTRATIONS` fresh subscribers;
    with ``sample_every``, observed as a campaign observes them."""
    prime_key_memos()
    testbed = warmed_testbed(
        isolation,
        seed=SEED,
        warmup_registrations=WARMUP_REGISTRATIONS,
        event_log_capacity=EVENT_LOG_CAPACITY,
    )
    store = None
    if sample_every is not None:
        store = TraceStore(cap=512, sample_every=sample_every)
        testbed.host.tracer = Tracer(testbed.host.clock, trace_seed=SEED, store=store)
        Scraper.for_testbed(testbed, cadence_s=1.0).install(testbed.host)
    streams = len(testbed.host.rng._streams)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for _ in range(REGISTRATIONS):
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
        "bytes_per_registration": sum(by_file.values()) / REGISTRATIONS,
        "traces_kept": len(store) if store is not None else None,
        "rng_streams_added": len(testbed.host.rng._streams) - streams,
        "ausf_contexts": len(testbed.ausf._contexts),
        "by_file": {
            owner: round(size / REGISTRATIONS, 1)
            for owner, size in by_file.most_common()
            if size >= 32 * REGISTRATIONS
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


def kept_tree_bytes(observed: dict, declined: dict) -> float:
    """What one kept trace adds: the growth of a run whose store keeps
    them over that of the same run with a store that declines them, per
    tree kept (tracer, scraper and Tsdb cancel out)."""
    extra = observed["bytes_per_registration"] - declined["bytes_per_registration"]
    return extra * REGISTRATIONS / (observed["traces_kept"] - declined["traces_kept"])


def test_an_observed_registration_keeps_what_the_tracer_built():
    observed = footprint(IsolationMode.SGX, CAMPAIGN_SAMPLE_EVERY)
    declined = footprint(IsolationMode.SGX, DECLINE_HEALTHY)
    assert declined["traces_kept"] == 0
    assert observed["traces_kept"] >= REGISTRATIONS // 16  # 1 in 8, by id hash
    assert observed["rng_streams_added"] == 0
    assert observed["ausf_contexts"] == 0
    assert observed["bytes_per_registration"] <= OBSERVED_BUDGET_BYTES, observed["by_file"]
    assert kept_tree_bytes(observed, declined) <= KEPT_TREE_BUDGET_BYTES, observed["by_file"]


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
    table = {
        "sgx": footprint(IsolationMode.SGX),
        "container": footprint(IsolationMode.CONTAINER),
        "observed": footprint(IsolationMode.SGX, CAMPAIGN_SAMPLE_EVERY),
    }
    table["observed"]["bytes_per_kept_tree"] = round(
        kept_tree_bytes(
            table["observed"], footprint(IsolationMode.SGX, DECLINE_HEALTHY)
        ),
        1,
    )
    print(json.dumps(table, indent=1))
