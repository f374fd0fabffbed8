"""What a registration leaves behind, and what a campaign never loads.

Host *memory* is judged by ``benchmarks/hostbench`` (``peak_rss_mb``,
``host.rss_kb_per_op``); this is the part of that judgement that needs no
particular host.  A million-UE campaign can only afford per-UE state that
is the subscriber itself (its UDR record, its AMF context, its latency
samples), so on a warmed testbed whose key memos have turned over under
tracing (``tracemalloc`` sees a bounded structure's dropped entry freed
only if it saw it allocated):

* the RNG service keeps no stream per UE — K/OPc and the ECIES
  ephemerals are drawn from streams owned by what draws from them;
* the AUSF keeps no authentication context of a confirmed UE;
* the AMF keeps no SUCI, RAND, HXRES* or authCtxId of a registered UE;
* ``tracemalloc`` growth stays under :data:`BUDGET_BYTES` per
  registration (≈1.4 kB measured on SGX and on CONTAINER, either
  crypto backend; ≈2.8 / ≈2.5 kB with dict-backed AMF and UDR records,
  the challenge kept after it was answered and 4 096-entry key memos
  still filling; +1.2 kB when every latency sample was a boxed float
  behind a list slot, +9.5 kB when three Mersenne states and an
  ``_AuthContext`` stayed behind per UE);
* *observed* — what the 1M-UE campaign arms: a trace-context tracer
  feeding a ``TraceStore(cap=512, sample_every=8)`` and a 1 s scraper —
  a registration leaves at most :data:`OBSERVED_BUDGET_BYTES`, scrapes
  included (≈5.3 kB; ≈6.9 before, ≈30.7 long before), and a kept trace
  costs what the tracer already built, at most
  :data:`KEPT_TREE_BUDGET_BYTES` more than a declined one (≈20 kB;
  ≈28 kB while OCALL burst ends were lists of boxed ints, ≈227 kB when
  a kept tree was snapshotted into dicts with every OCALL leaf built).

And in a fresh interpreter the CLI, a single-process sharded campaign
and an SLO evaluation run without NumPy ever being imported (the
package has no hard dependency) and without the process pool
(``multiprocessing``, ``concurrent.futures``), which only a fan-out
imports.

``python tests/integration/test_memory_budget.py`` prints the table, by
allocating source file, with each row's ``ru_maxrss`` slope beside it
(kB per registration, native key contexts included, measured over a
campaign's first thousand UEs in a fresh interpreter: ≈1.3 SGX /
≈1.2 CONTAINER / ≈5.3 observed; ≈3.3 / ≈3.1 / ≈8.2 while the key memos
kept 4 096 entries).  Its ``import`` row is the base those slopes sit
on: the modules loaded and ``ru_maxrss`` of a fresh interpreter that has
imported ``repro.experiments.shard`` (243 modules, ≈29.8 MB on
CPython 3.11; 278 / ≈32.0 MB while the pool was imported with it).  It
has no budget: the megabytes depend on the host, and the test above pins
the module set.
"""

import gc
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from typing import Optional

import pytest

from repro.crypto.aes import aes128_cipher
from repro.experiments.harness import warmed_testbed
from repro.fivegc.amf import REGISTERED
from repro.obs.scrape import Scraper
from repro.obs.trace import TraceStore, Tracer
from repro.paka.deploy import IsolationMode

SEED = 7
REGISTRATIONS = 200
# The RSS slope needs more: the peak moves in steps of ≈0.1–0.5 MB.
RSS_REGISTRATIONS = 1_000
# Before CPython 3.11 every instance carried a dict of its own from
# birth; the same subscriber state weighs ≈20 % more there (CI runs 3.9).
BUDGET_BYTES = (2 if sys.version_info >= (3, 11) else 3) * 1024
OBSERVED_BUDGET_BYTES = 12 * 1024
KEPT_TREE_BUDGET_BYTES = 24 * 1024
CAMPAIGN_SAMPLE_EVERY = 8
DECLINE_HEALTHY = 1 << 32  # head-sample 1 in 2**32: the tail rules only
WARMUP_REGISTRATIONS = 100
KEY_MEMO_BOUND = aes128_cipher.cache_info().maxsize  # milenage_for's too

SRC = Path(__file__).resolve().parents[2] / "src"


def observed_testbed(isolation: IsolationMode, sample_every: Optional[int] = None):
    """A warmed testbed; with ``sample_every``, observed as a campaign
    observes it.  Returns it and its trace store."""
    testbed = warmed_testbed(isolation, seed=SEED, warmup_registrations=WARMUP_REGISTRATIONS)
    store = None
    if sample_every is not None:
        store = TraceStore(cap=512, sample_every=sample_every)
        testbed.host.tracer = Tracer(testbed.host.clock, trace_seed=SEED, store=store)
        Scraper.for_testbed(testbed, cadence_s=1.0).install(testbed.host)
    return testbed, store


def register_fresh(testbed, count: int) -> None:
    for _ in range(count):
        outcome = testbed.register(testbed.add_subscriber(), establish_session=False)
        assert outcome.success  # outside the call: ``python -O`` still registers


def prime_key_memos(testbed) -> None:
    """Bring the bounded structures to a campaign's steady state where
    ``tracemalloc`` sees it: with tracing on, register as many fresh
    subscribers as the key memos keep.

    ``aes128_cipher`` and ``milenage_for`` keep 256 entries each,
    process-wide; until they are full every key new to them adds one
    (≈0.3 kB of Python objects a registration on libcrypto, ≈2 kB with
    the pure-python key schedules, and on libcrypto the native cipher
    context ``tracemalloc`` does not see), after that it replaces one.
    ``tracemalloc`` only counts a dropped entry as freed if it saw it
    allocated, so after this pass every replacement reads as one,
    whatever ran before.
    """
    register_fresh(testbed, KEY_MEMO_BOUND)


def footprint(isolation: IsolationMode, sample_every: Optional[int] = None) -> dict:
    """Traced heap growth over :data:`REGISTRATIONS` fresh subscribers;
    with ``sample_every``, observed as a campaign observes them."""
    testbed, store = observed_testbed(isolation, sample_every)
    gc.collect()
    tracemalloc.start()
    try:
        prime_key_memos(testbed)
        streams = len(testbed.host.rng._streams)
        kept = store.kept_head + store.kept_tail if store is not None else None
        gc.collect()
        before = tracemalloc.take_snapshot()
        register_fresh(testbed, REGISTRATIONS)
        gc.collect()
        growth = tracemalloc.take_snapshot().compare_to(before, "filename")
    finally:
        tracemalloc.stop()
    by_file: Counter = Counter()
    for stat in growth:
        path = Path(stat.traceback[0].filename)
        owner = path.relative_to(SRC) if SRC in path.parents else Path(path.name)
        by_file[str(owner)] += stat.size_diff
    registered = [
        session for session in testbed.amf._sessions.values()
        if session.state == REGISTERED
    ]
    return {
        "bytes_per_registration": sum(by_file.values()) / REGISTRATIONS,
        "traces_kept": (
            store.kept_head + store.kept_tail - kept if store is not None else None
        ),
        "rng_streams_added": len(testbed.host.rng._streams) - streams,
        "ausf_contexts": len(testbed.ausf._contexts),
        "registered_sessions": len(registered),
        "sessions_holding_the_challenge": sum(
            1 for session in registered
            if session.identity or session.auth_ctx_id or session.rand
            or session.hxres_star
        ),
        "by_file": {
            owner: round(size / REGISTRATIONS, 1)
            for owner, size in by_file.most_common()
            if size >= 32 * REGISTRATIONS
        },
    }


def rss_kb_per_registration(isolation: IsolationMode, sample_every: Optional[int] = None) -> float:
    """``ru_maxrss`` growth per registration over :data:`RSS_REGISTRATIONS`
    fresh subscribers, untraced and with the key memos as a campaign's
    first thousand UEs find them: what the host pays, native key
    contexts included.  The peak is the process's, so this runs in a
    fresh interpreter and starts counting once the peak moves."""
    testbed, _ = observed_testbed(isolation, sample_every)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while resource.getrusage(resource.RUSAGE_SELF).ru_maxrss == peak:
        register_fresh(testbed, 1)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    register_fresh(testbed, RSS_REGISTRATIONS)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round((after - before) / RSS_REGISTRATIONS, 2)


@pytest.mark.parametrize(
    "isolation", [IsolationMode.SGX, IsolationMode.CONTAINER], ids=["sgx", "container"]
)
def test_a_registration_leaves_only_the_subscriber_behind(isolation):
    row = footprint(isolation)
    assert row["rng_streams_added"] == 0
    assert row["ausf_contexts"] == 0
    # A registered UE keeps no SUCI, RAND, HXRES* or authCtxId at the AMF.
    assert row["registered_sessions"] >= REGISTRATIONS
    assert row["sessions_holding_the_challenge"] == 0
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
from repro.crypto.aes import aes128_cipher
from repro.experiments.harness import warmed_testbed
from repro.fivegc.amf import REGISTERED
from repro.experiments.shard import sharded_campaign
from repro.obs.slo import SloEngine, default_slos
from repro.paka.deploy import IsolationMode

campaign = sharded_campaign(ues=6, shards=2, jobs=1, monitor_cadence_s=1.0)
assert campaign.report.derived["success_rate"] == 1.0
SloEngine(default_slos(warmed_testbed(IsolationMode.SGX, seed=7))).evaluate(campaign.tsdb)
print(json.dumps(sorted(
    m for m in sys.modules
    if m.split(".")[0] in ("numpy", "multiprocessing")
    or m.startswith("concurrent.futures")
)))
"""

# ``ru_maxrss`` counts the peak of the process an interpreter was forked
# from (Linux folds it in at exec), so the base footprint is read in a
# grandchild whose parent is a bare interpreter.
_LAUNCH = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"
_IMPORT = """
import json, resource, sys
import repro.experiments.shard
print(json.dumps({
    "modules": len(sys.modules),
    "ru_maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
}))
"""


def _run_child(*argv: str):
    """The JSON a fresh interpreter run with ``argv`` prints."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        ),
    )
    out = subprocess.run(
        [sys.executable, *argv],
        env=env,
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    ).stdout
    return json.loads(out)


def test_cli_campaign_and_slo_evaluation_import_neither_numpy_nor_the_process_pool():
    assert _run_child("-c", _CAMPAIGN) == []


ROWS = {
    "sgx": (IsolationMode.SGX, None),
    "container": (IsolationMode.CONTAINER, None),
    "observed": (IsolationMode.SGX, CAMPAIGN_SAMPLE_EVERY),
}


def _rss_row(name: str) -> float:
    """:func:`rss_kb_per_registration` of one row, in a child interpreter."""
    out = subprocess.run(
        [sys.executable, __file__, "--rss", name],
        check=True, capture_output=True, text=True, timeout=600,
    ).stdout
    return json.loads(out)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--rss"]:
        print(json.dumps(rss_kb_per_registration(*ROWS[sys.argv[2]])))
        sys.exit()
    # The children first: one starts from the peak of the process it was
    # forked from, which the footprints below would raise.
    rss = {name: _rss_row(name) for name in ROWS}
    table = {"import": _run_child("-c", _LAUNCH, sys.executable, "-c", _IMPORT)}
    table.update((name, footprint(*row)) for name, row in ROWS.items())
    for name in ROWS:
        table[name]["rss_kb_per_registration"] = rss[name]
    table["observed"]["bytes_per_kept_tree"] = round(
        kept_tree_bytes(
            table["observed"], footprint(IsolationMode.SGX, DECLINE_HEALTHY)
        ),
        1,
    )
    print(json.dumps(table, indent=1))
