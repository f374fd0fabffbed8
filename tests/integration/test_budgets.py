"""What one warmed registration costs and leaves behind, pinned: the
part of hostbench's judgement that needs no timer and no particular host.

* *Ops* — exact counts per registration of the crypto (seven SBI hops,
  each a request and a response record; the SUCI concealed at the UE and
  deconcealed at the UDM under a one-off ECIES key) and the simulator's
  bookkeeping (events, random streams, the tracer's deferred work).  A
  silent fall-back (a record keystream back on AES or derived before its
  tag, a window table rebuilt per call, a native context per message
  instead of per key, an unarmed OCALL replay building end offsets no
  tracer reads) fails on any machine.  The pure-python crypto runs in a
  child with ``REPRO_PURE_AES`` / ``REPRO_PURE_X25519`` set.
* *Memory* — ``tracemalloc`` growth per registration once the key memos
  have turned over under tracing, plain and observed as the 1M-UE
  campaign observes (a trace-context tracer feeding a
  ``TraceStore(cap=512, sample_every=8)`` and a 1 s scraper), with what a
  kept trace adds.
* *Imports* — a fresh interpreter running the CLI, a sharded campaign
  (one process or fanned over two) and an SLO evaluation loads neither
  NumPy nor the process pool.

What a registration leaves in the testbed's *state* (no per-UE random
stream, no challenge held by a registered session) is the invariant
kernel's, :func:`repro.sim.invariants.check`; every row runs it.

``python tests/integration/test_budgets.py ops`` prints the ops table of
this interpreter's crypto backend as JSON; ``... memory`` the memory
table by allocating source file, each row beside its ``ru_maxrss`` slope
in a fresh interpreter over a campaign's first thousand UEs (kB per
registration, native key contexts included: ≈1.3 SGX / ≈1.2 CONTAINER /
≈5.3 observed), under an unbudgeted ``import`` row: the modules and
``ru_maxrss`` of a fresh interpreter that imported
``repro.experiments.shard`` (244, ≈29.9 MB on CPython 3.11).
"""

import gc
import hmac
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from collections import Counter
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Optional
from unittest import mock

import pytest

from repro.crypto import aes, cmac, milenage, suci, tls
from repro.experiments.harness import warmed_testbed
from repro.fivegc.admission import AdmissionConfig, AdmissionController
from repro.fivegc.messages import AuthenticationReject, AuthenticationRequest
from repro.gramine import libos
from repro.obs import trace as trace_module
from repro.obs.scrape import Scraper
from repro.obs.trace import TraceStore, Tracer, _OcallBurst
from repro.paka.deploy import IsolationMode
from repro.sim import invariants
from repro.sim.rng import RngService

SRC = Path(__file__).resolve().parents[2] / "src"
SEED = 7

# ------------------------------------------------------------------ ops
#
# Crypto: seven SBI hops, each a request and a response record.
CRYPTO_BUDGET = {
    "tls_protect": 14,
    "tls_unprotect": 14,
    "tls_tags": 14 + 14,
    # Both pad blocks of a direction's MAC key were hashed at the handshake.
    "hmac_keyings_in_tls_records": 0,
    # One SHAKE-128 keystream per record and end, each receiver's only
    # once the record's tag has been computed.
    "record_keystreams": 14 + 14,
    "record_keystreams_before_tag": 0,
    # AES-CTR is the SUCI's alone: the UE's stream and the UDM's, which
    # computes its own.
    "ctr_calls": 2,
    "keystreams_computed": 2,
    "keystreams_computed_receiving": 1,
    "ecies_decrypts": 1,
    # The UDM's exchange against the ephemeral public key.
    "variable_base_mults": 1,
    "comb_tables_built": 0,
}
# What each backend adds, keyed by HAVE_HW_AES / HAVE_HW_X25519.  On
# libcrypto: key set-up once per key (counted incl. add_subscriber), one
# native call per job.
AES_BUDGET = {
    True: {
        # MILENAGE's K and the SUCI's ECIES key; K_NASint has no AES128.
        "aes128_objects": 2,
        "native_cipher_contexts": 2,
        "cmac_contexts_keyed": 1,
        "cmac_context_copies": 8,
    },
    False: {
        "aes128_objects": 3,  # ... and K_NASint, for the CBC chain
        # The MSIN's CTR block at each end, MILENAGE, CMAC.
        "aes_block_kernel_calls": 34,
    },
}
X25519_BUDGET = {
    True: {
        # The ephemeral key object: its public key is read off it, then it
        # is exchanged against the home-network key (the one fixed-base
        # mult); with the UDM's that is two exchanges.
        "from_private_bytes": 1,
        "exchanges": 2,
        "fixed_base_mults": 1,
    },
    False: {
        # Ephemeral public key (base 9) and the exchange against the
        # home-network key on the window table; the UDM's on the ladder.
        "fixed_base_mults": 2,
        "comb_mults": 2,
        "ladder_mults": 1,
    },
}
# Bookkeeping: 14 frames and 7 sbi.request events; on SGX the hops
# replay compiled syscall profiles 9 times, 261 OCALLs.  Only a tracer
# reads an OCALL's end offset, so an unarmed replay builds no array of
# them.  A fresh subscriber's registration seeds exactly three streams
# (K, OPc, the UE's ECIES ephemerals), and the kernel sees that none is
# kept.
SGX_BUDGET = {"events": 282, "end_offset_arrays": 0, "rng_streams_seeded": 3}
CONTAINER_BUDGET = dict(SGX_BUDGET, events=21)
# What the tracer adds, armed with a store that keeps the tree (1 in 1):
# an end-offset array per replay, and a span id hashed only where a
# ``traceparent`` is minted (7 SBI requests); no ``Span`` is built from
# a burst until the tree is dumped.  A dump reads ``children`` like any
# reader: it builds the 261 leaves into spans and hashes 587 ids (294
# span ids, 293 parent ids).
KEPT_BUDGET = {
    "end_offset_arrays": 9,
    "span_ids_hashed": 7,
    "spans_built_from_bursts": 0,
    "traces_kept": 1,
    "span_ids_hashed_by_a_dump": 587,
    "spans_built_from_bursts_by_a_dump": 261,
}
# ... or with one that declines it.
DECLINED_BUDGET = dict(
    KEPT_BUDGET, traces_kept=0, span_ids_hashed_by_a_dump=0, spans_built_from_bursts_by_a_dump=0
)
#: Each row of the ops table: the testbed, the store a tracer is armed
#: with (``sample_every``; ``None`` unarmed) and the bookkeeping budget.
OPS = {
    "sgx": (IsolationMode.SGX, None, SGX_BUDGET),
    "sgx-armed": (IsolationMode.SGX, 1, dict(SGX_BUDGET, **KEPT_BUDGET)),
    "sgx-armed-declined": (IsolationMode.SGX, 2**32, dict(SGX_BUDGET, **DECLINED_BUDGET)),
    "container": (IsolationMode.CONTAINER, None, CONTAINER_BUDGET),
}
_TRACER_COUNTS = ("span_ids_hashed", "spans_built_from_bursts")
IN_RECORD = {"tls_protect", "tls_unprotect"}
RECEIVING = {"tls_unprotect", "ecies_decrypts"}


def ops_budget(row: str, hw_aes: bool, hw_x25519: bool) -> dict:
    """Row ``row``'s whole per-registration budget on a crypto backend."""
    return {
        **CRYPTO_BUDGET, **AES_BUDGET[hw_aes], **X25519_BUDGET[hw_x25519],
        **OPS[row][2], "violations": [],
    }


class _Counting:
    """Forwards to a native object, counting the calls named in ``keys``
    (attribute → budget key).  libcrypto's types cannot be patched, so
    their instances are wrapped where ``repro`` builds them."""

    def __init__(self, real, counts, keys):
        self._real, self._counts, self._keys = real, counts, keys

    def __getattr__(self, name):
        if name in self._keys:
            self._counts[self._keys[name]] += 1
        return getattr(self._real, name)


@contextmanager
def counting(counts: Counter):
    """Count the ops of everything run inside into ``counts``."""
    open_calls: list = []  # keys of the counted calls now on the stack

    def counted(owner, name, key, inside=None, weight=None):
        """Count calls of ``owner.name`` under ``key`` (``weight(*args)``
        each, else 1) — with ``inside``, only those made while a call
        counted under one of those keys is open."""
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            if inside is None or not inside.isdisjoint(open_calls):
                counts[key] += 1 if weight is None else weight(*args)
            open_calls.append(key)
            try:
                return real(*args, **kwargs)
            finally:
                open_calls.pop()

        if isinstance(owner.__dict__[name], staticmethod):
            wrapper = staticmethod(wrapper)
        return mock.patch.object(owner, name, wrapper)

    def keyed_cmac(algorithm, real=getattr(cmac, "_HwCMAC", None)):
        counts["cmac_contexts_keyed"] += 1
        return _Counting(real(algorithm), counts, {"copy": "cmac_context_copies"})

    class PrivateKeys:
        real = suci._HwX25519PrivateKey

        @classmethod
        def from_private_bytes(cls, scalar):
            counts["from_private_bytes"] += 1
            key = cls.real.from_private_bytes(scalar)
            return _Counting(key, counts, {"exchange": "exchanges"})

    rows = [
        (aes, "_encrypt_int", "aes_block_kernel_calls"),
        (aes.AES128, "__init__", "aes128_objects"),
        (aes.AES128, "ctr", "ctr_calls"),
        (suci, "_x25519_fixed_base", "fixed_base_mults"),
        (suci, "_x25519_comb", "comb_mults"),
        (suci, "_x25519_ladder", "ladder_mults"),
        (suci, "x25519", "x25519_calls"),
        (suci.EciesProfileA, "decrypt", "ecies_decrypts"),
        (tls.TlsSession, "protect", "tls_protect"),
        (tls.TlsSession, "unprotect", "tls_unprotect"),
        (tls.TlsSession, "_tag", "tls_tags"),
        (tls, "_keystream_xor", "record_keystreams"),
        (libos, "array", "end_offset_arrays"),
        (RngService, "fresh_stream", "rng_streams_seeded"),
        (trace_module, "span_context_id", "span_ids_hashed"),
        (_OcallBurst, "expand_under", "spans_built_from_bursts",
         None, lambda burst, *args: len(burst.templates)),
    ]
    # The two places a block-aligned keystream is produced.
    for name in ("_keystream_int", "_counter_blocks"):
        rows.append((aes.AES128, name, "keystreams_computed"))
        rows.append((aes.AES128, name, "keystreams_computed_receiving", RECEIVING))
    # An HMAC keyed from scratch while a record is being (un)protected.
    for owner, name in ((hmac, "digest"), (hmac, "new"), (tls, "_hmac_pads")):
        rows.append((owner, name, "hmac_keyings_in_tls_records", IN_RECORD))
    # Native objects kept from before the patches are not counting ones,
    # and a cipher or MILENAGE instance an earlier same-seed test left
    # behind would not be constructed here at all.
    memos = [
        suci._hw_private_key, suci._ecies_cipher, aes.aes128_cipher,
        milenage.milenage_for, cmac._generate_subkeys,
    ]
    if aes.HAVE_HW_AES:
        rows.append((aes, "_HwCipher", "native_cipher_contexts"))
        memos.append(cmac._hw_cmac)

    with ExitStack() as stack:
        for memo in memos:
            memo.cache_clear()
            stack.callback(memo.cache_clear)
        for row in rows:  # one at a time: a second count wraps the first
            stack.enter_context(counted(*row))
        if aes.HAVE_HW_AES:
            stack.enter_context(mock.patch.object(cmac, "_HwCMAC", keyed_cmac))
        if suci.HAVE_HW_X25519:
            stack.enter_context(
                mock.patch.object(suci, "_HwX25519PrivateKey", PrivateKeys)
            )
        stack.enter_context(keystreams_before_tags(counts))
        yield


@contextmanager
def keystreams_before_tags(counts: Counter):
    """Count the record keystreams an ``unprotect`` derives before it has
    computed the record's tag."""
    tagged: list = []  # one flag per open unprotect: is its tag computed?
    unprotect, tag = tls.TlsSession.unprotect, tls.TlsSession._tag
    keystream_xor = tls._keystream_xor

    def unprotecting(self, record):
        tagged.append(False)
        try:
            return unprotect(self, record)
        finally:
            tagged.pop()

    def tagging(self, *args):
        if tagged:
            tagged[-1] = True
        return tag(self, *args)

    def deriving(*args):
        counts["record_keystreams_before_tag"] += bool(tagged) and not tagged[-1]
        return keystream_xor(*args)

    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(tls.TlsSession, "unprotect", unprotecting))
        stack.enter_context(mock.patch.object(tls.TlsSession, "_tag", tagging))
        stack.enter_context(mock.patch.object(tls, "_keystream_xor", deriving))
        yield


def count_ops(row: str, registrations: int = 2) -> list:
    """Per-registration counts of ops table row ``row``, with what the
    kernel finds over each registration's window."""
    isolation, sample_every, _ = OPS[row]
    counts: Counter = Counter()
    results = []
    with counting(counts):
        testbed = warmed_testbed(isolation, seed=SEED)
        host = testbed.host
        if sample_every is not None:
            store = TraceStore(sample_every=sample_every)
            host.tracer = Tracer(host.clock, trace_seed=SEED, store=store)
        for _ in range(registrations):
            counts.clear()
            tables_before = suci._comb_table.cache_info().misses
            ue = testbed.add_subscriber()
            events_before, since = len(host.events), invariants.baseline(testbed)
            assert testbed.register(ue, establish_session=False).success
            counts["events"] = len(host.events) - events_before
            counts["comb_tables_built"] = suci._comb_table.cache_info().misses - tables_before
            # With libcrypto the fixed-base entry point forwards to x25519().
            forwarded = counts["fixed_base_mults"] if suci.HAVE_HW_X25519 else 0
            counts["variable_base_mults"] = counts.pop("x25519_calls") - forwarded
            if sample_every is not None:
                counts["traces_kept"] = len(store)
            result = {key: counts[key] for key in sorted(counts)}
            result["violations"] = invariants.check(testbed, since)
            if sample_every is not None:
                # Only now is the store read: the kept tree is dumped.
                for trace_id in store.trace_ids():
                    store.get(trace_id)
                for key in _TRACER_COUNTS:
                    result[f"{key}_by_a_dump"] = counts[key] - result.get(key, 0)
                store.records.clear()
            results.append(result)
    return results


@pytest.fixture(scope="module", params=list(OPS))
def ops_row(request):
    """An ops table row's name, budget on this backend and counts."""
    row = request.param
    budget = ops_budget(row, aes.HAVE_HW_AES, suci.HAVE_HW_X25519)
    # Block-kernel calls are left to the child below: in a shared test
    # process they depend on what earlier tests left in MILENAGE's caches.
    budget.pop("aes_block_kernel_calls", None)
    return row, budget, count_ops(row)


def assert_pinned(budget: dict, runs: list, keys) -> None:
    budget = {key: budget[key] for key in keys if key in budget}
    for counts in runs:
        assert {key: counts.get(key, 0) for key in budget} == budget


def test_registration_crypto_is_pinned(ops_row):
    row, budget, runs = ops_row
    assert_pinned(budget, runs, set(budget) - set(OPS[row][2]) - {"violations"})


def test_registration_bookkeeping_is_pinned(ops_row):
    row, budget, runs = ops_row
    assert_pinned(budget, runs, [*OPS[row][2], "violations"])


def test_registration_ops_are_pinned_on_the_pure_backend():
    table = _child(__file__, "ops", REPRO_PURE_AES="1", REPRO_PURE_X25519="1")
    for row, runs in table.items():
        budget = ops_budget(row, False, False)
        assert [{key: counts.get(key, 0) for key in budget} for counts in runs] == [
            budget, budget,
        ]


#: What an initial registration the AMF sheds at its front door costs:
#: its SUCI is never read, so it is never concealed.
SHED_BUDGET = {
    "fixed_base_mults": 0,
    "comb_mults": 0,
    "ladder_mults": 0,
    "x25519_calls": 0,
    "from_private_bytes": 0,
    "aes128_objects": 0,
    "keystreams_computed": 0,
}


def test_a_shed_registration_costs_no_crypto():
    counts: Counter = Counter()
    with counting(counts):
        testbed = warmed_testbed(IsolationMode.SGX, seed=SEED)
        testbed.amf.admission = AdmissionController(
            AdmissionConfig(bucket_rate_per_s=1.0, bucket_burst=1.0)
        )
        admitted, shed = testbed.add_subscriber(), testbed.add_subscriber()
        counts.clear()
        reply = testbed.amf.handle_nas(
            admitted.name, admitted.build_registration_request(), via="gnb-atk-0"
        )
        assert isinstance(reply, AuthenticationRequest)
        # The admitted one is concealed (UE) and deconcealed (UDM).
        assert counts["fixed_base_mults"] >= 1 and counts["ecies_decrypts"] == 1
        counts.clear()
        reply = testbed.amf.handle_nas(
            shed.name, shed.build_registration_request(), via="gnb-atk-0"
        )
    assert isinstance(reply, AuthenticationReject)
    assert reply.cause.startswith("congestion:")
    assert {key: counts[key] for key in SHED_BUDGET} == SHED_BUDGET


# --------------------------------------------------------------- memory
#
# ≈1.4 kB measured on SGX and on CONTAINER, either crypto backend.
# Before CPython 3.11 every instance carried a dict of its own from
# birth; the same state weighs ≈20 % more there (CI runs 3.9).
BUDGET_BYTES = (2 if sys.version_info >= (3, 11) else 3) * 1024
# Observed, scrapes included: ≈5.3 kB.
OBSERVED_BUDGET_BYTES = 12 * 1024
# A kept trace costs what the tracer already built: ≈20 kB.
KEPT_TREE_BUDGET_BYTES = 24 * 1024
REGISTRATIONS = 200
# The RSS slope needs more: the peak moves in steps of ≈0.1–0.5 MB.
RSS_REGISTRATIONS = 1_000
CAMPAIGN_SAMPLE_EVERY = 8
DECLINE_HEALTHY = 1 << 32  # head-sample 1 in 2**32: the tail rules only
WARMUP_REGISTRATIONS = 98  # on top of warmed_testbed's two: 100 in all
KEY_MEMO_BOUND = aes.aes128_cipher.cache_info().maxsize  # milenage_for's too
#: Each row of the memory table: the testbed and, observed, the store's
#: ``sample_every``.
MEMORY = {
    "sgx": (IsolationMode.SGX, None),
    "container": (IsolationMode.CONTAINER, None),
    "observed": (IsolationMode.SGX, CAMPAIGN_SAMPLE_EVERY),
}


def observed_testbed(isolation: IsolationMode, sample_every: Optional[int] = None):
    """A warmed testbed; with ``sample_every``, observed as a campaign
    observes it.  Returns it and its trace store."""
    testbed = warmed_testbed(isolation, seed=SEED)
    register_fresh(testbed, WARMUP_REGISTRATIONS)
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


def footprint(isolation: IsolationMode, sample_every: Optional[int] = None) -> dict:
    """Traced heap growth over :data:`REGISTRATIONS` fresh subscribers;
    with ``sample_every``, observed as a campaign observes them.

    ``aes128_cipher`` and ``milenage_for`` keep 256 entries each,
    process-wide: a new key adds one (≈0.3 kB on libcrypto, ≈2 kB pure)
    until they are full, then replaces one.  ``tracemalloc`` counts a
    dropped entry freed only if it saw it allocated, so that many fresh
    subscribers register under tracing first, whatever ran before.
    """
    testbed, store = observed_testbed(isolation, sample_every)
    gc.collect()
    tracemalloc.start()
    try:
        register_fresh(testbed, KEY_MEMO_BOUND)
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
    return {
        "bytes_per_registration": sum(by_file.values()) / REGISTRATIONS,
        "traces_kept": (
            store.kept_head + store.kept_tail - kept if store is not None else None
        ),
        "registered_sessions": testbed.amf.registered_count(),
        "violations": invariants.check(testbed),
        "by_file": {
            owner: round(size / REGISTRATIONS, 1)
            for owner, size in by_file.most_common()
            if size >= 32 * REGISTRATIONS
        },
    }


def rss_kb_per_registration(isolation: IsolationMode, sample_every: Optional[int] = None) -> float:
    """``ru_maxrss`` growth per registration over :data:`RSS_REGISTRATIONS`
    fresh subscribers, with the key memos as a campaign's first thousand
    UEs find them: what the host pays, native key contexts included.
    The peak is the process's, so this runs in a fresh interpreter and
    starts counting once the peak moves."""
    testbed, _ = observed_testbed(isolation, sample_every)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while resource.getrusage(resource.RUSAGE_SELF).ru_maxrss == peak:
        register_fresh(testbed, 1)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    register_fresh(testbed, RSS_REGISTRATIONS)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round((after - before) / RSS_REGISTRATIONS, 2)


def kept_tree_bytes(observed: dict, declined: dict) -> float:
    """What one kept trace adds: the growth of a run whose store keeps
    them over that of the same run with a store that declines them, per
    tree kept (tracer, scraper and Tsdb cancel out)."""
    extra = observed["bytes_per_registration"] - declined["bytes_per_registration"]
    return extra * REGISTRATIONS / (observed["traces_kept"] - declined["traces_kept"])


@pytest.mark.parametrize("row", ["sgx", "container"])
def test_a_registration_leaves_only_the_subscriber_behind(row):
    footprint_row = footprint(*MEMORY[row])
    assert footprint_row["violations"] == []
    assert footprint_row["registered_sessions"] >= REGISTRATIONS
    assert footprint_row["bytes_per_registration"] <= BUDGET_BYTES, footprint_row["by_file"]


def test_an_observed_registration_keeps_what_the_tracer_built():
    observed = footprint(*MEMORY["observed"])
    declined = footprint(IsolationMode.SGX, DECLINE_HEALTHY)
    assert declined["traces_kept"] == 0
    assert observed["traces_kept"] >= REGISTRATIONS // 16  # 1 in 8, by id hash
    assert observed["violations"] == []
    assert observed["bytes_per_registration"] <= OBSERVED_BUDGET_BYTES, observed["by_file"]
    assert kept_tree_bytes(observed, declined) <= KEPT_TREE_BUDGET_BYTES, observed["by_file"]


# -------------------------------------------------------------- imports

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
"""
# ``jobs=2`` forks a child and pipes it claims: no pool, no
# ``multiprocessing``.
_FANNED = """
import json, sys
from repro.experiments.shard import sharded_campaign

campaign = sharded_campaign(ues=6, shards=2, jobs=2)
assert campaign.report.derived["success_rate"] == 1.0
"""
#: Appended to a script: the NumPy and process-pool modules it loaded.
_LOADED = """
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


def _child(*argv: str, **env: str):
    """The JSON a fresh interpreter run with ``argv`` (and ``env`` on top
    of this one's) prints."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return json.loads(subprocess.run(
        [sys.executable, *argv], env=dict(os.environ, PYTHONPATH=path, **env),
        check=True, capture_output=True, text=True, timeout=600,
    ).stdout)


@pytest.mark.parametrize("script", [_CAMPAIGN, _FANNED], ids=["cli-campaign-slo", "fanned"])
def test_imports_neither_numpy_nor_the_process_pool(script):
    assert _child("-c", script + _LOADED) == []


def memory_table() -> dict:
    # The children first: one starts from the peak of the process it was
    # forked from, which the footprints below would raise.
    rss = {name: _child(__file__, "rss", name) for name in MEMORY}
    table = {"import": _child("-c", _LAUNCH, sys.executable, "-c", _IMPORT)}
    table.update((name, footprint(*row)) for name, row in MEMORY.items())
    for name in MEMORY:
        table[name]["rss_kb_per_registration"] = rss[name]
    table["observed"]["bytes_per_kept_tree"] = round(
        kept_tree_bytes(
            table["observed"], footprint(IsolationMode.SGX, DECLINE_HEALTHY)
        ),
        1,
    )
    return table


if __name__ == "__main__":
    table, *args = sys.argv[1:]
    if table == "ops":
        print(json.dumps({row: count_ops(row) for row in OPS}, indent=1))
    elif table == "rss":
        print(json.dumps(rss_kb_per_registration(*MEMORY[args[0]])))
    else:
        print(json.dumps(memory_table(), indent=1))
