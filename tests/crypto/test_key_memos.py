"""The per-key memos are sized by their traffic, not by the campaign.

``aes128_cipher`` and ``milenage_for`` keep 256 entries each.  A
registration brings its new keys (MILENAGE's K; K_NASenc once a PDU
session is ciphered) and reuses each of them within that registration;
returning and botnet subscribers recur long before 256 other keys have
come and gone.  So every key a bounded memo is asked for is a miss
exactly once, as an unbounded memo would make it, while the entries it
does not keep are what held ≈1 kB of native cipher context per
subscriber that ``tracemalloc`` cannot see.

Both workloads start from memos already full of keys nobody asks for
again — a long campaign's steady state — and every ask is recorded, so
the bounded memos' misses and hits are compared with those of an
unbounded one over the same asks.  The module runs on whichever crypto
backend the interpreter has (CI runs it on both).
"""

import gc
from contextlib import ExitStack, contextmanager
from unittest import mock

from repro import aka
from repro.crypto import aes, cmac, milenage, nea, suci
from repro.crypto.aes import AES128
from repro.experiments.harness import warmed_testbed
from repro.experiments.survivability import run_storm_arm
from repro.paka.deploy import IsolationMode
from repro.ran import usim

MEMOS = {"aes128_cipher": aes.aes128_cipher, "milenage_for": milenage.milenage_for}
# Every module that asks a memo, by the name it imported it under.
ASKERS = {"aes128_cipher": (milenage, nea, cmac), "milenage_for": (aka, usim)}
BOUND = 256
SEED = 7
# More new keys than either memo keeps: 300 K and 300 K_NASenc.
ATTACH_REGISTRATIONS = 300


def _fill() -> None:
    """Fill both memos to their bound with keys no workload asks for (a
    MILENAGE instance asks ``aes128_cipher`` for its K)."""
    for index in range(BOUND):
        key = b"\xa5" * 12 + index.to_bytes(4, "big")
        milenage.milenage_for(key, key)


@contextmanager
def traffic():
    """Yield ``{memo: {"bounded": (misses, hits), "unbounded": (…)}}``,
    filled in on exit: the memo's own counts, and those an unbounded memo
    asked the same keys would have made."""
    for memo in MEMOS.values():
        memo.cache_clear()
    _fill()
    asked = {name: [] for name in MEMOS}
    before = {name: memo.cache_info() for name, memo in MEMOS.items()}

    def recording(name):
        memo = MEMOS[name]

        def ask(*key):
            asked[name].append(key)
            return memo(*key)

        return ask

    counts = {}
    with ExitStack() as stack:
        for name, modules in ASKERS.items():
            for module in modules:
                stack.enter_context(mock.patch.object(module, name, recording(name)))
        yield counts
    for name, memo in MEMOS.items():
        info = memo.cache_info()
        misses = info.misses - before[name].misses
        hits = info.hits - before[name].hits
        keys = asked[name]
        assert misses + hits == len(keys), f"{name} is asked outside {ASKERS[name]}"
        counts[name] = {
            "bounded": (misses, hits),
            "unbounded": (len(set(keys)), len(keys) - len(set(keys))),
        }


def test_the_bound_is_the_declared_one():
    assert {memo.cache_info().maxsize for memo in MEMOS.values()} == {BOUND}


def test_an_attach_loop_misses_each_key_once():
    testbed = warmed_testbed(IsolationMode.SGX, seed=SEED)
    with traffic() as counts:
        for _ in range(ATTACH_REGISTRATIONS):
            outcome = testbed.register(testbed.add_subscriber())
            assert outcome.success
    for name, row in counts.items():
        assert row["bounded"] == row["unbounded"], name
    # Each registration's keys are new, and enough of them to wrap both memos.
    assert counts["milenage_for"]["bounded"][0] == ATTACH_REGISTRATIONS
    assert counts["aes128_cipher"]["bounded"][0] >= 2 * ATTACH_REGISTRATIONS


def test_returning_and_botnet_subscribers_recur_inside_the_bound():
    with traffic() as counts:
        row, _ = run_storm_arm(
            "governed", attack_rate_per_s=100.0, legit=32, horizon_s=2.0, seed=SEED
        )
    assert row["attack_outcomes"]["botnet-register"]
    for name, row in counts.items():
        assert row["bounded"] == row["unbounded"], name
    # A returning subscriber is a hit on ``milenage_for``, whose instance
    # holds its K's cipher, so it never asks ``aes128_cipher`` again.
    assert counts["milenage_for"]["bounded"][1], "no subscriber came back"


def test_live_ciphers_stop_growing_once_the_memos_are_full():
    """The native contexts a campaign holds are the memos', not one per
    subscriber registered (a TLS session holds no cipher object)."""
    testbed = warmed_testbed(IsolationMode.SGX, seed=SEED)

    def live_ciphers():
        for _ in range(BOUND):
            outcome = testbed.register(testbed.add_subscriber())
            assert outcome.success
        gc.collect()
        return sum(isinstance(o, AES128) for o in gc.get_objects())

    first = live_ciphers()
    second = live_ciphers()
    assert second == first
    # MILENAGE instances hold the cipher of their K, which the AES memo
    # may have dropped already; the SUCI's ECIES ciphers have their own memo.
    kept = 2 * BOUND + suci._ecies_cipher.cache_info().maxsize
    assert second <= kept
