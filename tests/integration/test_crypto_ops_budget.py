"""Crypto ops budget of one warmed SGX registration, pinned as equalities.

Host time is judged by ``benchmarks/hostbench``; this is the part of that
judgement that needs no timer.  The counts below are exact and
host-independent, so a silent fall-back — a receiver recomputing the
keystream its sender just produced, a fixed-base scalar multiplication
back on the ladder, a window table rebuilt per call, a native context
built per message instead of per key — fails tier-1 on any machine.

``python tests/integration/test_crypto_ops_budget.py`` prints the counts
of the interpreter's own backend as JSON; the pure-python budget is
checked through exactly that, in a child with ``REPRO_PURE_AES`` /
``REPRO_PURE_X25519`` set, so it holds whether or not libcrypto is
installed.
"""

import hmac
import json
import os
import subprocess
import sys
from collections import Counter
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

from repro.crypto import aes, cmac, milenage, suci, tls
from repro.experiments.harness import warmed_testbed
from repro.paka.deploy import IsolationMode

# Seven SBI hops, each a request and a response record; the SUCI is
# concealed once (UE) and deconcealed once (UDM) under a one-off ECIES key.
BUDGET = {
    "tls_protect": 14,
    "tls_unprotect": 14,
    "tls_tags": 14 + 14,
    # Both pad blocks of a direction's MAC key were hashed at the handshake.
    "hmac_keyings_in_tls_records": 0,
    "ctr_calls": 14 + 14 + 2,
    # One per record and one per SUCI: every receiver — unprotect, and the
    # UDM's ECIES decrypt — reuses the stream its sender computed.
    "keystreams_computed": 14 + 1,
    "keystreams_computed_receiving": 0,
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
        # CTR blocks over the 14 records and the one MSIN stream,
        # MILENAGE, CMAC.
        "aes_block_kernel_calls": 229,
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
PURE_BUDGET = {**BUDGET, **AES_BUDGET[False], **X25519_BUDGET[False]}

IN_RECORD = {"tls_protect", "tls_unprotect"}
RECEIVING = {"tls_unprotect", "ecies_decrypts"}


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


def count_ops(registrations: int = 2) -> list:
    """Per-registration crypto op counts on a warmed SGX testbed."""
    counts: Counter = Counter()
    open_calls: list = []  # keys of the counted calls now on the stack

    def counted(owner, name, key, inside=None):
        """Count calls of ``owner.name`` under ``key`` — with ``inside``,
        only those made while a call counted under one of those keys is
        open."""
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key] += inside is None or not inside.isdisjoint(open_calls)
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
    memos = [suci._hw_private_key, aes.aes128_cipher, milenage.milenage_for]
    if aes.HAVE_HW_AES:
        rows.append((aes, "_HwCipher", "native_cipher_contexts"))
        memos.append(cmac._hw_cmac)

    results = []
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
        testbed = warmed_testbed(IsolationMode.SGX, seed=7)
        for _ in range(registrations):
            counts.clear()
            tables_before = suci._comb_table.cache_info().misses
            ue = testbed.add_subscriber()
            assert testbed.register(ue, establish_session=False).success
            counts["comb_tables_built"] = (
                suci._comb_table.cache_info().misses - tables_before
            )
            # With libcrypto the fixed-base entry point forwards to x25519().
            forwarded = counts["fixed_base_mults"] if suci.HAVE_HW_X25519 else 0
            counts["variable_base_mults"] = counts.pop("x25519_calls") - forwarded
            assert counts.pop("ecies_decrypts") == 1
            results.append({key: counts[key] for key in sorted(counts)})
    return results


def test_registration_crypto_budget_on_this_backend():
    budget = {
        **BUDGET,
        **AES_BUDGET[aes.HAVE_HW_AES],
        **X25519_BUDGET[suci.HAVE_HW_X25519],
    }
    # Block-kernel calls are left to the child below: in a shared test
    # process they depend on what earlier tests left in MILENAGE's caches.
    budget.pop("aes_block_kernel_calls", None)
    for counts in count_ops():
        assert {key: counts.get(key, 0) for key in budget} == budget


def test_registration_crypto_budget_on_the_pure_backend():
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(
        os.environ,
        REPRO_PURE_AES="1",
        REPRO_PURE_X25519="1",
        PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])
        ),
    )
    out = subprocess.run(
        [sys.executable, __file__],
        env=env,
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    ).stdout
    assert json.loads(out) == [PURE_BUDGET, PURE_BUDGET]


if __name__ == "__main__":
    print(json.dumps(count_ops()))
