"""Crypto ops budget of one warmed SGX registration, pinned as equalities.

Host time is judged by ``benchmarks/hostbench``; this is the part of that
judgement that needs no timer.  The counts below are exact and
host-independent, so a silent fall-back — a receiver recomputing the
keystream its sender just produced, a fixed-base scalar multiplication
back on the ladder, a window table rebuilt per call — fails tier-1 on any
machine.

``python tests/integration/test_crypto_ops_budget.py`` prints the counts
of the interpreter's own backend as JSON; the pure-python budget is
checked through exactly that, in a child with ``REPRO_PURE_AES`` /
``REPRO_PURE_X25519`` set, so it holds whether or not libcrypto is
installed.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

from repro.crypto import aes, suci, tls
from repro.experiments.harness import warmed_testbed
from repro.paka.deploy import IsolationMode

# Seven SBI hops, each a request and a response record; the SUCI is
# concealed once (UE) and deconcealed once (UDM) under a one-off ECIES key.
BUDGET = {
    "tls_protect": 14,
    "tls_unprotect": 14,
    "ctr_calls": 14 + 14 + 2,
    # One per record and one per ECIES end: every unprotect reuses the
    # stream its sender computed (half the TLS ctr() calls compute none).
    "keystreams_computed": 14 + 2,
    "keystreams_computed_in_unprotect": 0,
    # Ephemeral public key (base 9) and the exchange against the
    # home-network key; the UDM's exchange against the ephemeral key.
    "fixed_base_mults": 2,
    "variable_base_mults": 1,
    "comb_tables_built": 0,
}
PURE_BUDGET = dict(
    BUDGET,
    comb_mults=2,
    ladder_mults=1,
    # CTR blocks over the 14 records and 2 MSINs, MILENAGE, CMAC.
    aes_block_kernel_calls=230,
)


def count_ops(registrations: int = 2) -> list:
    """Per-registration crypto op counts on a warmed SGX testbed."""
    testbed = warmed_testbed(IsolationMode.SGX, seed=7)
    counts: Counter = Counter()

    def counted(owner, name, key):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        if isinstance(owner.__dict__[name], staticmethod):
            wrapper = staticmethod(wrapper)
        return mock.patch.object(owner, name, wrapper)

    real_unprotect = tls.TlsSession.unprotect

    def unprotect(session, record):
        before = counts["keystreams_computed"]
        plaintext = real_unprotect(session, record)
        counts["tls_unprotect"] += 1
        counts["keystreams_computed_in_unprotect"] += (
            counts["keystreams_computed"] - before
        )
        return plaintext

    results = []
    with ExitStack() as stack:
        for owner, name, key in (
            (aes, "_encrypt_int", "aes_block_kernel_calls"),
            (aes.AES128, "ctr", "ctr_calls"),
            # The two places a block-aligned keystream is produced.
            (aes.AES128, "_keystream_int", "keystreams_computed"),
            (aes.AES128, "_counter_blocks", "keystreams_computed"),
            (suci, "_x25519_fixed_base", "fixed_base_mults"),
            (suci, "_x25519_comb", "comb_mults"),
            (suci, "_x25519_ladder", "ladder_mults"),
            (suci, "x25519", "x25519_calls"),
            (tls.TlsSession, "protect", "tls_protect"),
        ):
            stack.enter_context(counted(owner, name, key))
        stack.enter_context(mock.patch.object(tls.TlsSession, "unprotect", unprotect))
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
            results.append({key: counts[key] for key in sorted(counts)})
    return results


def test_registration_crypto_budget_on_this_backend():
    # Block-kernel calls are left to the child below: in a shared test
    # process they depend on what earlier tests left in MILENAGE's caches.
    for counts in count_ops():
        assert {key: counts.get(key, 0) for key in BUDGET} == BUDGET


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
