"""Batched hot-path rewrites against scalar references (hypothesis).

The profiler-guided rewrite turned several per-block / per-call loops
into single bulk passes: MILENAGE ``generate``/``f2345`` run all post-TEMP
block encryptions as one ECB batch, AES-CMAC is one copied native context
on libcrypto and one zero-IV CBC chain without it, the TLS record tag
starts from pre-hashed HMAC pads, the SBI codec serializes flat bodies
without ``json.dumps``, and X25519 against a recurring base walks a window
table instead of the ladder (or, on libcrypto, reads the public key off
the key object).  Each rewrite must be **byte-for-byte** identical
to the scalar form — these tests pin that by re-deriving every output the
slow, literal way (per-block encryptions, spec-order rotations, ``json``
itself, the Montgomery ladder) and comparing exact bytes.

The simulator's own bookkeeping is held to the same rule (last section):
the cycle→ns lookup table against ``Cpu.round_cycle_cost``, one-draw
``randbytes`` against per-byte draws, and ``measure()`` windows against
the LIFO contract.  ``EventLog.emit_burst`` against the per-event loop
lives in ``tests/sim/test_events.py``.
"""

import hmac
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES128, aes128_cipher
from repro.crypto.cmac import _aes_cmac_pure, aes_cmac
from repro.crypto.kdf import ts33220_kdf
from repro.crypto.milenage import Milenage
from repro.crypto.suci import (
    _BASE_POINT,
    _P,
    _comb_table,
    _x25519_comb,
    _x25519_fixed_base,
    _x25519_ladder,
    x25519,
    x25519_public_key,
)
from repro.crypto.tls import _hmac_pads, establish_session
from repro.hw.cpu import XEON_SILVER_4314, Cpu, CpuSpec
from repro.net.codec import dumps_flat, loads_object
from repro.sgx.costmodel import SGX_COSTS
from repro.sim.clock import MeasurementNestingError, SimClock
from repro.sim.rng import RngService

key16 = st.binary(min_size=16, max_size=16)
block16 = st.binary(min_size=16, max_size=16)


# --- scalar MILENAGE reference (TS 35.206 §4.1, one encryption per f) --


def _xor16(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def _rot(block: bytes, bits: int) -> bytes:
    shift = (bits // 8) % 16
    return block[shift:] + block[:shift]


def _reference_milenage(k, opc, rand, sqn, amf):
    """Literal per-function evaluation: six separate block encryptions."""
    temp = aes128_cipher(k).encrypt_block(_xor16(rand, opc))
    in1 = _xor16(sqn + amf + sqn + amf, opc)
    out1 = _xor16(
        aes128_cipher(k).encrypt_block(_xor16(temp, _rot(in1, 64))), opc
    )

    outs = []
    for r, c in ((0, 1), (32, 2), (64, 4), (96, 8)):
        block = _rot(_xor16(temp, opc), r)
        block = block[:15] + bytes([block[15] ^ c])
        outs.append(_xor16(aes128_cipher(k).encrypt_block(block), opc))
    out2, out3, out4, out5 = outs
    return {
        "mac_a": out1[:8],
        "mac_s": out1[8:],
        "res": out2[8:16],
        "ck": out3,
        "ik": out4,
        "ak": out2[:6],
        "ak_star": out5[:6],
    }


@settings(max_examples=60, deadline=None)
@given(
    k=key16,
    opc=key16,
    rand=block16,
    sqn=st.binary(min_size=6, max_size=6),
    amf=st.binary(min_size=2, max_size=2),
)
def test_batched_generate_matches_scalar_reference(k, opc, rand, sqn, amf):
    ref = _reference_milenage(k, opc, rand, sqn, amf)
    vec = Milenage(k, opc).generate(rand, sqn, amf)
    assert vec.mac_a == ref["mac_a"]
    assert vec.mac_s == ref["mac_s"]
    assert vec.res == ref["res"]
    assert vec.ck == ref["ck"]
    assert vec.ik == ref["ik"]
    assert vec.ak == ref["ak"]
    assert vec.ak_star == ref["ak_star"]


@settings(max_examples=60, deadline=None)
@given(k=key16, opc=key16, rand=block16)
def test_batched_f2345_matches_scalar_reference(k, opc, rand):
    ref = _reference_milenage(k, opc, rand, bytes(6), bytes(2))
    vec = Milenage(k, opc).f2345(rand)
    assert (vec.res, vec.ck, vec.ik, vec.ak, vec.ak_star) == (
        ref["res"], ref["ck"], ref["ik"], ref["ak"], ref["ak_star"]
    )


@settings(max_examples=60, deadline=None)
@given(
    k=key16,
    opc=key16,
    rand=block16,
    sqn=st.binary(min_size=6, max_size=6),
    amf=st.binary(min_size=2, max_size=2),
)
def test_f1_agrees_with_generate_and_reference(k, opc, rand, sqn, amf):
    ref = _reference_milenage(k, opc, rand, sqn, amf)
    mil = Milenage(k, opc)
    mac_a, mac_s = mil.f1(rand, sqn, amf)
    assert (mac_a, mac_s) == (ref["mac_a"], ref["mac_s"])
    vec = mil.generate(rand, sqn, amf)
    assert (vec.mac_a, vec.mac_s) == (mac_a, mac_s)


# --- KDF vs an explicit HMAC-object reference --------------------------


@settings(max_examples=60, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=64),
    fc=st.integers(min_value=0, max_value=0xFF),
    params=st.lists(st.binary(max_size=64), max_size=4),
)
def test_kdf_matches_hmac_object_reference(key, fc, params):
    import hashlib
    import hmac as hmac_mod

    s = bytes([fc])
    for p in params:
        s += p + len(p).to_bytes(2, "big")
    expected = hmac_mod.new(key, s, hashlib.sha256).digest()
    assert ts33220_kdf(key, fc, params) == expected


# --- CBC-MAC / CMAC vs per-block encrypt chains ------------------------


@settings(max_examples=60, deadline=None)
@given(key=key16, nblocks=st.integers(min_value=1, max_value=8), data=st.data())
def test_cbc_mac_matches_per_block_chain(key, nblocks, data):
    message = data.draw(
        st.binary(min_size=16 * nblocks, max_size=16 * nblocks)
    )
    cipher = AES128(key)
    x = bytes(16)
    for i in range(nblocks):
        x = cipher.encrypt_block(_xor16(x, message[i * 16 : (i + 1) * 16]))
    assert cipher.cbc_mac(message) == x


@settings(max_examples=60, deadline=None)
@given(key=key16, message=st.binary(max_size=100))
def test_cmac_matches_rfc4493_step_by_step(key, message):
    # RFC 4493 §2.4, literally: subkeys from E_K(0), XOR K1/K2 into the
    # last (padded) block, then the per-block CBC chain.
    cipher = AES128(key)
    l = cipher.encrypt_block(bytes(16))

    def _shift(b):
        v = int.from_bytes(b, "big") << 1
        out = (v & ((1 << 128) - 1)).to_bytes(16, "big")
        if v >> 128:
            out = out[:15] + bytes([out[15] ^ 0x87])
        return out

    k1 = _shift(l)
    k2 = _shift(k1)
    n = max(1, (len(message) + 15) // 16)
    if message and len(message) % 16 == 0:
        last = _xor16(message[-16:], k1)
    else:
        tail = message[(n - 1) * 16 :]
        last = _xor16(tail + b"\x80" + bytes(15 - len(tail)), k2)
    x = bytes(16)
    for i in range(n - 1):
        x = cipher.encrypt_block(_xor16(x, message[i * 16 : (i + 1) * 16]))
    x = cipher.encrypt_block(_xor16(x, last))
    # The backend's path (a native CMAC context on libcrypto), the pure
    # subkeys + CBC chain, and the literal fold above.
    assert aes_cmac(key, message) == _aes_cmac_pure(key, message) == x


# --- TLS record tag from pre-hashed pads vs one-shot HMAC --------------


@settings(max_examples=100, deadline=None)
@given(
    key=st.binary(min_size=1, max_size=64),
    seq=st.integers(min_value=0, max_value=2**64 - 1),
    ciphertext=st.binary(max_size=300),
)
def test_prehashed_pad_tag_is_hmac_sha256(key, seq, ciphertext):
    session, _ = establish_session("c", "s", b"secret")
    pads = _hmac_pads(key)
    expected = hmac.digest(key, seq.to_bytes(8, "big") + ciphertext, "sha256")[:16]
    assert session._tag(pads, seq, ciphertext) == expected
    # The kept contexts are only ever copied: a second tag is unaffected.
    assert session._tag(pads, seq, ciphertext) == expected


# --- SBI codec vs json -------------------------------------------------

_simple_text = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E),
    max_size=24,
)
_flat_values = st.one_of(
    _simple_text,
    st.integers(min_value=-(2**53), max_value=2**53),
    st.booleans(),
    st.none(),
)


@settings(max_examples=100, deadline=None)
@given(payload=st.dictionaries(_simple_text, _flat_values, max_size=8))
def test_dumps_flat_is_byte_identical_to_json(payload):
    expected = json.dumps(payload, sort_keys=True).encode()
    body = dumps_flat(payload)
    assert body == expected
    assert loads_object(body) == payload


@settings(max_examples=50, deadline=None)
@given(
    payload=st.dictionaries(
        st.text(max_size=8),
        st.one_of(
            st.text(max_size=16),
            st.floats(allow_nan=False, allow_infinity=False),
            st.lists(st.integers(), max_size=3),
            st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
        ),
        max_size=6,
    )
)
def test_dumps_flat_fallback_still_matches_json(payload):
    # Rich payloads (escapes, non-ASCII keys, floats, nesting) must take
    # the json fallback and stay byte-identical too.
    assert dumps_flat(payload) == json.dumps(payload, sort_keys=True).encode()


# --- fixed-base X25519 (window table) vs the Montgomery ladder --------
#
# ``_x25519_comb`` is called directly, so these run the pure functions
# whether or not libcrypto is installed.

key32 = st.binary(min_size=32, max_size=32)

# RFC 7748 §6.1 (and p-1, p, p+1): inputs of small order, for which every
# clamped scalar yields the all-zero output.
_LOW_ORDER_U = (
    0,
    1,
    325606250916557431795983626356110631294008115727848805560023387167927233504,
    39382357235489614581723060781553021112529911719440698176882885853963445705823,
    _P - 1,
    _P,
    _P + 1,
)


def _u(value: int) -> bytes:
    return value.to_bytes(32, "little")


@settings(max_examples=40, deadline=None)
@given(scalar=key32)
def test_comb_matches_ladder_on_base_point(scalar):
    assert _x25519_comb(scalar, _BASE_POINT) == _x25519_ladder(scalar, _BASE_POINT)


@settings(max_examples=15, deadline=None)
@given(scalar=key32, peer=key32)
def test_comb_matches_ladder_on_valid_public_keys(scalar, peer):
    public = _x25519_ladder(peer, _BASE_POINT)
    assert _comb_table(public) is not None  # on the curve: has a table
    assert _x25519_comb(scalar, public) == _x25519_ladder(scalar, public)


@settings(max_examples=30, deadline=None)
@given(scalar=key32, u=key32)
def test_comb_matches_ladder_on_arbitrary_u(scalar, u):
    # About half of all u lie on the twist and take the ladder fallback;
    # the top bit is masked by both paths.
    assert _x25519_comb(scalar, u) == _x25519_ladder(scalar, u)


def test_arbitrary_u_exercises_both_table_and_fallback():
    import random

    rnd = random.Random(25519)
    tabled = [_comb_table(rnd.randbytes(32)) is not None for _ in range(24)]
    assert any(tabled) and not all(tabled)


@settings(max_examples=10, deadline=None)
@given(scalar=key32)
def test_comb_matches_ladder_on_low_order_and_noncanonical_u(scalar):
    for value in _LOW_ORDER_U:
        assert _x25519_comb(scalar, _u(value)) == _x25519_ladder(scalar, _u(value))
        assert _x25519_comb(scalar, _u(value)) == bytes(32)
    # Non-canonical encodings of ordinary points: u and u + p agree.
    for value in (9, _P + 9):
        assert _x25519_comb(scalar, _u(value)) == _x25519_ladder(scalar, _u(9))


# RFC 7748 §6.1 private keys.
_ALICE = bytes.fromhex("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a")
_BOB = bytes.fromhex("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb")


def test_fixed_base_entry_points_match_rfc7748_vectors():
    # RFC 7748 §6.1: Alice's and Bob's key pairs and their shared secret.
    alice, bob = _ALICE, _BOB
    alice_pub = bytes.fromhex("8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a")
    bob_pub = bytes.fromhex("de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f")
    shared = bytes.fromhex("4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742")
    for derive in (x25519_public_key, lambda k: _x25519_comb(k, _BASE_POINT)):
        assert derive(alice) == alice_pub
        assert derive(bob) == bob_pub
    for exchange in (_x25519_fixed_base, _x25519_comb, x25519):
        assert exchange(alice, bob_pub) == shared
        assert exchange(bob, alice_pub) == shared


def test_public_key_matches_ladder_and_comb_on_edge_scalars():
    # On libcrypto the public key is read off the key object; clamping is
    # then OpenSSL's.  RFC 7748 §6.1 private keys, the same with every bit
    # the clamp clears or sets flipped, and the two constant scalars.
    def unclamp(k):
        return bytes([k[0] ^ 7]) + k[1:31] + bytes([k[31] ^ 0xC0])

    for scalar in (_ALICE, _BOB, unclamp(_ALICE), unclamp(_BOB), bytes(32), b"\xff" * 32):
        public = x25519_public_key(scalar)
        assert public == _x25519_ladder(scalar, _BASE_POINT)
        assert public == _x25519_comb(scalar, _BASE_POINT)
    assert x25519_public_key(unclamp(_ALICE)) == x25519_public_key(_ALICE)


@settings(max_examples=15, deadline=None)
@given(a=key32, b=key32)
def test_diffie_hellman_symmetry_through_fixed_base_paths(a, b):
    a_pub, b_pub = x25519_public_key(a), x25519_public_key(b)
    assert a_pub == _x25519_comb(a, _BASE_POINT)
    # One side fixed-base (the UE against the home-network key), the
    # other variable-base (the UDM against the ephemeral key).
    assert _x25519_fixed_base(a, b_pub) == x25519(b, a_pub)
    assert _x25519_comb(a, b_pub) == _x25519_ladder(b, a_pub)


# --- simulator bookkeeping: table, randbytes, measure() ------------------


def _cpu(frequency_hz):
    spec = CpuSpec("test", frequency_hz, 1, sgx_version=2, max_epc_bytes=1 << 30)
    return Cpu(spec, SimClock())


@pytest.mark.parametrize(
    "frequency_hz", [XEON_SILVER_4314.frequency_hz, 1.0e9, 3.7e9, 2_893_317_421.7]
)
def test_transition_ns_table_is_round_cycle_cost_over_its_whole_domain(frequency_hz):
    cpu = _cpu(frequency_hz)
    lo, hi = SGX_COSTS.transition_cycle_bounds
    assert (lo, hi) == (4_500, 9_900)
    table = cpu.cycle_ns_table(lo, hi)
    assert len(table) == hi + 1 and table[:lo] == (None,) * lo
    assert all(table[c] == cpu.round_cycle_cost(c)[1] for c in range(lo, hi + 1))
    # Built once per (frequency, domain) and shared by every CPU of the spec.
    assert _cpu(frequency_hz).cycle_ns_table(lo, hi) is table


@settings(max_examples=200, deadline=None)
@given(fraction=st.floats(0.0, 1.0, exclude_max=True))
def test_every_drawn_transition_pair_splits_inside_the_table(fraction):
    # The replay loop's draw for any random() the stream can return.
    model = SGX_COSTS
    lo, hi = model.transition_cycle_bounds
    pair_min = model.transition_pair_min_cycles
    total = pair_min + (model.transition_pair_max_cycles - pair_min) * fraction
    assert lo <= int(total * 0.45) <= int(total * 0.55) <= hi


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32), n=st.sampled_from((-1, 0, 1, 4, 16, 32, 33, 257)))
def test_randbytes_is_the_per_byte_draw_sequence(seed, n):
    fused, scalar = RngService(seed), RngService(seed)
    stream = scalar.stream("keys")
    assert fused.randbytes("keys", n) == bytes(
        stream.getrandbits(8) for _ in range(n)
    )
    # ... and leaves the stream where the per-byte draws leave it.
    assert fused.stream("keys").getstate() == stream.getstate()
    assert fused.stream("keys") is fused.stream("keys")


@settings(max_examples=200, deadline=None)
@given(
    script=st.lists(
        st.one_of(st.just("open"), st.just("close"), st.integers(0, 5_000)),
        max_size=40,
    ),
    fail_at=st.none() | st.integers(0, 6),
)
def test_measure_windows_nest_and_close_on_exception(script, fail_at):
    # Drive the clock through a random tree of with-blocks against a
    # hand-kept stack of (start, expected end) pairs; optionally raise
    # from inside the ``fail_at``-deep block.
    clock = SimClock()
    closed = []

    def run(position, depth):
        while position < len(script):
            step = script[position]
            position += 1
            if step == "open":
                start = clock.now_ns
                with clock.measure() as span:
                    try:
                        if depth == fail_at:
                            raise LookupError("inside a window")
                        position = run(position, depth + 1)
                    finally:
                        closed.append((span, start, clock.now_ns))
            elif step == "close":
                if depth:
                    return position
            else:
                clock.advance(step)
        return position

    try:
        run(0, 0)
    except LookupError:
        assert fail_at is not None
    assert clock._open_measurements == []
    for span, start, end in closed:
        assert (span.start_ns, span.end_ns) == (start, end)


def test_measure_still_refuses_an_out_of_order_close():
    clock = SimClock()
    outer, _inner = clock.measure(), clock.measure()
    with pytest.raises(MeasurementNestingError, match="LIFO"):
        outer.__exit__(None, None, None)
    # A window closed twice is out of order too, not a silent no-op.
    clock = SimClock()
    with clock.measure() as span:
        pass
    with pytest.raises(MeasurementNestingError):
        span.__exit__(None, None, None)
