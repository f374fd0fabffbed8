"""T-table AES against an independent schoolbook reference (hypothesis).

The production cipher in :mod:`repro.crypto.aes` is a T-table
implementation: SubBytes/ShiftRows/MixColumns fused into four 32-bit
lookup tables.  This module re-implements AES-128 the slow, literal
FIPS-197 way — S-box built from the GF(2^8) inverse plus affine
transform, byte-level state matrix, explicit round steps — and checks
the two agree on random keys and blocks.  Nothing here is shared with
the module under test except the test vectors' algebra itself.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import (
    AES128,
    _encrypt_int,
    _expand_key_words,
    _round_keys,
    aes128_cipher,
)

# --- schoolbook reference implementation ------------------------------


def _gmul(a: int, b: int) -> int:
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        carry = a & 0x80
        a = (a << 1) & 0xFF
        if carry:
            a ^= 0x1B
        b >>= 1
    return result


def _ginv(a: int) -> int:
    if a == 0:
        return 0
    return next(x for x in range(1, 256) if _gmul(a, x) == 1)


def _affine(x: int) -> int:
    rot = lambda v, n: ((v << n) | (v >> (8 - n))) & 0xFF
    return x ^ rot(x, 1) ^ rot(x, 2) ^ rot(x, 3) ^ rot(x, 4) ^ 0x63


_REF_SBOX = [_affine(_ginv(a)) for a in range(256)]


def _expand_key(key: bytes) -> list:
    words = [list(key[4 * i : 4 * i + 4]) for i in range(4)]
    rcon = 1
    for i in range(4, 44):
        word = list(words[i - 1])
        if i % 4 == 0:
            word = word[1:] + word[:1]
            word = [_REF_SBOX[b] for b in word]
            word[0] ^= rcon
            rcon = _gmul(rcon, 2)
        words.append([a ^ b for a, b in zip(word, words[i - 4])])
    return [sum(words[4 * r : 4 * r + 4], []) for r in range(11)]


def _sub_bytes(state: list) -> list:
    return [_REF_SBOX[b] for b in state]


def _shift_rows(state: list) -> list:
    # Column-major state: byte (row, col) lives at state[4 * col + row].
    out = list(state)
    for row in range(1, 4):
        for col in range(4):
            out[4 * col + row] = state[4 * ((col + row) % 4) + row]
    return out


def _mix_columns(state: list) -> list:
    out = []
    for col in range(4):
        a = state[4 * col : 4 * col + 4]
        out.extend(
            [
                _gmul(a[0], 2) ^ _gmul(a[1], 3) ^ a[2] ^ a[3],
                a[0] ^ _gmul(a[1], 2) ^ _gmul(a[2], 3) ^ a[3],
                a[0] ^ a[1] ^ _gmul(a[2], 2) ^ _gmul(a[3], 3),
                _gmul(a[0], 3) ^ a[1] ^ a[2] ^ _gmul(a[3], 2),
            ]
        )
    return out


def ref_encrypt_block(key: bytes, block: bytes) -> bytes:
    round_keys = _expand_key(key)
    state = [b ^ k for b, k in zip(block, round_keys[0])]
    for rnd in range(1, 10):
        state = _mix_columns(_shift_rows(_sub_bytes(state)))
        state = [b ^ k for b, k in zip(state, round_keys[rnd])]
    state = _shift_rows(_sub_bytes(state))
    return bytes(b ^ k for b, k in zip(state, round_keys[10]))


def ref_ctr(key: bytes, nonce: bytes, data: bytes) -> bytes:
    counter = int.from_bytes(nonce, "big")
    keystream = b""
    while len(keystream) < len(data):
        block = (counter % (1 << 128)).to_bytes(16, "big")
        keystream += ref_encrypt_block(key, block)
        counter += 1
    return bytes(d ^ k for d, k in zip(data, keystream))


# --- properties -------------------------------------------------------

keys = st.binary(min_size=16, max_size=16)
blocks = st.binary(min_size=16, max_size=16)
nonces = st.binary(min_size=16, max_size=16)
payloads = st.binary(min_size=0, max_size=100)


def test_reference_sbox_is_the_fips_sbox():
    # Spot anchors from FIPS-197 Figure 7.
    assert _REF_SBOX[0x00] == 0x63
    assert _REF_SBOX[0x53] == 0xED
    assert _REF_SBOX[0xFF] == 0x16


def test_reference_matches_appendix_b():
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
    assert ref_encrypt_block(key, plaintext).hex() == (
        "3925841d02dc09fbdc118597196a0b32"
    )


def test_block_kernel_matches_fips197_vectors():
    # _encrypt_int is the one round body every pure mode runs, so pin it
    # directly (with libcrypto present encrypt_block never reaches it).
    for key, plaintext, ciphertext in (
        # Appendix B, then Appendix C.1.
        ("2b7e151628aed2a6abf7158809cf4f3c", "3243f6a8885a308d313198a2e0370734",
         "3925841d02dc09fbdc118597196a0b32"),
        ("000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff",
         "69c4e0d86a7b0430d8cdb78070b4c55a"),
    ):
        ek = _round_keys(_expand_key_words(bytes.fromhex(key)))
        assert _encrypt_int(ek, int(plaintext, 16)) == int(ciphertext, 16)


@settings(max_examples=40, deadline=None)
@given(key=keys, block=blocks)
def test_block_kernel_matches_schoolbook(key, block):
    ek = _round_keys(_expand_key_words(key))
    out = _encrypt_int(ek, int.from_bytes(block, "big"))
    assert out.to_bytes(16, "big") == ref_encrypt_block(key, block)


@settings(max_examples=40, deadline=None)
@given(key=keys, block=blocks)
def test_ttable_encrypt_matches_schoolbook(key, block):
    assert AES128(key).encrypt_block(block) == ref_encrypt_block(key, block)


@settings(max_examples=40, deadline=None)
@given(key=keys, block=blocks)
def test_ttable_decrypt_inverts_schoolbook(key, block):
    ciphertext = ref_encrypt_block(key, block)
    assert AES128(key).decrypt_block(ciphertext) == block


@settings(max_examples=25, deadline=None)
@given(key=keys, nonce=nonces, data=payloads)
def test_ctr_matches_schoolbook_keystream(key, nonce, data):
    assert aes128_cipher(key).ctr(nonce, data) == ref_ctr(key, nonce, data)


@settings(max_examples=40, deadline=None)
@given(key=keys, nonce=nonces, data=payloads)
def test_ctr_roundtrip(key, nonce, data):
    assert aes128_cipher(key).ctr(nonce, aes128_cipher(key).ctr(nonce, data)) == data


# --- bulk keystream vs per-block (the wire-speed fast path) -----------
#
# ``AES128.ctr``/``keystream`` generate the whole keystream in one bulk
# pass (multi-block T-table loop, or the libcrypto backend when present).
# These properties pin the bulk output to the one-ECB-call-per-block
# definition of CTR mode, including non-block-aligned tails and counter
# wraparound at 2^128.

_MASK128 = (1 << 128) - 1

# Lengths biased toward the interesting edges: empty, sub-block, exact
# blocks, and off-by-one around block boundaries.
lengths = st.one_of(
    st.sampled_from([0, 1, 15, 16, 17, 31, 32, 33, 100, 255, 512]),
    st.integers(min_value=0, max_value=600),
)


def _per_block_ctr(cipher, nonce, data):
    counter = int.from_bytes(nonce, "big")
    keystream = b""
    while len(keystream) < len(data):
        keystream += cipher._pure_encrypt_block(counter.to_bytes(16, "big"))
        counter = (counter + 1) & _MASK128
    return bytes(d ^ k for d, k in zip(data, keystream))


@settings(max_examples=60, deadline=None)
@given(key=keys, nonce=nonces, n=lengths, data=st.data())
def test_bulk_ctr_matches_per_block(key, nonce, n, data):
    payload = data.draw(st.binary(min_size=n, max_size=n))
    cipher = AES128(key)
    assert cipher.ctr(nonce, payload) == _per_block_ctr(cipher, nonce, payload)


@settings(max_examples=20, deadline=None)
@given(key=keys, n=st.integers(min_value=1, max_value=80))
def test_bulk_ctr_counter_wraparound(key, n):
    # Start the counter 2 short of 2^128 so the keystream crosses the wrap.
    nonce = (_MASK128 - 1).to_bytes(16, "big")
    cipher = AES128(key)
    payload = bytes(n)
    assert cipher.ctr(nonce, payload) == _per_block_ctr(cipher, nonce, payload)


@settings(max_examples=30, deadline=None)
@given(key=keys, nonce=nonces, n=lengths)
def test_pure_bulk_keystream_matches_per_block(key, nonce, n):
    # The pure multi-block generator itself (bypassing any hw backend).
    cipher = AES128(key)
    nblocks = (n + 15) // 16
    stream = cipher._keystream_int(int.from_bytes(nonce, "big"), nblocks)
    expected = _per_block_ctr(cipher, nonce, bytes(nblocks * 16))
    assert stream.to_bytes(nblocks * 16, "big") == expected


# --- keystream memo: shared cipher objects under interleaved calls ----
#
# ``AES128`` keeps the last CTR keystream it produced, keyed (nonce,
# block count), and ``aes128_cipher`` hands every user of a key the same
# object — that is how a record's receiver reuses its sender's stream.
# Whatever order calls arrive in, each must return what a cipher with no
# memory would: the per-block reference above on a fresh schedule.

_WRAP_NONCE = (_MASK128 - 1).to_bytes(16, "big")

memo_calls = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),  # which key
        # Few distinct nonces, so hits, same-nonce/other-length misses and
        # other-nonce/same-length misses all occur; one wraps at 2^128.
        st.sampled_from([bytes(16), bytes(range(16)), _WRAP_NONCE]),
        st.sampled_from([1, 16, 17, 40, 48, 64, 100]),
        st.sampled_from(["ctr", "keystream", "pure"]),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(key_pool=st.lists(keys, min_size=3, max_size=3, unique=True),
       calls=memo_calls, data=st.data())
def test_interleaved_calls_through_shared_ciphers_match_per_block(
    key_pool, calls, data
):
    for which, nonce, n, op in calls:
        key = key_pool[which]
        shared = aes128_cipher(key)
        payload = data.draw(st.binary(min_size=n, max_size=n))
        expected = _per_block_ctr(AES128(key), nonce, payload)
        if op == "ctr":
            assert shared.ctr(nonce, payload) == expected
        elif op == "keystream":
            zeros = _per_block_ctr(AES128(key), nonce, bytes(n))
            assert shared.ctr(nonce, bytes(n)) == zeros
        else:
            # The pure generator under the memo, whatever the backend.
            stream = shared._keystream_int(
                int.from_bytes(nonce, "big"), (n + 15) // 16
            ) >> (-n % 16 * 8)
            assert (int.from_bytes(payload, "big") ^ stream).to_bytes(
                n, "big"
            ) == expected


def test_memo_is_keyed_on_nonce_and_block_count_only():
    cipher = AES128(bytes(range(16)))
    nonce, other = bytes(16), bytes(15) + b"\x01"
    first = cipher.ctr(nonce, bytes(40))
    memo = cipher._memo
    assert memo[:2] == (nonce, 3)
    # Same nonce, same block count, other length and data: a hit.
    assert cipher.ctr(nonce, bytes(33)) == first[:33]
    assert cipher._memo is memo
    # Other block count or other nonce: recomputed, slot replaced.
    assert cipher.ctr(nonce, bytes(49))[:40] == first
    assert cipher._memo[:2] == (nonce, 4)
    assert cipher.ctr(other, bytes(64)) == _per_block_ctr(cipher, other, bytes(64))
    assert cipher._memo[:2] == (other, 4)


def test_memo_does_not_alias_a_mutable_nonce():
    cipher = AES128(bytes(range(16)))
    nonce = bytearray(16)
    first = cipher.ctr(nonce, bytes(32))
    nonce[15] = 1  # caller reuses its buffer for the next counter
    assert cipher.ctr(nonce, bytes(32)) == _per_block_ctr(cipher, bytes(nonce), bytes(32))
    assert cipher.ctr(bytes(16), bytes(32)) == first


@settings(max_examples=40, deadline=None)
@given(nonce=nonces, n=st.integers(min_value=1, max_value=40))
def test_counter_blocks_match_per_block_increment(nonce, n):
    for start in (nonce, (_MASK128 - n // 2).to_bytes(16, "big")):
        counter = int.from_bytes(start, "big")
        expected = b"".join(
            ((counter + i) & _MASK128).to_bytes(16, "big") for i in range(n)
        )
        assert AES128._counter_blocks(start, n) == expected
