"""AES-128 against FIPS-197 / SP 800-38A vectors, plus CTR properties."""

import pytest

from repro.crypto.aes import AES128, aes128_cipher

FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
FIPS_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

# FIPS-197 Appendix B: the worked cipher example (pi/e-derived values).
APX_B_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
APX_B_PT = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
APX_B_CT = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")

NIST_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
NIST_BLOCKS = [
    ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"),
    ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf"),
    ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688"),
    ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4"),
]


def test_fips197_appendix_c_vector():
    assert aes128_cipher(FIPS_KEY).encrypt_block(FIPS_PT) == FIPS_CT


def test_fips197_decrypt_inverts():
    assert aes128_cipher(FIPS_KEY).decrypt_block(FIPS_CT) == FIPS_PT


def test_fips197_appendix_b_vector():
    assert aes128_cipher(APX_B_KEY).encrypt_block(APX_B_PT) == APX_B_CT


def test_fips197_appendix_b_decrypt():
    assert aes128_cipher(APX_B_KEY).decrypt_block(APX_B_CT) == APX_B_PT


def test_keyed_cipher_matches_oneshot():
    cipher = AES128(APX_B_KEY)
    assert cipher.encrypt_block(APX_B_PT) == APX_B_CT
    assert cipher.decrypt_block(APX_B_CT) == APX_B_PT


def test_keyed_cipher_ctr_matches_oneshot():
    nonce = bytes(range(16))
    data = b"keyed cipher and one-shot API share one keystream"
    assert AES128(NIST_KEY).ctr(nonce, data) == aes128_cipher(NIST_KEY).ctr(nonce, data)


def test_cipher_cache_returns_same_object():
    # The one-shot API funnels through the per-key cache, so repeated
    # lookups must not re-expand the schedule.
    assert aes128_cipher(APX_B_KEY) is aes128_cipher(bytes(APX_B_KEY))


def test_keyed_cipher_rejects_bad_key_length():
    with pytest.raises(ValueError):
        AES128(b"\x00" * 24)


@pytest.mark.parametrize("plaintext_hex,ciphertext_hex", NIST_BLOCKS)
def test_sp800_38a_ecb_vectors(plaintext_hex, ciphertext_hex):
    plaintext = bytes.fromhex(plaintext_hex)
    assert aes128_cipher(NIST_KEY).encrypt_block(plaintext).hex() == ciphertext_hex


@pytest.mark.parametrize("plaintext_hex,ciphertext_hex", NIST_BLOCKS)
def test_sp800_38a_ecb_decrypt(plaintext_hex, ciphertext_hex):
    ciphertext = bytes.fromhex(ciphertext_hex)
    assert aes128_cipher(NIST_KEY).decrypt_block(ciphertext).hex() == plaintext_hex


def test_encrypt_rejects_bad_key_length():
    with pytest.raises(ValueError):
        aes128_cipher(b"short").encrypt_block(FIPS_PT)


def test_encrypt_rejects_bad_block_length():
    with pytest.raises(ValueError):
        aes128_cipher(FIPS_KEY).encrypt_block(b"tiny")


def test_decrypt_rejects_bad_block_length():
    with pytest.raises(ValueError):
        aes128_cipher(FIPS_KEY).decrypt_block(b"x" * 15)


def test_ctr_roundtrip_unaligned_length():
    nonce = bytes(range(16))
    data = b"5G-AKA control plane payload that is not block aligned.."
    ciphertext = aes128_cipher(NIST_KEY).ctr(nonce, data)
    assert ciphertext != data
    assert aes128_cipher(NIST_KEY).ctr(nonce, ciphertext) == data


def test_ctr_empty_payload():
    assert aes128_cipher(NIST_KEY).ctr(bytes(16), b"") == b""


def test_ctr_counter_increments_across_blocks():
    nonce = bytes(16)
    two_blocks = aes128_cipher(NIST_KEY).ctr(nonce, bytes(32))
    # Keystream blocks must differ (counter advanced).
    assert two_blocks[:16] != two_blocks[16:]


def test_ctr_rejects_bad_nonce():
    with pytest.raises(ValueError):
        aes128_cipher(NIST_KEY).ctr(b"short", b"data")


def test_ctr_counter_wraps_at_128_bits():
    # Starting at the max counter must not raise; it wraps modulo 2^128.
    nonce = b"\xff" * 16
    out = aes128_cipher(NIST_KEY).ctr(nonce, bytes(32))
    assert len(out) == 32


def test_pure_decrypt_reference_matches_fips197_on_any_backend():
    # The Td-table reference is reached directly, so it is checked even
    # when decrypt_block routes through libcrypto (the encrypt kernel is
    # pinned the same way in tests/property/test_aes_equivalence.py).
    for key, plaintext, ciphertext in (
        (FIPS_KEY, FIPS_PT, FIPS_CT),
        (APX_B_KEY, APX_B_PT, APX_B_CT),
    ):
        assert AES128(key)._pure_decrypt_block(ciphertext) == plaintext


def test_opt_out_selects_the_pure_path():
    import os

    from repro.crypto import aes

    if os.environ.get("REPRO_PURE_AES"):
        assert not aes.HAVE_HW_AES
    assert (AES128(FIPS_KEY)._hw_ecb_enc is None) == (not aes.HAVE_HW_AES)
