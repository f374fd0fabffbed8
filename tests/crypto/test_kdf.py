"""TS 33.220 / TS 33.501 key derivation tests."""

import hashlib
import hmac

import pytest

from repro.crypto.kdf import (
    derive_hxres_star,
    derive_kamf,
    derive_kausf,
    derive_kseaf,
    derive_nas_keys,
    derive_res_star,
    serving_network_name,
    ts33220_kdf,
)


def test_generic_kdf_framing():
    """S = FC || P0 || L0 || P1 || L1 must match a hand-built HMAC."""
    key = b"k" * 32
    p0, p1 = b"alpha", b"bet"
    s = bytes([0x6A]) + p0 + (5).to_bytes(2, "big") + p1 + (3).to_bytes(2, "big")
    assert ts33220_kdf(key, 0x6A, [p0, p1]) == hmac.new(key, s, hashlib.sha256).digest()


def test_generic_kdf_output_is_32_bytes():
    assert len(ts33220_kdf(b"key", 0x10, [b"x"])) == 32


def test_generic_kdf_rejects_wide_fc():
    with pytest.raises(ValueError):
        ts33220_kdf(b"key", 0x1FF, [])


def test_generic_kdf_empty_params_differ_from_empty_param():
    # No parameters vs one empty parameter: framing differs (L0 present).
    assert ts33220_kdf(b"k", 0x6A, []) != ts33220_kdf(b"k", 0x6A, [b""])


def test_serving_network_name_format():
    assert serving_network_name("001", "01") == b"5G:mnc001.mcc001.3gppnetwork.org"


def test_serving_network_name_three_digit_mnc():
    assert serving_network_name("310", "410") == b"5G:mnc410.mcc310.3gppnetwork.org"


def test_serving_network_name_rejects_bad_mcc():
    with pytest.raises(ValueError):
        serving_network_name("1", "01")


def test_serving_network_name_rejects_bad_mnc():
    with pytest.raises(ValueError):
        serving_network_name("001", "1")


CK = bytes(range(16))
IK = bytes(range(16, 32))
SNN = serving_network_name("001", "01")
RAND = bytes(range(32, 48))
RES = bytes(range(48, 56))
SQN_XOR_AK = bytes(6)


def test_kausf_is_32_bytes_and_deterministic():
    a = derive_kausf(CK, IK, SNN, SQN_XOR_AK)
    b = derive_kausf(CK, IK, SNN, SQN_XOR_AK)
    assert a == b and len(a) == 32


def test_kausf_depends_on_snn():
    other = serving_network_name("901", "70")
    assert derive_kausf(CK, IK, SNN, SQN_XOR_AK) != derive_kausf(CK, IK, other, SQN_XOR_AK)


def test_kausf_rejects_bad_sqn_ak():
    with pytest.raises(ValueError):
        derive_kausf(CK, IK, SNN, bytes(5))


def test_res_star_is_16_bytes():
    assert len(derive_res_star(CK, IK, SNN, RAND, RES)) == 16


def test_res_star_is_low_half_of_kdf():
    full = ts33220_kdf(CK + IK, 0x6B, [SNN, RAND, RES])
    assert derive_res_star(CK, IK, SNN, RAND, RES) == full[16:]


def test_hxres_star_is_high_half_of_sha256():
    xres_star = derive_res_star(CK, IK, SNN, RAND, RES)
    digest = hashlib.sha256(RAND + xres_star).digest()
    assert derive_hxres_star(RAND, xres_star) == digest[:16]


def test_key_chain_kausf_kseaf_kamf():
    kausf = derive_kausf(CK, IK, SNN, SQN_XOR_AK)
    kseaf = derive_kseaf(kausf, SNN)
    kamf = derive_kamf(kseaf, "imsi-001010000000001")
    assert len(kseaf) == 32 and len(kamf) == 32
    assert len({bytes(kausf), bytes(kseaf), bytes(kamf)}) == 3


def test_kamf_depends_on_supi_and_abba():
    kseaf = bytes(32)
    a = derive_kamf(kseaf, "imsi-001010000000001")
    b = derive_kamf(kseaf, "imsi-001010000000002")
    c = derive_kamf(kseaf, "imsi-001010000000001", abba=b"\x00\x01")
    assert a != b and a != c


def test_nas_keys_are_distinct_128_bit():
    k_enc, k_int = derive_nas_keys(bytes(32))
    assert len(k_enc) == 16 and len(k_int) == 16
    assert k_enc != k_int


def test_nas_keys_depend_on_algorithm_ids():
    base = derive_nas_keys(bytes(32), enc_alg_id=1, int_alg_id=2)
    other = derive_nas_keys(bytes(32), enc_alg_id=2, int_alg_id=1)
    assert base != other
