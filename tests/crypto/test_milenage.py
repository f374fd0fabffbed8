"""MILENAGE against the 3GPP TS 35.207/35.208 conformance Test Set 1,
plus structural and negative tests."""

import pytest

from repro.crypto.aes import aes128_cipher
from repro.crypto.milenage import Milenage

# TS 35.207 §4 / TS 35.208 §3 Test Set 1.
K = bytes.fromhex("465b5ce8b199b49faa5f0a2ee238a6bc")
RAND = bytes.fromhex("23553cbe9637a89d218ae64dae47bf35")
SQN = bytes.fromhex("ff9bb4d0b607")
AMF = bytes.fromhex("b9b9")
OP = bytes.fromhex("cdc202d5123e20f62b6d676ac72cb318")
OPC = bytes.fromhex("cd63cb71954a9f4e48a5994e37a02baf")

EXPECTED = {
    "mac_a": "4a9ffac354dfafb3",
    "mac_s": "01cfaf9ec4e871e9",
    "res": "a54211d5e3ba50bf",
    "ck": "b40ba9a3c58b2a05bbf0d987b21bf8cb",
    "ik": "f769bcd751044604127672711c6d3441",
    "ak": "aa689c648370",
    "ak_star": "451e8beca43b",
}


@pytest.fixture
def milenage():
    return Milenage(K, OPC)


def test_opc_derivation():
    # TS 35.206 §4.1: OPc = OP xor E_K(OP) -- the OPC every test here uses
    # is the one Test Set 1's OP yields.
    masked = aes128_cipher(K).encrypt_block(OP)
    assert bytes(a ^ b for a, b in zip(masked, OP)) == OPC


def test_f1_mac_a(milenage):
    mac_a, _ = milenage.f1(RAND, SQN, AMF)
    assert mac_a.hex() == EXPECTED["mac_a"]


def test_f1_star_mac_s(milenage):
    _, mac_s = milenage.f1(RAND, SQN, AMF)
    assert mac_s.hex() == EXPECTED["mac_s"]


def test_f2_res(milenage):
    assert milenage.f2345(RAND).res.hex() == EXPECTED["res"]


def test_f3_ck(milenage):
    assert milenage.f2345(RAND).ck.hex() == EXPECTED["ck"]


def test_f4_ik(milenage):
    assert milenage.f2345(RAND).ik.hex() == EXPECTED["ik"]


def test_f5_ak(milenage):
    assert milenage.f2345(RAND).ak.hex() == EXPECTED["ak"]


def test_f5_star_ak(milenage):
    assert milenage.f2345(RAND).ak_star.hex() == EXPECTED["ak_star"]


def test_generate_combines_all_functions(milenage):
    vector = milenage.generate(RAND, SQN, AMF)
    assert vector.mac_a.hex() == EXPECTED["mac_a"]
    assert vector.res.hex() == EXPECTED["res"]
    assert vector.ck.hex() == EXPECTED["ck"]
    assert vector.ak.hex() == EXPECTED["ak"]


def test_output_lengths(milenage):
    vector = milenage.generate(RAND, SQN, AMF)
    assert (len(vector.mac_a), len(vector.mac_s)) == (8, 8)
    assert len(vector.res) == 8
    assert (len(vector.ck), len(vector.ik)) == (16, 16)
    assert (len(vector.ak), len(vector.ak_star)) == (6, 6)


def test_different_rand_changes_everything(milenage):
    one = milenage.f2345(RAND)
    other = milenage.f2345(bytes(16))
    assert one.res != other.res
    assert one.ck != other.ck
    assert one.ak != other.ak


def test_ak_and_ak_star_differ(milenage):
    vector = milenage.f2345(RAND)
    assert vector.ak != vector.ak_star


def test_rejects_bad_key_length():
    with pytest.raises(ValueError):
        Milenage(b"short", OPC)


def test_rejects_bad_opc_length():
    with pytest.raises(ValueError):
        Milenage(K, b"short")


def test_rejects_bad_rand(milenage):
    with pytest.raises(ValueError):
        milenage.f2345(b"not-16-bytes")


def test_rejects_bad_sqn(milenage):
    with pytest.raises(ValueError):
        milenage.f1(RAND, b"xx", AMF)


def test_rejects_bad_amf_field(milenage):
    with pytest.raises(ValueError):
        milenage.f1(RAND, SQN, b"xxxx")
