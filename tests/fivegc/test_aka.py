"""5G-AKA vector generation: UE/HN agreement and structure."""

import pytest

from repro.aka import (
    AMF_FIELD_5G,
    HomeAuthVector,
    build_autn,
    derive_se_av,
    generate_he_av,
)
from repro.crypto.kdf import derive_hxres_star, serving_network_name
from repro.crypto.milenage import Milenage

K = bytes.fromhex("465b5ce8b199b49faa5f0a2ee238a6bc")
OPC = bytes.fromhex("cd63cb71954a9f4e48a5994e37a02baf")
RAND = bytes.fromhex("23553cbe9637a89d218ae64dae47bf35")
SQN = (42).to_bytes(6, "big")
SNN = serving_network_name("001", "01")


@pytest.fixture
def he_av():
    return generate_he_av(k=K, opc=OPC, rand=RAND, sqn=SQN, snn=SNN)


def test_he_av_field_sizes(he_av):
    assert len(he_av.rand) == 16
    assert len(he_av.autn) == 16
    assert len(he_av.xres_star) == 16
    assert len(he_av.kausf) == 32


def test_autn_structure(he_av):
    vector = Milenage(K, OPC).generate(RAND, SQN, AMF_FIELD_5G)
    sqn_xor_ak = bytes(s ^ a for s, a in zip(SQN, vector.ak))
    assert he_av.autn[:6] == sqn_xor_ak
    assert he_av.autn[6:8] == AMF_FIELD_5G
    assert he_av.autn[8:] == vector.mac_a


def test_build_autn_validates_lengths():
    with pytest.raises(ValueError):
        build_autn(bytes(5), bytes(6), AMF_FIELD_5G, bytes(8))


def test_he_av_is_deterministic():
    a = generate_he_av(k=K, opc=OPC, rand=RAND, sqn=SQN, snn=SNN)
    b = generate_he_av(k=K, opc=OPC, rand=RAND, sqn=SQN, snn=SNN)
    assert a == b


def test_fresh_rand_changes_vector(he_av):
    other = generate_he_av(k=K, opc=OPC, rand=bytes(16), sqn=SQN, snn=SNN)
    assert other.xres_star != he_av.xres_star
    assert other.kausf != he_av.kausf


def test_se_av_derivation(he_av):
    se_av, kseaf = derive_se_av(he_av, SNN)
    assert se_av.rand == he_av.rand
    assert se_av.autn == he_av.autn
    assert len(se_av.hxres_star) == 16
    assert len(kseaf) == 32
    # The SE AV never exposes XRES* or K_AUSF.
    assert he_av.xres_star not in (se_av.rand + se_av.autn + se_av.hxres_star)


def test_hres_star_verification_accepts_correct_response(he_av):
    se_av, _ = derive_se_av(he_av, SNN)
    assert derive_hxres_star(he_av.rand, he_av.xres_star) == se_av.hxres_star


def test_hres_star_verification_rejects_wrong_response(he_av):
    se_av, _ = derive_se_av(he_av, SNN)
    assert derive_hxres_star(he_av.rand, bytes(16)) != se_av.hxres_star


def test_home_auth_vector_validation():
    with pytest.raises(ValueError):
        HomeAuthVector(rand=bytes(15), autn=bytes(16), xres_star=bytes(16), kausf=bytes(32))
    with pytest.raises(ValueError):
        HomeAuthVector(rand=bytes(16), autn=bytes(16), xres_star=bytes(16), kausf=bytes(31))
