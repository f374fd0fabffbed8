"""SBI conventions: profiles and path registry."""

import pytest

from repro.net import sbi
from repro.net.sbi import NFProfile, NFType


def test_nf_types_cover_fig2():
    assert {t.value for t in NFType} == {"NRF", "UDR", "UDM", "AUSF", "AMF", "SMF", "UPF"}


def test_profile_dict_roundtrip():
    profile = NFProfile(
        nf_instance_id="udm-0001",
        nf_type=NFType.UDM,
        endpoint_name="udm",
        services=["nudm-ueau"],
        metadata={"vendor": "repro"},
    )
    assert NFProfile.from_dict(profile.to_dict()) == profile


def test_profile_from_dict_validates_type():
    with pytest.raises(ValueError):
        NFProfile.from_dict(
            {"nfInstanceId": "x", "nfType": "BANANA", "endpoint": "e"}
        )


def test_api_paths_follow_3gpp_naming():
    assert sbi.UDM_UE_AUTH_GET.startswith("/nudm-ueau/")
    assert sbi.AUSF_UE_AUTH.startswith("/nausf-auth/")
    assert sbi.NRF_REGISTER.startswith("/nnrf-nfm/")
    assert sbi.SMF_PDU_SESSION.startswith("/nsmf-pdusession/")


def test_paka_paths_are_versioned_and_distinct():
    paths = {sbi.EUDM_VERIFY_AUTS, sbi.EUDM_GENERATE_AV, sbi.EAUSF_DERIVE_SE_AV, sbi.EAMF_DERIVE_KAMF}
    assert len(paths) == 4
    for path in paths:
        assert "/v1/" in path


def test_profile_roundtrip_with_empty_services_and_metadata():
    profile = NFProfile(
        nf_instance_id="amf-0001",
        nf_type=NFType.AMF,
        endpoint_name="amf",
    )
    data = profile.to_dict()
    assert data["services"] == [] and data["metadata"] == {}
    assert NFProfile.from_dict(data) == profile


def test_profile_from_dict_tolerates_missing_optionals():
    restored = NFProfile.from_dict(
        {"nfInstanceId": "smf-1", "nfType": "SMF", "endpoint": "smf"}
    )
    assert restored.services == []
    assert restored.metadata == {}


def test_decode_returns_hex_fields_as_bytes():
    body = b'{"kseaf": "' + b"ab" * 32 + b'", "supi": "imsi-1", "abba": "00ff"}'
    fields = sbi.decode(sbi.EAMF_DERIVE_KAMF, body, sbi.REQUEST)
    assert fields == {"kseaf": b"\xab" * 32, "supi": "imsi-1", "abba": b"\x00\xff"}
