"""UDM: SIDF de-concealment and HE AV generation."""

import pytest

from repro.crypto.suci import Supi, conceal_supi
from repro.net.rest import JsonApiError
from repro.net.sbi import UDM_UE_AUTH_GET


@pytest.fixture
def testbed(container_testbed):
    return container_testbed


def auth_request_for(testbed, ue):
    suci = conceal_supi(
        ue.usim.supi, testbed.hn_public_key, testbed.host.rng.randbytes("eph", 32)
    )
    return {
        "servingNetworkName": testbed.snn,
        "suci": {
            "mcc": suci.mcc,
            "mnc": suci.mnc,
            "scheme": suci.protection_scheme,
            "keyId": suci.home_network_key_id,
            "schemeOutput": suci.scheme_output.hex(),
        },
    }


def generate(testbed, fields):
    return testbed.ausf.call(testbed.udm, UDM_UE_AUTH_GET, fields)


def refused_with(testbed, fields):
    """The UDM's status for a request it refuses."""
    with pytest.raises(JsonApiError, match="UDM rejected authentication") as caught:
        generate(testbed, fields)
    return caught.value.status


def test_generates_he_av_from_suci(testbed):
    ue = testbed.add_subscriber()
    body = generate(testbed, auth_request_for(testbed, ue))
    assert body["supi"] == str(ue.usim.supi)
    assert len(body["rand"]) == 16
    assert len(body["autn"]) == 16
    assert len(body["xresStar"]) == 16
    assert len(body["kausf"]) == 32


def test_accepts_plain_supi(testbed):
    ue = testbed.add_subscriber()
    body = generate(testbed, {"servingNetworkName": testbed.snn, "supi": str(ue.usim.supi)})
    assert body["supi"] == str(ue.usim.supi)


def test_fresh_rand_per_request(testbed):
    ue = testbed.add_subscriber()
    payload = {"servingNetworkName": testbed.snn, "supi": str(ue.usim.supi)}
    assert generate(testbed, payload)["rand"] != generate(testbed, payload)["rand"]


def test_unknown_subscriber_propagates_404(testbed):
    fields = {"servingNetworkName": testbed.snn, "supi": "imsi-001019999999999"}
    assert refused_with(testbed, fields) == 404


def test_garbled_suci_rejected(testbed):
    fields = {
        "servingNetworkName": testbed.snn,
        "suci": {"mcc": "001", "mnc": "01", "scheme": 1, "keyId": 1,
                 "schemeOutput": "00" * 60},
    }
    assert refused_with(testbed, fields) == 403  # MAC check fails in SIDF


def test_missing_identity_rejected(testbed):
    assert refused_with(testbed, {"servingNetworkName": testbed.snn}) == 400


def test_suci_for_wrong_hn_key_rejected(testbed):
    from repro.crypto.suci import x25519_public_key

    ue = testbed.add_subscriber()
    wrong_pub = x25519_public_key(bytes(range(32)))
    suci = conceal_supi(ue.usim.supi, wrong_pub, bytes(range(32, 64)))
    fields = {
        "servingNetworkName": testbed.snn,
        "suci": {"mcc": suci.mcc, "mnc": suci.mnc, "scheme": 1, "keyId": 1,
                 "schemeOutput": suci.scheme_output.hex()},
    }
    assert refused_with(testbed, fields) == 403
