"""UDM: SIDF de-concealment and HE AV generation (monolithic mode)."""

import pytest

from repro.crypto.suci import Supi, conceal_supi
from repro.net.sbi import ANSWER, UDM_UE_AUTH_GET, decode


@pytest.fixture
def testbed(monolithic_testbed):
    return monolithic_testbed


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


def test_generates_he_av_from_suci(testbed):
    ue = testbed.add_subscriber()
    response = testbed.ausf.call(
        testbed.udm, "POST", UDM_UE_AUTH_GET, auth_request_for(testbed, ue)
    )
    assert response.ok
    body = decode(UDM_UE_AUTH_GET, response.body, ANSWER)
    assert body["supi"] == str(ue.usim.supi)
    assert len(body["rand"]) == 16
    assert len(body["autn"]) == 16
    assert len(body["xresStar"]) == 16
    assert len(body["kausf"]) == 32


def test_accepts_plain_supi(testbed):
    ue = testbed.add_subscriber()
    response = testbed.ausf.call(
        testbed.udm, "POST", UDM_UE_AUTH_GET,
        {"servingNetworkName": testbed.snn, "supi": str(ue.usim.supi)},
    )
    assert response.ok


def test_fresh_rand_per_request(testbed):
    ue = testbed.add_subscriber()
    payload = {"servingNetworkName": testbed.snn, "supi": str(ue.usim.supi)}

    def rand():
        response = testbed.ausf.call(testbed.udm, "POST", UDM_UE_AUTH_GET, payload)
        return decode(UDM_UE_AUTH_GET, response.body, ANSWER)["rand"]

    assert rand() != rand()


def test_unknown_subscriber_propagates_404(testbed):
    response = testbed.ausf.call(
        testbed.udm, "POST", UDM_UE_AUTH_GET,
        {"servingNetworkName": testbed.snn, "supi": "imsi-001019999999999"},
    )
    assert response.status == 404


def test_garbled_suci_rejected(testbed):
    response = testbed.ausf.call(
        testbed.udm, "POST", UDM_UE_AUTH_GET,
        {
            "servingNetworkName": testbed.snn,
            "suci": {"mcc": "001", "mnc": "01", "scheme": 1, "keyId": 1,
                     "schemeOutput": "00" * 60},
        },
    )
    assert response.status == 403  # MAC check fails in SIDF


def test_missing_identity_rejected(testbed):
    response = testbed.ausf.call(
        testbed.udm, "POST", UDM_UE_AUTH_GET, {"servingNetworkName": testbed.snn}
    )
    assert response.status == 400


def test_suci_for_wrong_hn_key_rejected(testbed):
    from repro.crypto.suci import x25519_public_key

    ue = testbed.add_subscriber()
    wrong_pub = x25519_public_key(bytes(range(32)))
    suci = conceal_supi(ue.usim.supi, wrong_pub, bytes(range(32, 64)))
    response = testbed.ausf.call(
        testbed.udm, "POST", UDM_UE_AUTH_GET,
        {
            "servingNetworkName": testbed.snn,
            "suci": {"mcc": suci.mcc, "mnc": suci.mnc, "scheme": 1, "keyId": 1,
                     "schemeOutput": suci.scheme_output.hex()},
        },
    )
    assert response.status == 403
