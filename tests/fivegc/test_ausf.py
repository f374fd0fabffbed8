"""AUSF: authentication contexts, SE AV derivation, confirmation."""

import pytest

from repro.net.sbi import AUSF_UE_AUTH, AUSF_UE_AUTH_CONFIRM


def authenticate(testbed, ue):
    from repro.crypto.suci import conceal_supi

    suci = conceal_supi(
        ue.usim.supi, testbed.hn_public_key, testbed.host.rng.randbytes("eph2", 32)
    )
    return testbed.amf.call(
        testbed.ausf, "POST", AUSF_UE_AUTH,
        {
            "servingNetworkName": testbed.snn,
            "suci": {"mcc": suci.mcc, "mnc": suci.mnc, "scheme": 1, "keyId": 1,
                     "schemeOutput": suci.scheme_output.hex()},
        },
    )


def test_authenticate_returns_se_av(monolithic_testbed):
    testbed = monolithic_testbed
    ue = testbed.add_subscriber()
    response = authenticate(testbed, ue)
    assert response.status == 201
    body = response.json()
    assert body["authCtxId"].startswith("authctx-")
    assert len(bytes.fromhex(body["hxresStar"])) == 16
    # XRES*, K_AUSF and K_SEAF never appear in the SE AV response.
    assert "xresStar" not in body and "kausf" not in body and "kseaf" not in body


def test_confirmation_releases_kseaf(monolithic_testbed):
    testbed = monolithic_testbed
    ue = testbed.add_subscriber()
    body = authenticate(testbed, ue).json()

    # The genuine UE computes RES* through its USIM.
    result = ue.usim.authenticate(
        bytes.fromhex(body["rand"]), bytes.fromhex(body["autn"]), testbed.snn.encode()
    )
    assert result.success
    confirm = testbed.amf.call(
        testbed.ausf, "POST", AUSF_UE_AUTH_CONFIRM,
        {"authCtxId": body["authCtxId"], "resStar": result.res_star.hex()},
    )
    assert confirm.json()["result"] == "AUTHENTICATION_SUCCESS"
    assert len(bytes.fromhex(confirm.json()["kseaf"])) == 32
    assert confirm.json()["supi"] == str(ue.usim.supi)


def test_wrong_res_star_fails_confirmation(monolithic_testbed):
    testbed = monolithic_testbed
    ue = testbed.add_subscriber()
    body = authenticate(testbed, ue).json()
    confirm = testbed.amf.call(
        testbed.ausf, "POST", AUSF_UE_AUTH_CONFIRM,
        {"authCtxId": body["authCtxId"], "resStar": "00" * 16},
    )
    assert confirm.json()["result"] == "AUTHENTICATION_FAILURE"
    assert "kseaf" not in confirm.json()


def test_failed_context_is_consumed(monolithic_testbed):
    testbed = monolithic_testbed
    ue = testbed.add_subscriber()
    body = authenticate(testbed, ue).json()
    testbed.amf.call(
        testbed.ausf, "POST", AUSF_UE_AUTH_CONFIRM,
        {"authCtxId": body["authCtxId"], "resStar": "00" * 16},
    )
    retry = testbed.amf.call(
        testbed.ausf, "POST", AUSF_UE_AUTH_CONFIRM,
        {"authCtxId": body["authCtxId"], "resStar": "00" * 16},
    )
    assert retry.status == 404


def test_confirmed_context_is_consumed_and_kseaf_released_once(monolithic_testbed):
    testbed = monolithic_testbed
    ue = testbed.add_subscriber()
    body = authenticate(testbed, ue).json()
    result = ue.usim.authenticate(
        bytes.fromhex(body["rand"]), bytes.fromhex(body["autn"]), testbed.snn.encode()
    )
    payload = {"authCtxId": body["authCtxId"], "resStar": result.res_star.hex()}
    first = testbed.amf.call(testbed.ausf, "POST", AUSF_UE_AUTH_CONFIRM, payload)
    assert first.json()["result"] == "AUTHENTICATION_SUCCESS"
    # The same RES* replayed against the same context: K_SEAF is not
    # handed out a second time.
    replay = testbed.amf.call(testbed.ausf, "POST", AUSF_UE_AUTH_CONFIRM, payload)
    assert replay.status == 404
    assert "kseaf" not in replay.json()


def test_drained_registrations_leave_no_auth_context(monolithic_testbed):
    testbed = monolithic_testbed
    for _ in range(5):
        assert testbed.register(testbed.add_subscriber()).success
    assert len(testbed.ausf._contexts) == 0


def test_unknown_context_404(monolithic_testbed):
    response = monolithic_testbed.amf.call(
        monolithic_testbed.ausf, "POST", AUSF_UE_AUTH_CONFIRM,
        {"authCtxId": "authctx-999", "resStar": "00" * 16},
    )
    assert response.status == 404


def test_serving_network_authorization(host):
    from repro.container.network import BridgeNetwork
    from repro.fivegc.ausf import Ausf

    bridge = BridgeNetwork(name="sbi", host=host)
    ausf = Ausf("ausf", host, bridge, allowed_snns={"5G:mnc001.mcc001.3gppnetwork.org"})
    from repro.fivegc.nf_base import NetworkFunction

    caller = NetworkFunction("caller", host, bridge)
    response = caller.call(
        ausf, "POST", AUSF_UE_AUTH,
        {"servingNetworkName": "5G:mnc070.mcc901.3gppnetwork.org", "supi": "imsi-x"},
    )
    assert response.status == 403
