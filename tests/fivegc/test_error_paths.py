"""Negative paths across the SBI: malformed inputs degrade gracefully."""

import json

import pytest

from repro.net.http import HttpResponse
from repro.net.sbi import (
    AUSF_UE_AUTH,
    AUSF_UE_AUTH_CONFIRM,
    EAMF_DERIVE_KAMF,
    EAUSF_DERIVE_SE_AV,
    EUDM_GENERATE_AV,
    NRF_DISCOVER,
    UDM_UE_AUTH_GET,
    UDR_AUTH_RESYNC,
    NFType,
)


def test_ausf_requires_snn(monolithic_testbed):
    response = monolithic_testbed.amf.call(
        monolithic_testbed.ausf, "POST", AUSF_UE_AUTH, {"supi": "imsi-x"}
    )
    assert response.status == 400


def test_udm_requires_snn(monolithic_testbed):
    response = monolithic_testbed.ausf.call(
        monolithic_testbed.udm, "POST", UDM_UE_AUTH_GET, {"supi": "imsi-x"}
    )
    assert response.status == 400


def test_udm_malformed_resync_info(monolithic_testbed):
    testbed = monolithic_testbed
    ue = testbed.add_subscriber()
    response = testbed.ausf.call(
        testbed.udm, "POST", UDM_UE_AUTH_GET,
        {
            "servingNetworkName": testbed.snn,
            "supi": str(ue.usim.supi),
            "resynchronizationInfo": {"rand": "zz", "auts": "00"},
        },
    )
    assert response.status == 400


def test_udr_resync_validates_sqn_range(monolithic_testbed):
    testbed = monolithic_testbed
    ue = testbed.add_subscriber()
    response = testbed.udm.call(
        testbed.udr, "POST", UDR_AUTH_RESYNC,
        {"supi": str(ue.usim.supi), "sqnMs": 1 << 50},
    )
    assert response.status == 400


def test_udr_resync_unknown_subscriber(monolithic_testbed):
    response = monolithic_testbed.udm.call(
        monolithic_testbed.udr, "POST", UDR_AUTH_RESYNC,
        {"supi": "imsi-nobody", "sqnMs": 5},
    )
    assert response.status == 404


def test_module_errors_propagate_as_gateway_errors(container_testbed):
    """If the eUDM module refuses (unknown SUPI), the UDM maps it to an
    upstream error rather than crashing the chain."""
    testbed = container_testbed
    # Subscriber exists in the UDR but was never pushed to the module.
    from repro.fivegc.udr import AuthSubscription

    testbed.udr.provision(
        AuthSubscription(supi="imsi-001019999999990", k=bytes(16), opc=bytes(16))
    )
    response = testbed.ausf.call(
        testbed.udm, "POST", UDM_UE_AUTH_GET,
        {"servingNetworkName": testbed.snn, "supi": "imsi-001019999999990"},
    )
    assert response.status == 502


@pytest.mark.parametrize(
    "path,payload",
    [
        (EUDM_GENERATE_AV, {"supi": "x"}),  # missing crypto params
        (EAUSF_DERIVE_SE_AV, {"rand": "00" * 16}),  # missing the rest
        (EAMF_DERIVE_KAMF, {"kseaf": "00"}),  # wrong size
    ],
)
def test_module_endpoints_reject_malformed(container_testbed, path, payload):
    testbed = container_testbed
    module = {
        EUDM_GENERATE_AV: "eudm",
        EAUSF_DERIVE_SE_AV: "eausf",
        EAMF_DERIVE_KAMF: "eamf",
    }[path]
    server = testbed.paka.modules[module].server
    connection = testbed.udm.client.connect(server)
    response = testbed.udm.client.request(
        connection, "POST", path, body=json.dumps(payload).encode()
    )
    assert response.status == 400


def test_non_json_body_rejected(monolithic_testbed):
    testbed = monolithic_testbed
    connection = testbed.ausf.client.connect(testbed.udm.server)
    response = testbed.ausf.client.request(
        connection, "POST", UDM_UE_AUTH_GET, body=b"\xff\xfe not json"
    )
    assert response.status == 400


def _rewrite_answers(server, method, path, rewrite):
    """Serve ``path`` with ``rewrite(answer JSON) -> body``; returns the
    undo."""
    real = server._resolve(method, path)

    def rewritten(request, context):
        answer = real(request, context)
        return HttpResponse(answer.status, rewrite(answer.json()), answer.headers)

    server.route(method, path, rewritten)
    return lambda: server.route(method, path, real)


def _json(payload):
    return json.dumps(payload).encode()


@pytest.mark.parametrize(
    "path,rewrite,cause",
    [
        (
            AUSF_UE_AUTH_CONFIRM,
            lambda a: _json({k: v for k, v in a.items() if k != "kseaf"}),
            "missing or non-string field 'kseaf'",
        ),
        (
            AUSF_UE_AUTH_CONFIRM,
            lambda a: _json({**a, "kseaf": "zz"}),
            "field 'kseaf' is not valid hex",
        ),
        (
            AUSF_UE_AUTH,
            lambda a: _json([1, 2]),
            "malformed AUSF answer: JSON body must be an object",
        ),
    ],
    ids=["confirm-without-kseaf", "kseaf-not-hex", "answer-not-an-object"],
)
def test_malformed_peer_answer_rejects_the_ue_not_the_registration(
    container_testbed, path, rewrite, cause
):
    testbed = container_testbed
    undo = _rewrite_answers(testbed.ausf.server, "POST", path, rewrite)
    outcome = testbed.register(testbed.add_subscriber(), establish_session=False)
    assert outcome.success is False
    assert outcome.failure_cause == cause
    undo()
    assert testbed.register(testbed.add_subscriber(), establish_session=False).success


def test_malformed_discovery_answer_is_a_typed_error_and_keeps_the_bind(
    container_testbed,
):
    testbed = container_testbed
    registry = {nf.name: nf for nf in (testbed.ausf, testbed.udm, testbed.smf)}
    undo = _rewrite_answers(
        testbed.nrf.server, "GET", NRF_DISCOVER, lambda a: _json([1, 2])
    )
    with pytest.raises(ValueError, match="object"):
        testbed.amf.discover(NFType.AUSF, registry, refresh=True)
    undo()
    assert testbed.amf.peer(NFType.AUSF) is testbed.ausf
    assert testbed.register(testbed.add_subscriber(), establish_session=False).success
