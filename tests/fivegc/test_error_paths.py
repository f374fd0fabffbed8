"""Negative paths across the SBI: malformed inputs degrade gracefully."""

import pytest

from repro.net.sbi import (
    AUSF_UE_AUTH,
    EAMF_DERIVE_KAMF,
    EAUSF_DERIVE_SE_AV,
    EUDM_GENERATE_AV,
    UDM_UE_AUTH_GET,
    UDR_AUTH_RESYNC,
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
    import json

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
