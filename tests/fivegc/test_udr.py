"""UDR: subscriber storage and SQN management."""

import pytest

from repro.container.network import BridgeNetwork
from repro.fivegc.udr import AuthSubscription, Udr
from repro.net.sbi import ANSWER, UDR_AUTH_SUBSCRIPTION, decode


@pytest.fixture
def bridge(host):
    return BridgeNetwork(name="sbi", host=host)


@pytest.fixture
def udr(host, bridge):
    udr = Udr("udr", host, bridge)
    udr.provision(
        AuthSubscription(supi="imsi-001010000000001", k=bytes(16), opc=bytes(16))
    )
    return udr


@pytest.fixture
def caller(host, bridge):
    from repro.fivegc.nf_base import NetworkFunction

    return NetworkFunction("caller", host, bridge)


def test_subscription_validation():
    with pytest.raises(ValueError):
        AuthSubscription(supi="x", k=b"short", opc=bytes(16))
    with pytest.raises(ValueError):
        AuthSubscription(supi="x", k=bytes(16), opc=b"short")


def test_sqn_advances_per_fetch(udr, caller):
    first = caller.call(udr, "POST", UDR_AUTH_SUBSCRIPTION, {"supi": "imsi-001010000000001"})
    second = caller.call(udr, "POST", UDR_AUTH_SUBSCRIPTION, {"supi": "imsi-001010000000001"})
    assert decode(UDR_AUTH_SUBSCRIPTION, first.body, ANSWER)["sqn"] == (1).to_bytes(6, "big")
    assert decode(UDR_AUTH_SUBSCRIPTION, second.body, ANSWER)["sqn"] == (2).to_bytes(6, "big")


def test_fetch_returns_credentials(udr, caller):
    body = decode(UDR_AUTH_SUBSCRIPTION, caller.call(
        udr, "POST", UDR_AUTH_SUBSCRIPTION, {"supi": "imsi-001010000000001"}
    ).body, ANSWER)
    assert body["k"] == bytes(16)
    assert body["opc"] == bytes(16)
    assert body["amfField"] == b"\x80\x00"


def test_unknown_subscriber_404(udr, caller):
    response = caller.call(udr, "POST", UDR_AUTH_SUBSCRIPTION, {"supi": "imsi-999"})
    assert response.status == 404


def test_missing_supi_400(udr, caller):
    response = caller.call(udr, "POST", UDR_AUTH_SUBSCRIPTION, {})
    assert response.status == 400


def test_subscriber_count(udr):
    assert udr.subscriber_count == 1
    udr.provision(
        AuthSubscription(supi="imsi-001010000000002", k=bytes(16), opc=bytes(16))
    )
    assert udr.subscriber_count == 2


def test_subscriber_lookup(udr):
    record = udr.subscriber("imsi-001010000000001")
    assert record.sqn == 0
    with pytest.raises(KeyError):
        udr.subscriber("imsi-404")
