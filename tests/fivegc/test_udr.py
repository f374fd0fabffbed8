"""UDR: subscriber storage and SQN management."""

import pytest

from repro.container.network import BridgeNetwork
from repro.fivegc.udr import AuthSubscription, Udr
from repro.net.rest import JsonApiError
from repro.net.sbi import UDR_AUTH_SUBSCRIPTION


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
    first = caller.call(udr, UDR_AUTH_SUBSCRIPTION, {"supi": "imsi-001010000000001"})
    second = caller.call(udr, UDR_AUTH_SUBSCRIPTION, {"supi": "imsi-001010000000001"})
    assert first["sqn"] == (1).to_bytes(6, "big")
    assert second["sqn"] == (2).to_bytes(6, "big")


def test_fetch_returns_credentials(udr, caller):
    body = caller.call(udr, UDR_AUTH_SUBSCRIPTION, {"supi": "imsi-001010000000001"})
    assert body["k"] == bytes(16)
    assert body["opc"] == bytes(16)
    assert body["amfField"] == b"\x80\x00"


def _refused(udr, caller, fields, status):
    with pytest.raises(JsonApiError, match="UDR rejected the subscriber") as caught:
        caller.call(udr, UDR_AUTH_SUBSCRIPTION, fields)
    assert caught.value.status == status


def test_unknown_subscriber_404(udr, caller):
    _refused(udr, caller, {"supi": "imsi-999"}, 404)


def test_missing_supi_400(udr, caller):
    _refused(udr, caller, {}, 400)


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
