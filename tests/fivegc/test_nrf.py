"""NRF registration and discovery over the SBI."""

import pytest

from repro.container.network import BridgeNetwork
from repro.fivegc.nrf import Nrf
from repro.fivegc.udr import Udr
from repro.net.rest import JsonApiError
from repro.net.sbi import NFType


@pytest.fixture
def bridge(host):
    return BridgeNetwork(name="sbi", host=host)


@pytest.fixture
def nrf(host, bridge):
    return Nrf("nrf", host, bridge)


def test_registration_stores_profile(host, bridge, nrf):
    udr = Udr("udr", host, bridge)
    udr.register_with(nrf)
    assert [p.nf_instance_id for p in nrf.registered(NFType.UDR)] == ["udr-0001"]


def test_discovery_returns_registered_instances(host, bridge, nrf):
    udr = Udr("udr", host, bridge)
    udr.register_with(nrf)

    other = Udr("udr2", host, bridge)
    other.register_with(nrf)
    found = other.discover(NFType.UDR, {"udr": udr, "udr2": other})
    assert found is udr  # first registered instance wins


def test_discovery_of_missing_type_fails(host, bridge, nrf):
    udr = Udr("udr", host, bridge)
    udr.register_with(nrf)
    with pytest.raises(RuntimeError, match="no AMF instances"):
        udr.discover(NFType.AMF, {"udr": udr})


def test_discovery_requires_registration_first(host, bridge, nrf):
    udr = Udr("udr", host, bridge)
    with pytest.raises(RuntimeError, match="not registered"):
        udr.discover(NFType.UDR, {})


def test_bad_profile_rejected(host, bridge, nrf):
    from repro.net.sbi import NRF_REGISTER

    udr = Udr("udr", host, bridge)
    # Only declared fields are written: the NRF reads an empty profile.
    with pytest.raises(JsonApiError, match="NRF registration failed: 400") as caught:
        udr.call(nrf, NRF_REGISTER, {"garbage": True})
    assert caught.value.status == 400


def test_discover_unknown_type_rejected(host, bridge, nrf):
    from repro.net.sbi import NRF_DISCOVER

    udr = Udr("udr", host, bridge)
    with pytest.raises(JsonApiError, match="NRF discovery failed: 400") as caught:
        udr.call(nrf, NRF_DISCOVER, {"targetNfType": "XYZ"})
    assert caught.value.status == 400
