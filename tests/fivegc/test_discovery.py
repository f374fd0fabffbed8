"""NRF discovery: the bound peer is cached."""

import pytest

from repro.container.network import BridgeNetwork
from repro.fivegc.nrf import Nrf
from repro.fivegc.udm import Udm
from repro.fivegc.ausf import Ausf
from repro.net.sbi import NFType


@pytest.fixture
def fabric(host):
    """An NRF, a UDM and an AUSF, all registered."""
    bridge = BridgeNetwork(name="sbi", host=host)
    nrf = Nrf("nrf", host, bridge)
    udm = Udm("udm", host, bridge)
    ausf = Ausf("ausf", host, bridge)
    registry = {nf.name: nf for nf in (nrf, udm, ausf)}
    for nf in (udm, ausf):
        nf.register_with(nrf)
    return nrf, udm, ausf, registry


def test_second_discover_is_served_from_cache(fabric):
    nrf, udm, ausf, registry = fabric
    before = nrf.server.requests_served
    first = ausf.discover(NFType.UDM, registry)
    assert first is udm
    assert nrf.server.requests_served == before + 1
    second = ausf.discover(NFType.UDM, registry)
    assert second is first
    # No second NRF round-trip: the cache answered.
    assert nrf.server.requests_served == before + 1
