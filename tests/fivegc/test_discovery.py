"""NRF discovery: response caching, invalidation, replica load balancing."""

import pytest

from repro.container.network import BridgeNetwork
from repro.fivegc.nf_base import CONTROL_PLANE_RING_SEED
from repro.fivegc.nrf import Nrf
from repro.fivegc.routing import supi_ring
from repro.fivegc.udm import Udm
from repro.fivegc.udr import Udr
from repro.fivegc.ausf import Ausf
from repro.net.sbi import NFType


@pytest.fixture
def fabric(host):
    """An NRF, a UDR and two sharded UDM replicas, all registered."""
    bridge = BridgeNetwork(name="sbi", host=host)
    nrf = Nrf("nrf", host, bridge)
    udr = Udr("udr", host, bridge)
    udms = [
        Udm("udm", host, bridge, shard="0"),
        Udm("udm-1", host, bridge, shard="1"),
    ]
    ausf = Ausf("ausf", host, bridge, shard="0")
    registry = {nf.name: nf for nf in (nrf, udr, *udms, ausf)}
    for nf in (udr, *udms, ausf):
        nf.register_with(nrf)
    return nrf, udr, udms, ausf, registry


def test_second_discover_is_served_from_cache(fabric):
    nrf, _, udms, ausf, registry = fabric
    before = nrf.server.requests_served
    first = ausf.discover(NFType.UDM, registry)
    assert nrf.server.requests_served == before + 1
    second = ausf.discover(NFType.UDM, registry)
    assert second is first
    # No second NRF round-trip: the cache answered.
    assert nrf.server.requests_served == before + 1


def test_refresh_forces_a_fresh_nrf_round_trip(fabric):
    nrf, _, udms, ausf, registry = fabric
    ausf.discover(NFType.UDM, registry)
    before = nrf.server.requests_served
    ausf.discover(NFType.UDM, registry, refresh=True)
    assert nrf.server.requests_served == before + 1


def test_discover_binds_same_shard_replica(fabric):
    _, _, udms, ausf, registry = fabric
    assert ausf.shard == "0"
    assert ausf.discover(NFType.UDM, registry) is udms[0]


def test_peer_for_follows_the_deployment_ring(fabric):
    _, _, udms, ausf, registry = fabric
    ausf.discover(NFType.UDM, registry)
    ring = supi_ring(2, seed=CONTROL_PLANE_RING_SEED)
    by_shard = {"0": udms[0], "1": udms[1]}
    for i in range(50):
        key = f"imsi-00101{i:010d}"
        assert ausf.peer_for(NFType.UDM, key) is by_shard[ring.pick(key)]


def test_peer_for_single_instance_skips_hashing(fabric):
    _, udr, _, ausf, registry = fabric
    ausf.discover(NFType.UDR, registry)
    assert ausf.peer_for(NFType.UDR, "imsi-001010000000001") is udr
