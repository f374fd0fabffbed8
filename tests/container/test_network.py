"""Bridge network: latency model, routing, capture."""

import pytest

from repro.container.network import BridgeNetwork, NetworkError


@pytest.fixture
def bridge(host):
    return BridgeNetwork(name="oai-bridge", host=host)


def test_attach_and_send(bridge, host):
    bridge.attach("udm")
    bridge.attach("eudm")
    t0 = host.clock.now_ns
    bridge.transmit("udm", "eudm", b"payload")
    assert host.clock.now_ns > t0


def test_duplicate_endpoint_rejected(bridge):
    bridge.attach("udm")
    with pytest.raises(NetworkError):
        bridge.attach("udm")


def test_unroutable_destination(bridge):
    bridge.attach("udm")
    with pytest.raises(NetworkError):
        bridge.transmit("udm", "ghost", b"x")


def test_detach_removes_route(bridge):
    bridge.attach("udm")
    bridge.attach("eudm")
    bridge.detach("eudm")
    with pytest.raises(NetworkError):
        bridge.transmit("udm", "eudm", b"x")


def test_latency_scales_with_size(bridge):
    small = [bridge.transit_latency_us(64) for _ in range(50)]
    large = [bridge.transit_latency_us(64 * 1024) for _ in range(50)]
    assert sum(large) / len(large) > sum(small) / len(small)


def test_delivery_callback(bridge):
    bridge.attach("udm")
    receiver = bridge.attach("eudm")
    received = []
    receiver.deliver = received.append
    bridge.transmit("udm", "eudm", b"hello")
    assert len(received) == 1
    assert received[0].payload == b"hello"
    assert received[0].src == "udm"


def test_capture_records_frames(bridge):
    bridge.attach("udm")
    bridge.attach("eudm")
    bridge.start_capture()
    bridge.transmit("udm", "eudm", b"secret-exchange")
    frames = bridge.stop_capture()
    assert len(frames) == 1
    assert frames[0].payload == b"secret-exchange"
    # capture is drained and disabled afterwards
    bridge.transmit("udm", "eudm", b"after")
    assert bridge.stop_capture() == []


def test_frames_logged_as_events(bridge, host):
    bridge.attach("udm")
    bridge.attach("eudm")
    before = host.events.count("net.frame")
    bridge.transmit("udm", "eudm", b"x")
    assert host.events.count("net.frame") == before + 1
