"""Intra-host bridge network (the "OAI docker bridge" of Fig 4).

A bridge connects endpoints on the same host through veth pairs; transit
cost is a fixed per-hop latency plus a per-byte serialization cost, with
jitter.  The network substrate is an *observation point* for the threat
model too: an on-path privileged attacker can capture frames — which is
why tests assert that captured AKA exchanges are TLS ciphertext.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.hw.host import PhysicalHost


class NetworkError(Exception):
    """Unroutable destination or endpoint misuse."""


class FrameLost(NetworkError):
    """A frame dropped on the wire (injected link loss).

    The sender only learns about it by timing out: HTTP clients convert
    this into a ``RequestTimeout`` after charging the response deadline.
    """


@dataclass
class Frame:
    """One captured frame (source, destination, raw payload bytes)."""

    src: str
    dst: str
    payload: bytes
    timestamp_ns: int


@dataclass
class NetworkEndpoint:
    """One attachment to the bridge (a container's veth)."""

    name: str
    network: "BridgeNetwork"
    deliver: Optional[Callable[[Frame], None]] = None


@dataclass
class BridgeNetwork:
    """A named bridge with a latency model and a capture facility."""

    name: str
    host: PhysicalHost
    base_latency_us: float = 70.0  # veth pair + bridge + TCP/TLS kernel path
    per_kb_latency_us: float = 1.6
    _endpoints: Dict[str, NetworkEndpoint] = field(default_factory=dict)
    _captures: List[Frame] = field(default_factory=list)
    capture_enabled: bool = False
    # Fault-injection hook: called per frame with (src, dst, nbytes) and
    # returns extra transit latency in µs, or None to drop the frame.
    # Stays None in fault-free runs, costing nothing on the hot path.
    link_filter: Optional[Callable[[str, str, int], Optional[float]]] = None

    def __post_init__(self) -> None:
        self._jitter_stream = f"net.{self.name}"  # named once, drawn per frame

    def attach(self, name: str) -> NetworkEndpoint:
        if name in self._endpoints:
            raise NetworkError(f"endpoint {name!r} already attached to {self.name!r}")
        endpoint = NetworkEndpoint(name=name, network=self)
        self._endpoints[name] = endpoint
        return endpoint

    def detach(self, name: str) -> None:
        self._endpoints.pop(name, None)

    def transit_latency_us(self, nbytes: int) -> float:
        mean = self.base_latency_us + self.per_kb_latency_us * (nbytes / 1024.0)
        return self.host.rng.jitter(self._jitter_stream, mean, 0.06)

    def transmit(self, src: str, dst: str, payload: bytes) -> None:
        """Move one frame across the bridge, advancing the clock."""
        if dst not in self._endpoints:
            raise NetworkError(f"no route from {src!r} to {dst!r} on {self.name!r}")
        clock = self.host.clock
        nbytes = len(payload)
        extra_us = 0.0
        if self.link_filter is not None:
            verdict = self.link_filter(src, dst, nbytes)
            if verdict is None:
                # The frame burns its transit time and vanishes; the
                # sender discovers the loss only through its timeout.
                clock.advance_us(self.transit_latency_us(nbytes))
                self.host.events.emit(
                    clock.now_ns, "net.drop", src=src, dst=dst, nbytes=nbytes,
                )
                raise FrameLost(f"frame {src!r}->{dst!r} lost on {self.name!r}")
            extra_us = verdict
        clock.advance_us(self.transit_latency_us(nbytes) + extra_us)
        arrived_ns = clock.now_ns
        self.host.events.emit_shared(
            arrived_ns, "net.frame", {"src": src, "dst": dst, "nbytes": nbytes}
        )
        # A Frame exists only for whoever looks at one: the on-path
        # capture and a receiver's deliver hook.
        deliver = self._endpoints[dst].deliver
        if self.capture_enabled or deliver is not None:
            frame = Frame(src=src, dst=dst, payload=payload, timestamp_ns=arrived_ns)
            if self.capture_enabled:
                self._captures.append(frame)
            if deliver is not None:
                deliver(frame)

    # ------------------------------------------------------------- capture

    def start_capture(self) -> None:
        """Begin recording frames (the on-path attacker's tcpdump)."""
        self.capture_enabled = True

    def stop_capture(self) -> List[Frame]:
        self.capture_enabled = False
        captured, self._captures = self._captures, []
        return captured
