"""Base class for the core VNFs.

Each VNF owns an HTTPS server on the SBI bridge, an HTTPS client for
calling peers, and a keep-alive connection cache (the OAI VNFs hold SBI
connections open, which is why the paper's *stable* response times are
the steady-state metric).  VNFs register with the NRF at startup and
discover peers through it.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.container.network import BridgeNetwork, NetworkError
from repro.faults.resilience import CircuitBreaker
from repro.hw.host import PhysicalHost
from repro.net.http import HttpClient, HttpConnection, HttpError, HttpServer
from repro.net.rest import JsonApiError
from repro.net.sbi import (
    ANSWER,
    EXCHANGES,
    NRF_DISCOVER,
    NRF_REGISTER,
    REQUEST,
    NFProfile,
    NFType,
    decode,
    write,
)
from repro.runtime.base import Runtime
from repro.runtime.native import NativeRuntime


class NetworkFunction:
    """One control-plane VNF on the SBI bridge."""

    NF_TYPE = NFType.NRF  # overridden by subclasses

    def __init__(
        self,
        name: str,
        host: PhysicalHost,
        network: BridgeNetwork,
        runtime: Optional[Runtime] = None,
    ) -> None:
        self.name = name
        self.host = host
        self.network = network
        self.runtime = runtime or NativeRuntime(name, host)
        self.server = HttpServer(name=name, runtime=self.runtime, network=network)
        self.client = HttpClient(
            name=f"{name}-client", runtime=self.runtime, network=network
        )
        self._connections: Dict[str, HttpConnection] = {}
        # Bound peers: the NRF (register_with) and one per discovered NF
        # type; repeated discover() calls are served from here.
        self._peers: Dict[NFType, "NetworkFunction"] = {}
        # Resilience: SBI retries (off = single attempt, the
        # pre-resilience hot path) and a per-peer circuit breaker so a
        # dead peer fails fast instead of wedging every caller.
        self.retry = False
        self.circuit_breakers: Dict[str, CircuitBreaker] = {}
        self.profile = NFProfile(
            nf_instance_id=f"{name}-0001",
            nf_type=self.NF_TYPE,
            endpoint_name=name,
            services=[],
        )
        self._register_routes()
        self.server.start()

    # ------------------------------------------------------------- routing

    def _register_routes(self) -> None:
        """Subclasses register their SBI endpoints here
        (:func:`repro.net.sbi.serve`)."""

    # ----------------------------------------------------- peer connections

    def call(self, peer: Any, endpoint: str, fields: Dict[str, Any]) -> Any:
        """One SBI exchange with ``peer`` (an NF or a P-AKA module) over
        the cached connection, written and read by ``endpoint``'s row of
        :data:`~repro.net.sbi.EXCHANGES`: returns the decoded answer.

        Every failure is a :class:`JsonApiError`, so handlers up the call
        chain degrade into error answers (an AuthenticationReject at the
        AMF) instead of unwinding the whole NAS exchange: an answer of
        another status than the row's is the row's refusal, a malformed
        one a 502, and a transport failure — timeouts, lost frames, dead
        endpoints — a 503.  A per-peer circuit breaker fails fast while
        a peer is known-dead.
        """
        server = peer.server
        exchange = EXCHANGES[endpoint]
        breaker = self.circuit_breakers.get(server.name)
        if breaker is None:
            breaker = self.circuit_breakers[server.name] = CircuitBreaker(
                name=f"{self.name}->{server.name}"
            )
        if not breaker.try_acquire(self.host.clock.now_ns):
            raise JsonApiError(
                503, f"{self.name}: circuit to {server.name} open"
            )
        body = write(endpoint, fields, REQUEST)
        try:
            connection = self._connections.get(server.name)
            if connection is None or not connection.open:
                connection = self.client.connect(server)
                self._connections[server.name] = connection
            response = self.client.request(
                connection, exchange.method, endpoint, body=body, retry=self.retry
            )
        except (HttpError, NetworkError) as exc:
            # The TLS record stream may be desynchronized mid-exchange:
            # poison the cached connection so the next call re-handshakes.
            stale = self._connections.get(server.name)
            if stale is not None:
                stale.open = False
            breaker.record_failure(self.host.clock.now_ns)
            raise JsonApiError(
                503, f"{self.name}: {server.name} unreachable: {exc}"
            )
        breaker.record_success()
        if response.status != exchange.status:
            status, text = exchange.refused
            raise JsonApiError(
                status or response.status,
                text.format(status=response.status, server=exchange.server),
            )
        return decode(endpoint, response.body, ANSWER)

    # -------------------------------------------------------- NRF plumbing

    def register_with(self, nrf: "NetworkFunction") -> None:
        """Register this NF's profile with the NRF (Nnrf_NFManagement)."""
        self.call(nrf, NRF_REGISTER, self.profile.to_dict())
        self._peers[NFType.NRF] = nrf

    def discover(
        self,
        nf_type: NFType,
        registry: Dict[str, "NetworkFunction"],
    ) -> "NetworkFunction":
        """Discover peers of ``nf_type`` through the NRF and bind one.

        ``registry`` maps endpoint names to live NF objects (the simulation's
        address resolution; the NRF response supplies the endpoint name).

        The bind is **cached**: repeated calls are answered locally
        with no NRF round-trip.  It is deterministic: the first profile
        of the NRF's canonically sorted response.  A refused or malformed
        answer is a ``JsonApiError`` and binds nothing.
        """
        if nf_type in self._peers:
            return self._peers[nf_type]

        nrf = self._peers.get(NFType.NRF)
        if nrf is None:
            raise RuntimeError(f"{self.name}: not registered with an NRF yet")
        profiles = self.call(nrf, NRF_DISCOVER, {"targetNfType": nf_type.value})["nfInstances"]
        if not profiles:
            raise RuntimeError(f"{self.name}: no {nf_type.value} instances registered")

        for profile in profiles:
            if profile.endpoint_name not in registry:
                raise RuntimeError(
                    f"{self.name}: discovered unknown endpoint "
                    f"{profile.endpoint_name!r}"
                )
        picked = registry[profiles[0].endpoint_name]
        self._peers[nf_type] = picked
        return picked

    def peer(self, nf_type: NFType) -> "NetworkFunction":
        try:
            return self._peers[nf_type]
        except KeyError:
            raise RuntimeError(f"{self.name}: no bound peer of type {nf_type.value}")

    # ------------------------------------------------------------- metrics

    def collect_metrics(self, registry) -> None:
        """Snapshot this VNF (server, client, breakers) into a registry."""
        self.server.collect_metrics(registry)
        self.client.collect_metrics(registry)
        for peer_name, breaker in sorted(self.circuit_breakers.items()):
            labels = {"nf": self.name, "peer": peer_name}
            # Passive reads only (allow() is pure; try_acquire() would
            # book a fast failure or steal the half-open probe slot, and
            # collection must never perturb the simulation).
            registry.gauge("circuit_breaker_open", **labels).set(
                1.0 if breaker.open else 0.0
            )
            registry.counter("circuit_breaker_opens_total", **labels).set(
                breaker.times_opened
            )
            registry.counter("circuit_breaker_fast_failures_total", **labels).set(
                breaker.fast_failures
            )

    # ----------------------------------------------------------- lifecycle

    def shutdown(self) -> None:
        for connection in self._connections.values():
            if connection.open:
                self.client.close(connection)
        self._connections.clear()
        self.server.stop()
        self.runtime.shutdown()
