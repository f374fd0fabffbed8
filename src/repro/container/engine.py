"""Container engine (containerd/Docker stand-in).

The engine creates containers from images and attaches them to bridges.
In the paper's threat model the engine is **untrusted**: an attacker who
compromises it can inspect any plain container's memory
(:meth:`ContainerEngine.introspect_memory`) — but gets only MEE ciphertext
from a GSC/SGX container, because the runtime inside is an enclave.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional

from repro.container.image import ContainerImage
from repro.container.network import BridgeNetwork, NetworkEndpoint
from repro.hw.host import PhysicalHost
from repro.runtime.base import Runtime
from repro.runtime.native import NativeRuntime


class ContainerError(Exception):
    """Engine-level failure (duplicate name, bad state transition …)."""


class ContainerStatus(Enum):
    CREATED = "created"
    RUNNING = "running"
    EXITED = "exited"


# A factory lets the GSC path supply an enclave-backed runtime while plain
# containers default to NativeRuntime.
RuntimeFactory = Callable[[str, PhysicalHost], Runtime]


@dataclass
class Container:
    """A running (or stopped) container instance."""

    name: str
    image: ContainerImage
    host: PhysicalHost
    runtime: Runtime
    status: ContainerStatus = ContainerStatus.CREATED
    endpoint: Optional[NetworkEndpoint] = None
    start_timestamp_ns: int = 0

    def stop(self) -> None:
        if self.status is ContainerStatus.RUNNING:
            self.runtime.shutdown()
            self.status = ContainerStatus.EXITED
            if self.endpoint is not None:
                self.endpoint.network.detach(self.endpoint.name)
                self.endpoint = None


class ContainerEngine:
    """Per-host container engine."""

    # Cold-start cost of a plain container (runc + cgroup + netns setup).
    _CONTAINER_START_MS = 380.0

    def __init__(self, host: PhysicalHost) -> None:
        self.host = host
        self._containers: Dict[str, Container] = {}
        self._networks: Dict[str, BridgeNetwork] = {}

    # ------------------------------------------------------------ networks

    def create_network(self, name: str, **kwargs: float) -> BridgeNetwork:
        if name in self._networks:
            raise ContainerError(f"network {name!r} already exists")
        network = BridgeNetwork(name=name, host=self.host, **kwargs)
        self._networks[name] = network
        return network

    def network(self, name: str) -> BridgeNetwork:
        try:
            return self._networks[name]
        except KeyError:
            raise ContainerError(f"no network {name!r}")

    # ---------------------------------------------------------- containers

    def run(
        self,
        image: ContainerImage,
        name: str,
        network: Optional[str] = None,
        runtime_factory: Optional[RuntimeFactory] = None,
    ) -> Container:
        """Create and start a container (``docker run``)."""
        if name in self._containers:
            raise ContainerError(f"container name {name!r} already in use")
        factory = runtime_factory or (
            lambda cname, host: NativeRuntime(cname, host)
        )
        # Engine-side start latency before the workload runs.
        self.host.clock.advance_ms(
            self.host.rng.jitter("engine.start", self._CONTAINER_START_MS, 0.05)
        )
        runtime = factory(name, self.host)
        container = Container(name=name, image=image, host=self.host, runtime=runtime)
        if network is not None:
            container.endpoint = self.network(network).attach(name)
        container.status = ContainerStatus.RUNNING
        container.start_timestamp_ns = self.host.clock.now_ns
        self._containers[name] = container
        self.host.events.emit(
            self.host.clock.now_ns, "engine.run", container=name,
            image=image.reference, shielded=runtime.shielded,
        )
        return container

    def get(self, name: str) -> Container:
        try:
            return self._containers[name]
        except KeyError:
            raise ContainerError(f"no container {name!r}")

    def ps(self) -> List[Container]:
        return [c for c in self._containers.values() if c.status is ContainerStatus.RUNNING]

    def remove(self, name: str) -> None:
        container = self._containers.pop(name, None)
        if container is not None:
            container.stop()

    # -------------------------------------------------- attack primitives

    def introspect_memory(self, name: str, actor: str = "container-engine") -> bytes:
        """Read a container's memory as a (possibly compromised) engine.

        Plain containers yield their secrets in plaintext; enclave-backed
        containers yield MEE ciphertext.  This is KI 7/15's attack
        primitive.
        """
        return self.get(name).runtime.memory_view(actor)
