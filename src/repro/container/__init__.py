"""Container / NFV-infrastructure substrate.

Models the parts of the Docker stack the paper's deployment rests on:
images with layered filesystems (including the credential-in-image problem
of KI 27), a container engine (an *untrusted* entity in the threat model —
it can inspect the memory of plain containers) and an intra-host bridge
network with a latency model (the "OAI docker bridge" of Fig 4).
"""

from repro.container.image import ContainerImage, FileEntry, ImageLayer
from repro.container.engine import Container, ContainerEngine, ContainerStatus
from repro.container.network import BridgeNetwork, NetworkEndpoint

__all__ = [
    "ContainerImage",
    "ImageLayer",
    "FileEntry",
    "Container",
    "ContainerEngine",
    "ContainerStatus",
    "BridgeNetwork",
    "NetworkEndpoint",
]
