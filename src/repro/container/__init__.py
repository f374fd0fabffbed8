"""Container / NFV-infrastructure substrate.

Models the parts of the Docker stack the paper's deployment rests on:
images with layered filesystems (including the credential-in-image problem
of KI 27), a container engine (an *untrusted* entity in the threat model —
it can inspect the memory of plain containers) and an intra-host bridge
network with a latency model (the "OAI docker bridge" of Fig 4).
"""
