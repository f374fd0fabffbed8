"""Consistent-hash UE→shard routing for the sharded control plane.

The million-UE scale-out replicates the serving path — AMF, AUSF and UDM
— into N *replica sets* ("slices"): ``amf-k`` is bound to ``ausf-k`` is
bound to ``udm-k``, and a UE is pinned to exactly one slice for its whole
registration so every stateful exchange (AUSF auth context between
authenticate and confirm, eUDM key provisioning) lands where its state
lives.  The pinning is a **seeded consistent-hash ring** over the shard
labels: SUPI → shard, stable under replica addition (adding one replica
to an N-ring moves only ~1/(N+1) of the keys, so a scale-out event
re-homes the minimum number of subscribers).

Hashing is ``blake2b`` keyed by the ring seed — never Python's builtin
``hash`` — so a pick is bit-identical across processes and
``PYTHONHASHSEED`` values; the partitioned simulation driver
(:mod:`repro.experiments.shard`) relies on that to give worker processes
the exact same UE→shard assignment the in-process testbed would compute.
"""

from __future__ import annotations

from bisect import bisect_right
from hashlib import blake2b
from typing import Dict, Iterable, List, Tuple

# Virtual nodes per physical node: enough for ±a few percent balance at
# small replica counts without making ring construction noticeable.
DEFAULT_VNODES = 64


class HashRing:
    """A seeded consistent-hash ring mapping string keys to nodes.

    Nodes are placed at ``vnodes`` pseudo-random points each (their
    position is a keyed hash of ``(node, replica_index)``); a key is
    served by the first node clockwise of the key's own hash point.
    """

    __slots__ = ("seed", "vnodes", "_points", "_owners", "_nodes")

    def __init__(
        self,
        nodes: Iterable[str] = (),
        seed: int = 0,
        vnodes: int = DEFAULT_VNODES,
    ) -> None:
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.seed = int(seed)
        self.vnodes = vnodes
        self._points: List[int] = []
        self._owners: List[str] = []
        self._nodes: List[str] = []
        for node in nodes:
            self.add(node)

    # ------------------------------------------------------------- hashing

    def _digest(self, data: str) -> int:
        key = self.seed.to_bytes(8, "big", signed=True)
        return int.from_bytes(
            blake2b(data.encode(), digest_size=8, key=key).digest(), "big"
        )

    # ------------------------------------------------------------ mutation

    def add(self, node: str) -> None:
        """Place ``node`` on the ring (idempotent for duplicate adds)."""
        node = str(node)
        if node in self._nodes:
            return
        self._nodes.append(node)
        for replica in range(self.vnodes):
            point = self._digest(f"node:{node}:{replica}")
            index = bisect_right(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, node)

    # -------------------------------------------------------------- lookup

    def pick(self, key: str) -> str:
        """The node serving ``key`` (first node clockwise of its point)."""
        if not self._nodes:
            raise RuntimeError("cannot pick from an empty ring")
        point = self._digest(f"key:{key}")
        index = bisect_right(self._points, point)
        if index == len(self._points):
            index = 0  # wrap: the ring is circular
        return self._owners[index]

    @property
    def nodes(self) -> Tuple[str, ...]:
        return tuple(sorted(self._nodes))

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HashRing(nodes={self.nodes}, seed={self.seed})"


def shard_labels(shards: int) -> List[str]:
    """The canonical shard label set: ``["0", ..., str(shards - 1)]``."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return [str(index) for index in range(shards)]


def supi_ring(shards: int, seed: int = 0) -> HashRing:
    """The SUPI→shard ring every layer of a deployment agrees on.

    The gNB (entry point), the SBI discovery pick and the partitioned
    simulation driver all build this exact ring from ``(shards, seed)``,
    which is what makes "a UE always lands on the same AMF/AUSF/UDM
    slice" hold without any coordination at runtime.
    """
    return HashRing(shard_labels(shards), seed=seed)


class ControlPlaneRouter:
    """SUPI → AMF replica, via the shared ring over shard labels.

    The gNB consults this at the N2 boundary; one router is shared by
    every gNB of a testbed.  ``amfs_by_shard`` maps shard label → the
    AMF instance serving that slice.
    """

    __slots__ = ("ring", "_amfs")

    def __init__(self, ring: HashRing, amfs_by_shard: Dict[str, object]) -> None:
        missing = set(ring.nodes) - set(amfs_by_shard)
        if missing:
            raise ValueError(f"ring shards without an AMF: {sorted(missing)}")
        self.ring = ring
        self._amfs = dict(amfs_by_shard)

    def shard_for(self, supi: str) -> str:
        return self.ring.pick(str(supi))

    def amf_for(self, supi: str):
        return self._amfs[self.ring.pick(str(supi))]
