"""Consistent-hash UE→shard partitioning for the scaled-out control plane.

A deployment scales the paper's single slice — one AMF ↔ AUSF ↔ UDM path
with its P-AKA module trio — by running N independent slices and pinning
every UE to exactly one of them, so each stateful exchange (AUSF auth
context between authenticate and confirm, eUDM key provisioning) lands
where its state lives.  The pinning is a **seeded consistent-hash ring**
over the shard labels: SUPI → shard, stable under slice addition (an
N+1 ring moves only ~1/(N+1) of the keys, so a scale-out event re-homes
the minimum number of subscribers).

Hashing is ``blake2b`` keyed by the ring seed — never Python's builtin
``hash`` — so a pick is bit-identical across processes and
``PYTHONHASHSEED`` values; the partitioned campaign driver
(:mod:`repro.experiments.shard`) relies on that to give every worker
process the same UE→shard assignment.
"""

from __future__ import annotations

from bisect import bisect_right
from hashlib import blake2b
from typing import Iterable, List

# Virtual nodes per physical node: enough for ±a few percent balance at
# small shard counts without making ring construction noticeable.
DEFAULT_VNODES = 64

# Ring seed for SUPI→shard picks.  This is a *deployment constant* —
# every layer must hash a SUPI to the same shard — not an experiment
# seed.
CONTROL_PLANE_RING_SEED = 0


class HashRing:
    """An immutable seeded consistent-hash ring mapping string keys to nodes.

    Nodes are placed at ``DEFAULT_VNODES`` pseudo-random points each
    (their position is a keyed hash of ``(node, replica_index)``); a key
    is served by the first node clockwise of the key's own hash point.
    """

    __slots__ = ("seed", "_points", "_owners")

    def __init__(self, nodes: Iterable[str], seed: int = 0) -> None:
        self.seed = int(seed)
        placed = sorted(
            (self._digest(f"node:{node}:{replica}"), node)
            for node in nodes
            for replica in range(DEFAULT_VNODES)
        )
        if not placed:
            raise ValueError("a ring needs at least one node")
        self._points: List[int] = [point for point, _ in placed]
        self._owners: List[str] = [node for _, node in placed]

    def _digest(self, data: str) -> int:
        key = self.seed.to_bytes(8, "big", signed=True)
        return int.from_bytes(
            blake2b(data.encode(), digest_size=8, key=key).digest(), "big"
        )

    def pick(self, key: str) -> str:
        """The node serving ``key`` (first node clockwise of its point)."""
        index = bisect_right(self._points, self._digest(f"key:{key}"))
        if index == len(self._points):
            index = 0  # wrap: the ring is circular
        return self._owners[index]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HashRing(nodes={sorted(set(self._owners))}, seed={self.seed})"


def shard_labels(shards: int) -> List[str]:
    """The canonical shard label set: ``["0", ..., str(shards - 1)]``."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return [str(index) for index in range(shards)]


def supi_ring(shards: int) -> HashRing:
    """The SUPI→shard ring every slice of a deployment agrees on.

    A pure function of ``shards``, which is what makes "a UE always
    lands on the same slice" hold without any coordination at runtime.
    """
    return HashRing(shard_labels(shards), seed=CONTROL_PLANE_RING_SEED)
