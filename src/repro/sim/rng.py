"""Namespaced deterministic random streams.

Each subsystem asks the service for a stream by name.  Streams are seeded
from the master seed and the name, so adding randomness to one subsystem
never perturbs another subsystem's draws — experiments stay comparable
across code changes.

A stream belongs to whatever draws from it.  :meth:`RngService.stream`
is for long-lived components (a cost model, an NF, the fault injector):
the service keeps the stream so every caller of that name continues it.
:meth:`RngService.fresh_stream` is for per-UE material — a subscriber
key drawn once, a UE's ECIES ephemerals — where 2.5 kB of Mersenne state
per name, kept for the life of the process, is what a million-UE
campaign cannot afford: the caller holds the stream and it dies with
its owner, so ``len(service._streams)`` is O(components), not O(UEs).
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def draw_bytes(stream: random.Random, n: int) -> bytes:
    """Draw ``n`` random bytes from ``stream``."""
    if n <= 0:
        return b""
    # ``getrandbits(8)`` is the top byte of one 32-bit Mersenne word,
    # and ``getrandbits(32 * n)`` is ``n`` whole words, first word
    # lowest: byte 3 of every little-endian word is the per-byte
    # sequence, drawn in one call with the stream left where ``n``
    # single draws would leave it.
    return stream.getrandbits(32 * n).to_bytes(4 * n, "little")[3::4]


class RngService:
    """Factory of named, independently seeded :class:`random.Random` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def fresh_stream(self, name: str) -> random.Random:
        """A new stream at the start of ``name``'s sequence, owned by the
        caller: the service does not keep it, and :meth:`stream` of the
        same name neither sees nor is moved by its draws."""
        digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def stream(self, name: str) -> random.Random:
        """Return the service-kept stream for ``name``, creating it
        deterministically on first use."""
        try:
            return self._streams[name]
        except KeyError:
            stream = self._streams[name] = self.fresh_stream(name)
            return stream

    def randbytes(self, name: str, n: int) -> bytes:
        """Draw ``n`` random bytes from the named stream."""
        return draw_bytes(self.stream(name), n)

    def jitter(self, name: str, mean: float, rel_sigma: float = 0.03) -> float:
        """A positive gaussian jitter multiplier sample around ``mean``.

        Used by cost models to turn point costs into realistic
        distributions.  Clamped at 10% of the mean so a pathological draw
        can never produce a non-positive cost.  Hot callers build ``name``
        once, where they are built.
        """
        stream = self._streams.get(name) or self.stream(name)
        value = stream.gauss(mean, abs(mean) * rel_sigma)
        return max(value, 0.1 * mean)
