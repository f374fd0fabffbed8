"""Heap-ordered deadline scheduler for simulated-time tick machinery.

The fault injector and monitoring scrapers are driven by ``tick()`` calls
sprinkled through the driving loops (one per arrival, one per idle
slice).  Naively each tick rescans every fault window / cadence grid to
decide whether anything changed — linear in the plan size, paid even on
the overwhelmingly common *idle* tick where no window edge was crossed.

:class:`EventScheduler` turns those scans into a deadline heap: callers
register callbacks at absolute deadlines once (e.g. at
``FaultInjector.arm``), and each tick asks :meth:`run_due` to fire the
callbacks whose deadline has passed.  An idle tick costs one comparison
against the heap root (O(1)); a tick that crosses ``k`` edges costs
O(k log n).

Determinism: deadlines are simulated nanoseconds and ties are broken by
registration order (a monotone sequence number), so a given schedule
replays the same callback order on every run — the scheduler itself
never reads a wall clock and never draws randomness.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple


class EventScheduler:
    """Min-heap of ``(deadline_ns, seq, callback)`` entries."""

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Callable[[], Any]]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    @property
    def next_deadline_ns(self) -> Optional[int]:
        """Earliest pending deadline, or ``None`` when the heap is empty."""
        heap = self._heap
        return heap[0][0] if heap else None

    def schedule_at(self, deadline_ns: int, callback: Callable[[], Any]) -> None:
        """Register ``callback`` to fire at the first ``run_due(now)`` with
        ``now >= deadline_ns``.  Callbacks at equal deadlines fire in
        registration order."""
        heapq.heappush(self._heap, (deadline_ns, self._seq, callback))
        self._seq += 1

    def run_due(self, now_ns: int) -> int:
        """Fire every callback whose deadline is ``<= now_ns``; returns the
        number fired.  The idle path — heap empty or root still in the
        future — is a single comparison."""
        heap = self._heap
        if not heap or heap[0][0] > now_ns:
            return 0
        fired = 0
        pop = heapq.heappop
        while heap and heap[0][0] <= now_ns:
            pop(heap)[2]()
            fired += 1
        return fired
