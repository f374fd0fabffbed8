"""Structured simulation event log.

The experiment harness and the security evaluator both need to observe what
happened inside a run: enclave transitions, page faults, attack steps,
protocol messages.  Components append :class:`Event` records; consumers
filter by category.

The log sits on the simulator's hottest path (one ``sgx.ocall`` event per
simulated syscall in SGX mode) and is read far less often than it is
written, so booking an event must cost less than the work it books:

* :class:`Event` is a ``__slots__`` class — no per-instance ``__dict__``
  and no ``dataclass`` ``object.__setattr__`` machinery on construction,
* entries live in a :class:`collections.deque`, so the optional capacity
  trim is an O(1)-amortised ``popleft`` ring instead of a list-slice copy
  of the surviving half on every overflow,
* a replay that books many events of one category hands them over as one
  *burst* (:meth:`EventLog.emit_burst`): a single ring entry standing for
  all of them, turned into ordinary :class:`Event` objects only when
  somebody iterates or selects — a campaign that never reads its
  ``sgx.ocall`` events never builds them,
* the live event total and a per-category count index are maintained on
  every append and trim, so ``len()`` and :meth:`EventLog.count` never
  look at the ring and :meth:`EventLog.select` skips entries (whole
  bursts included) that cannot match.

The burst contract
------------------
``emit_burst(category, details, base_ns, ends)`` is, by definition, the
loop ``for detail, end in zip(details, ends): emit_shared(base_ns + end,
category, detail)``.  The log keeps *references* to ``details`` (the
caller's per-event detail dicts, shared across bursts and frozen after
the first emit, as for :meth:`EventLog.emit_shared`) and to ``ends`` (a
list or an ``array('q')``, which the caller may hand to
``Tracer.ocall_burst`` too; neither side mutates it).  Expansion is
non-destructive: every read builds equal events afresh.  The capacity
trim drops the oldest half of the *events*, so it can pop a burst whole
or advance its ``start`` offset part-way.  A burst that could push the
log across ``capacity`` — where the per-event loop would trim somewhere
in its middle — is not stored as a burst at all but emitted event by
event, which is what keeps the ring contents exactly the per-event
sequence at every capacity.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Optional, Sequence, Union


class Event:
    """One simulation event.

    ``category`` is a dotted namespace (``sgx.eenter``, ``attack.escape``,
    ``net.http.request`` …); ``detail`` carries event-specific fields.
    """

    __slots__ = ("timestamp_ns", "category", "detail")

    def __init__(
        self,
        timestamp_ns: int,
        category: str,
        detail: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.timestamp_ns = timestamp_ns
        self.category = category
        self.detail: Dict[str, Any] = {} if detail is None else detail

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Event(timestamp_ns={self.timestamp_ns}, "
            f"category={self.category!r}, detail={self.detail!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (
            self.timestamp_ns == other.timestamp_ns
            and self.category == other.category
            and self.detail == other.detail
        )

    # Defining __eq__ alone sets __hash__ to None and makes events
    # unusable in sets/dict keys.  Hash on the immutable identity fields
    # only: ``detail`` is a dict, so it cannot contribute, and leaving it
    # out keeps the invariant that equal events hash equal.
    def __hash__(self) -> int:
        return hash((self.timestamp_ns, self.category))


class _Burst:
    """One ring entry standing for the events ``start..len(ends)`` of an
    :meth:`EventLog.emit_burst` call (see the module docstring)."""

    __slots__ = ("category", "details", "base_ns", "ends", "start")

    def __init__(
        self,
        category: str,
        details: Sequence[Dict[str, Any]],
        base_ns: int,
        ends: Sequence[int],
    ) -> None:
        self.category = category
        self.details = details
        self.base_ns = base_ns
        self.ends = ends
        self.start = 0  # events before this offset were trimmed away

    def events(self) -> List[Event]:
        category, base_ns, start = self.category, self.base_ns, self.start
        return [
            Event(base_ns + end, category, detail)
            for detail, end in zip(self.details[start:], self.ends[start:])
        ]


class EventLog:
    """Append-only event trace with category filtering."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        self._entries: Deque[Union[Event, _Burst]] = deque()
        self._capacity = capacity
        # Live events (a burst counts for each event it still holds) in
        # total and per exact category; kept in lockstep with the ring so
        # len() and prefix counts never rescan it.
        self._size = 0
        self._counts: Dict[str, int] = {}

    def emit(self, timestamp_ns: int, category: str, **detail: Any) -> Event:
        return self.emit_shared(timestamp_ns, category, detail)

    def emit_shared(
        self, timestamp_ns: int, category: str, detail: Dict[str, Any]
    ) -> Event:
        """Append an event whose ``detail`` dict is *shared* with the caller.

        Semantics match :meth:`emit` except the dict is stored by
        reference instead of being built from kwargs — hot emitters keep
        one dict per syscall spec and reuse it across millions of
        events.  Callers must treat the dict as frozen after the first
        emit.
        """
        event = Event(timestamp_ns, category, detail)
        self._entries.append(event)
        counts = self._counts
        counts[category] = counts.get(category, 0) + 1
        size = self._size = self._size + 1
        if self._capacity is not None and size > self._capacity:
            # Drop the oldest half; the log is diagnostics, not ground truth.
            self._drop_oldest(size // 2)
        return event

    def emit_burst(
        self,
        category: str,
        details: Sequence[Dict[str, Any]],
        base_ns: int,
        ends: Sequence[int],
    ) -> None:
        """Book ``len(ends)`` events of one category as a single entry.

        Equivalent to :meth:`emit_shared` ``(base_ns + ends[i], category,
        details[i])`` for each ``i`` in order; see the module docstring
        for what the log keeps and when it falls back to exactly that
        loop.
        """
        n = len(ends)
        if self._capacity is not None and self._size + n > self._capacity:
            emit_shared = self.emit_shared
            for detail, end in zip(details, ends):
                emit_shared(base_ns + end, category, detail)
        elif n:
            self._entries.append(_Burst(category, details, base_ns, ends))
            counts = self._counts
            counts[category] = counts.get(category, 0) + n
            self._size += n

    def _drop_oldest(self, n: int) -> None:
        entries = self._entries
        counts = self._counts
        self._size -= n
        while n:
            head = entries[0]
            dropped = 1 if head.__class__ is Event else len(head.ends) - head.start
            if dropped <= n:
                entries.popleft()
            else:
                # Only part of a burst goes: it stays, starting later.
                dropped = n
                head.start += n
            n -= dropped
            remaining = counts[head.category] - dropped
            if remaining:
                counts[head.category] = remaining
            else:
                del counts[head.category]

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Event]:
        for entry in self._entries:
            if entry.__class__ is Event:
                yield entry
            else:
                yield from entry.events()

    def _count_matching(self, prefix: str, dotted: str) -> int:
        return sum(
            count
            for category, count in self._counts.items()
            if category == prefix or category.startswith(dotted)
        )

    def select(self, prefix: str) -> List[Event]:
        """All events whose category equals or starts with ``prefix.``."""
        dotted = prefix + "."
        selected: List[Event] = []
        if not self._count_matching(prefix, dotted):
            return selected
        for entry in self._entries:
            category = entry.category
            if category == prefix or category.startswith(dotted):
                if entry.__class__ is Event:
                    selected.append(entry)
                else:
                    selected.extend(entry.events())
        return selected

    def count(self, prefix: str) -> int:
        return self._count_matching(prefix, prefix + ".")

    def clear(self) -> None:
        self._entries.clear()
        self._counts.clear()
        self._size = 0
