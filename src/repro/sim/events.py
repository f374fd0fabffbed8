"""Simulation event counts.

Components book what happened inside a run — enclave transitions and
OCALLs, frames, SBI requests, container starts — as one count per dotted
category (``sgx.ocall``, ``net.frame`` …).  Everything that reads the log
reads counts: Table III reports SGX transitions as counts, the scraper
exports them as counters.  *When* something happened, and between whom,
is a registration's span tree (:mod:`repro.obs.trace`), so the log keeps
no records, needs no bound and a count never goes down.
"""

from __future__ import annotations

from typing import Any, Dict


class EventLog:
    """Per-category event counts."""

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def add(self, category: str, n: int = 1) -> None:
        """Book ``n`` events of ``category``."""
        counts = self._counts
        counts[category] = counts.get(category, 0) + n

    def emit(self, timestamp_ns: int, category: str, **detail: Any) -> None:
        """:meth:`add` one event; the frozen hostbench's event kernel
        still calls it by this name, with a timestamp and detail."""
        self.add(category)

    def __len__(self) -> int:
        """Every event booked."""
        return sum(self._counts.values())

    def count(self, prefix: str) -> int:
        """Events whose category equals ``prefix`` or starts with ``prefix.``."""
        dotted = prefix + "."
        return sum(
            n for category, n in self._counts.items()
            if category == prefix or category.startswith(dotted)
        )
