"""Client-side resilience primitives for the SBI plane.

:class:`repro.net.http.RetryPolicy` covers the request path; the :class:`CircuitBreaker` sits one layer up, in
:class:`repro.fivegc.nf_base.NetworkFunction`, so an NF whose peer is
known-dead fails fast — a 503 in microseconds instead of burning a full
timeout-and-retry ladder per call while the peer reloads its enclave.
All timing is simulated-clock nanoseconds; nothing here draws from any
RNG, so breakers add zero nondeterminism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class CircuitBreaker:
    """A per-peer breaker: closed → open after N consecutive transport
    failures, half-open (single probe) after a cooldown.

    Call-path contract: gate each call through :meth:`try_acquire` (which
    claims the single half-open probe slot and books ``fast_failures``),
    then report the result via :meth:`record_success` /
    :meth:`record_failure`.
    """

    name: str = ""
    failure_threshold: int = 3
    cooldown_us: float = 5_000_000.0

    consecutive_failures: int = 0
    opened_at_ns: Optional[int] = None
    # While open, exactly one caller may hold the half-open probe slot.
    probe_in_flight: bool = False
    # Accounting for the availability experiment.
    times_opened: int = 0
    fast_failures: int = 0

    @property
    def open(self) -> bool:
        return self.opened_at_ns is not None

    def _cooldown_elapsed(self, now_ns: int) -> bool:
        assert self.opened_at_ns is not None
        return now_ns - self.opened_at_ns >= int(self.cooldown_us * 1_000)

    def try_acquire(self, now_ns: int) -> bool:
        """Admit one call at ``now_ns`` (the mutating call-path gate).

        Closed: always admitted.  Open with the cooldown elapsed: the
        *first* caller claims the half-open probe slot; every concurrent
        caller fails fast until that probe reports back.  Open otherwise:
        fail fast.
        """
        if self.opened_at_ns is None:
            return True
        if not self.probe_in_flight and self._cooldown_elapsed(now_ns):
            self.probe_in_flight = True
            return True
        self.fast_failures += 1
        return False

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.opened_at_ns = None
        self.probe_in_flight = False

    def record_failure(self, now_ns: int) -> None:
        was_probe = self.probe_in_flight
        self.probe_in_flight = False
        self.consecutive_failures += 1
        if not was_probe and self.consecutive_failures < self.failure_threshold:
            return
        # Every transition into the open state counts — including a
        # failed half-open probe re-opening after a cooldown (each is a
        # distinct fail-fast episode in the E-AVAIL accounting).
        if self.opened_at_ns is None or was_probe:
            self.times_opened += 1
        self.opened_at_ns = now_ns
