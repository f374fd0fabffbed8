"""Simulated clock.

The clock is a plain nanosecond counter.  Components *advance* it by the
cost of the operations they model; measurement code *reads* it before
and after an operation to obtain the operation's simulated latency.
Because nothing ever reads the host's wall clock, a run is exactly
reproducible given the same RNG seed.
"""

from __future__ import annotations

from dataclasses import dataclass

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000


@dataclass(frozen=True)
class TimeSpan:
    """A window of simulated time between two clock reads, in nanoseconds."""

    start_ns: int
    end_ns: int

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def seconds(self) -> float:
        return self.ns / NS_PER_S

    @property
    def minutes(self) -> float:
        return self.seconds / 60.0


@dataclass
class SimClock:
    """Monotonic simulated nanosecond clock.

    >>> clock = SimClock()
    >>> start = clock.now_ns
    >>> clock.advance_us(5)
    >>> TimeSpan(start, clock.now_ns).ns
    5000
    """

    now_ns: int = 0

    def advance(self, ns: int) -> None:
        """Advance the clock by ``ns`` nanoseconds (must be non-negative)."""
        if ns < 0:
            raise ValueError(f"cannot advance clock by negative time: {ns}")
        self.now_ns += int(ns)

    # The unit helpers are the innermost frame of every simulated charge,
    # so each checks its own bounds and adds to ``now_ns`` itself instead
    # of hopping through :meth:`advance` (a CPU charge adds its own, see
    # :meth:`repro.hw.cpu.Cpu.spend_cycles`).

    def advance_us(self, us: float) -> None:
        ns = int(round(us * NS_PER_US))
        if ns < 0:
            raise ValueError(f"cannot advance clock by negative time: {ns}")
        self.now_ns += ns

    def advance_ms(self, ms: float) -> None:
        ns = int(round(ms * NS_PER_MS))
        if ns < 0:
            raise ValueError(f"cannot advance clock by negative time: {ns}")
        self.now_ns += ns

    def advance_s(self, seconds: float) -> None:
        ns = int(round(seconds * NS_PER_S))
        if ns < 0:
            raise ValueError(f"cannot advance clock by negative time: {ns}")
        self.now_ns += ns
