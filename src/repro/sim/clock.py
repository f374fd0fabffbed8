"""Simulated clock.

The clock is a plain nanosecond counter.  Components *advance* it by the
cost of the operations they model; measurement code *reads* it around an
operation to obtain the operation's simulated latency.  Because nothing
ever reads the host's wall clock, a run is exactly reproducible given the
same RNG seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000


class MeasurementNestingError(RuntimeError):
    """A ``measure()`` span was closed out of LIFO order.

    Spans are with-blocks, so in straight-line code they always nest; the
    error means measurement contexts were entered by hand (or through
    interleaved generators) and closed out of order, which would corrupt
    every still-open measurement.  This must stay a real exception — an
    ``assert`` would vanish under ``python -O`` and let the corruption
    pass silently.
    """


@dataclass
class TimeSpan:
    """A measured interval of simulated time, in nanoseconds.

    The span :meth:`SimClock.measure` returns is its own context manager:
    it is open (and on the clock's stack) from that call until the
    ``with`` block it heads exits, normally or by exception.
    """

    start_ns: int
    end_ns: int
    clock: Optional["SimClock"] = field(default=None, repr=False, compare=False)

    def __enter__(self) -> "TimeSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        clock = self.clock
        self.end_ns = clock.now_ns
        # Measurements nest (with-blocks), so the span being closed is
        # always the most recently opened one: pop O(1) instead of an
        # O(n) List.remove scan.
        stack = clock._open_measurements
        popped = stack.pop() if stack else None
        if popped is not self:
            raise MeasurementNestingError(
                "measure() spans must close LIFO: closing "
                f"[{self.start_ns}, ...] but the innermost open span is "
                f"{popped!r}"
            )

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def us(self) -> float:
        return (self.end_ns - self.start_ns) / NS_PER_US

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / NS_PER_MS

    @property
    def seconds(self) -> float:
        return self.ns / NS_PER_S

    @property
    def minutes(self) -> float:
        return self.seconds / 60.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TimeSpan({self.ns} ns = {self.us:.2f} us)"


@dataclass
class SimClock:
    """Monotonic simulated nanosecond clock.

    >>> clock = SimClock()
    >>> with clock.measure() as span:
    ...     clock.advance_us(5)
    >>> span.us
    5.0
    """

    now_ns: int = 0
    _open_measurements: List[TimeSpan] = field(default_factory=list, repr=False)

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

    def measure(self) -> TimeSpan:
        """Measure the simulated time spent inside the ``with`` block."""
        now_ns = self.now_ns
        span = TimeSpan(now_ns, now_ns, self)
        self._open_measurements.append(span)
        return span
