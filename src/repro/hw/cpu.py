"""CPU model: cycle→time conversion and SGX capability flags.

Latency costs across the SGX and Gramine models are expressed in CPU
cycles (matching how the literature reports enclave transition costs) and
converted to simulated nanoseconds through the CPU's clock frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

from repro.sim.clock import NS_PER_S, SimClock


@dataclass(frozen=True)
class CpuSpec:
    """Static description of a CPU package."""

    model: str
    frequency_hz: float
    physical_cores: int
    sgx_version: int  # 0 = no SGX, 1 = SGXv1, 2 = SGXv2 (EDMM capable)
    max_epc_bytes: int  # per-package EPC limit

    def __post_init__(self) -> None:
        if not self.frequency_hz > 0:
            raise ValueError(f"CPU frequency must be positive: {self.frequency_hz}")

    @property
    def sgx_capable(self) -> bool:
        return self.sgx_version >= 1


# The paper's testbed CPU: Intel Xeon Silver 4314 (SGXv2, 8 GB EPC/package).
XEON_SILVER_4314 = CpuSpec(
    model="Intel Xeon Silver 4314",
    frequency_hz=2.40e9,
    physical_cores=16,
    sgx_version=2,
    max_epc_bytes=8 * 1024**3,
)


@lru_cache(maxsize=8)
def _cycle_ns_table(
    frequency_hz: float, lo: int, hi: int
) -> Tuple[Optional[int], ...]:
    """See :meth:`Cpu.cycle_ns_table`; built once per process."""
    return (None,) * lo + tuple(
        [int(round(cycles * NS_PER_S / frequency_hz)) for cycles in range(lo, hi + 1)]
    )


class Cpu:
    """A CPU package bound to a simulated clock.

    All cost-model code converts cycles to time through :meth:`spend_cycles`
    so that a different CPU spec transparently rescales every latency.
    """

    def __init__(self, spec: CpuSpec, clock: SimClock) -> None:
        self.spec = spec
        self.clock = clock
        self._cycles_spent = 0

    @property
    def cycles_spent(self) -> int:
        """Total cycles accounted on this package since construction."""
        return self._cycles_spent

    def spend_cycles(self, cycles: float) -> None:
        """Advance simulated time by ``cycles`` at this CPU's frequency.

        The innermost frame of every simulated charge: it rounds and adds
        to the clock itself (the spec guarantees a positive frequency, so
        a non-negative charge never moves the clock backwards).
        """
        if cycles < 0:
            raise ValueError(f"negative cycle cost: {cycles}")
        self._cycles_spent += int(cycles)
        self.clock.now_ns += int(round(cycles * NS_PER_S / self.spec.frequency_hz))

    def round_cycle_cost(self, cycles: float) -> "tuple[int, int]":
        """The exact ``(cycles_spent, clock_ns)`` increments one
        :meth:`spend_cycles` call for ``cycles`` would apply.

        Hot paths that fuse several cycle charges into one clock update
        convert each component through this (same truncation, same
        rounding) and add the sums via :meth:`spend_preconverted`, so the
        fused charge is bit-identical to the unfused call sequence.
        """
        return int(cycles), int(round(cycles * NS_PER_S / self.spec.frequency_hz))

    def cycle_ns_table(self, lo: int, hi: int) -> Tuple[Optional[int], ...]:
        """``table[c] == round_cycle_cost(c)[1]`` for every integer cycle
        count ``lo <= c <= hi`` (``None`` below ``lo``, nothing above
        ``hi``, so a draw outside the domain fails loudly).

        For loops that convert thousands of small integer charges drawn
        from a known band: each entry is computed once by the very
        expression :meth:`round_cycle_cost` evaluates, so a lookup is
        that call's result, not an approximation of it.  Cached per
        ``(frequency, lo, hi)`` and shared by every CPU of that spec.
        """
        return _cycle_ns_table(self.spec.frequency_hz, lo, hi)

    def spend_preconverted(self, cycles_int: int, ns: int) -> None:
        """Apply pre-rounded increments from :meth:`round_cycle_cost` sums."""
        self._cycles_spent += cycles_int
        self.clock.now_ns += ns

    def cycles_to_ns(self, cycles: float) -> float:
        """Convert a cycle count to nanoseconds without spending them."""
        return cycles * 1e9 / self.spec.frequency_hz

    def ns_to_cycles(self, ns: float) -> float:
        return ns * self.spec.frequency_hz / 1e9
