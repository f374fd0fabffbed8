"""SGX cycle-cost model.

All constants are in CPU cycles so they rescale with the host frequency.
The transition pair cost (EENTER + EEXIT) is drawn uniformly from the
10 000–18 000 cycle band the paper cites (§II-B, refs [18], [19]); the
remaining constants are calibration values chosen so the reproduction's
latency distributions land in the paper's reported bands (see DESIGN.md §5
and EXPERIMENTS.md for paper-vs-measured).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.sim.rng import RngService


@dataclass(frozen=True)
class SgxCostModel:
    """Cycle costs of SGX micro-operations."""

    # Transition pair (EENTER + EEXIT) drawn uniformly from this band,
    # split between the two instructions.
    transition_pair_min_cycles: int = 10_000
    transition_pair_max_cycles: int = 18_000

    # AEX is cheaper than a full ECALL path; ERESUME cheaper than EENTER.
    aex_cycles: int = 4_200
    eresume_cycles: int = 3_000

    # Enclave build: per-page EADD and per-256-byte-chunk EEXTEND.
    ecreate_cycles: int = 40_000
    eadd_page_cycles: int = 1_900
    eextend_chunk_cycles: int = 650  # 16 chunks per 4 KiB page
    einit_cycles: int = 80_000

    # EPC paging (EWB/ELDU): evict = encrypt + version, load = decrypt + verify.
    page_fault_cycles: int = 12_500
    page_evict_cycles: int = 9_000
    # First touch of a resident-but-cold EPC page within a call (MEE fill).
    cold_page_access_cycles: int = 830

    # Crossing the boundary copies and re-validates buffers.
    boundary_copy_cycles_per_byte: float = 3.1

    # Memory Encryption Engine penalty on in-enclave, memory-bound compute.
    epc_compute_penalty: float = 1.10

    @property
    def transition_cycle_bounds(self) -> "tuple[int, int]":
        """The smallest EEXIT and the largest EENTER cycle cost a drawn
        pair can split into — the domain of a per-frequency ns table."""
        return (
            int(self.transition_pair_min_cycles * 0.45),
            int(self.transition_pair_max_cycles * 0.55),
        )

    def draw_transition_pair(self, rng: RngService, stream: str) -> "tuple[int, int]":
        """Sample an (EENTER, EEXIT) cycle cost pair from the 10k–18k band."""
        return self.draw_transition_pair_from(rng.stream(stream))

    def draw_transition_pair_from(self, stream: random.Random) -> "tuple[int, int]":
        """Like :meth:`draw_transition_pair` on an already-resolved stream.

        Hot callers (the fused Gramine syscall path) hold the stream object
        so each draw skips the name-to-stream lookup; the draw sequence is
        identical because :class:`RngService` returns one stream per name.
        """
        total = stream.uniform(
            self.transition_pair_min_cycles, self.transition_pair_max_cycles
        )
        # Entry is slightly more expensive than exit (TLB/LSD flush on entry).
        eenter = total * 0.55
        eexit = total * 0.45
        return int(eenter), int(eexit)


#: The one cost model every enclave, EPC manager and LibOS charges with.
SGX_COSTS = SgxCostModel()
