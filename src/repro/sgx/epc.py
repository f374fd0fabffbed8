"""Enclave Page Cache (EPC) model.

The EPC is the encrypted slice of the Processor Reserved Memory holding
enclave pages.  We model it in aggregate — resident-page *counts* rather
than page identities — because the experiments only depend on:

* capacity: the sum of resident pages across enclaves cannot exceed the
  physical EPC; overshoot forces paging (EWB evict + ELDU reload),
* fault costs: first touches (page-ins) are charged per page,
* a management overhead that grows with the number of resident pages
  (the kernel/driver scans larger enclaves more slowly) — this is what
  produces the paper's Fig 8 observation that an 8 GB enclave is slightly
  *slower* and noisier than a 512 MB one for the same workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.hw.cpu import Cpu
from repro.sgx.costmodel import SGX_COSTS
from repro.sgx.errors import EpcExhaustedError
from repro.sgx.stats import SgxStats
from repro.sim.rng import RngService

PAGE_SIZE = 4096


@dataclass
class EpcRegion:
    """The EPC view of one enclave."""

    name: str
    size_bytes: int
    manager: "EpcManager"
    resident_pages: int = 0

    @property
    def total_pages(self) -> int:
        return self.size_bytes // PAGE_SIZE

    @property
    def utilization(self) -> float:
        if self.total_pages == 0:
            return 0.0
        return self.resident_pages / self.total_pages


class EpcManager:
    """Physical EPC shared by all enclaves on a host."""

    def __init__(
        self,
        capacity_bytes: int,
        cpu: Cpu,
        rng: RngService,
    ) -> None:
        self.capacity_bytes = capacity_bytes
        self.cpu = cpu
        self.rng = rng
        self._regions: Dict[str, EpcRegion] = {}

    @property
    def capacity_pages(self) -> int:
        return self.capacity_bytes // PAGE_SIZE

    @property
    def resident_pages(self) -> int:
        return sum(r.resident_pages for r in self._regions.values())

    def create_region(self, name: str, size_bytes: int) -> EpcRegion:
        """Reserve an enclave's virtual EPC range (ECREATE time)."""
        if name in self._regions:
            raise ValueError(f"EPC region {name!r} already exists")
        region = EpcRegion(name=name, size_bytes=size_bytes, manager=self)
        self._regions[name] = region
        return region

    def release_region(self, name: str) -> None:
        self._regions.pop(name, None)

    def fault_in(
        self,
        region: EpcRegion,
        n_pages: int,
        stats: Optional[SgxStats] = None,
        charge_time: bool = True,
    ) -> None:
        """Page ``n_pages`` into ``region``, evicting globally if needed.

        ``charge_time=False`` is used by the AEX/idle path where the clock
        has already been advanced by the idle window itself.
        """
        if n_pages <= 0:
            return
        if n_pages > region.total_pages:
            raise EpcExhaustedError(
                f"enclave {region.name!r} touched {n_pages} pages but its "
                f"EPC size is only {region.total_pages} pages"
            )
        # Pages above the region's own headroom cycle through the EPC
        # transiently: each is faulted in and immediately written back, so
        # residency never exceeds the enclave's size.
        headroom = region.total_pages - region.resident_pages
        resident_increase = min(n_pages, headroom)
        transient = n_pages - resident_increase
        # Evict only what the resident increase actually needs, and only
        # from *other* regions — stealing from the faulting region would
        # evict pages just to re-fault them on the next touch.
        free = self.capacity_pages - self.resident_pages
        need = max(0, resident_increase - free)
        if need:
            evicted = self._evict(need, stats, charge_time, exclude=region)
            shortfall = need - evicted
            if shortfall:
                # Other regions could not free enough physical pages; the
                # remainder of this fault becomes transient traffic too.
                resident_increase -= shortfall
                transient += shortfall
        region.resident_pages += resident_increase
        if stats is not None:
            stats.page_faults += n_pages
            stats.page_evictions += transient
        if charge_time:
            self.cpu.spend_cycles(
                n_pages * SGX_COSTS.page_fault_cycles
                + transient * SGX_COSTS.page_evict_cycles
            )

    def _evict(
        self,
        n_pages: int,
        stats: Optional[SgxStats],
        charge_time: bool,
        exclude: Optional[EpcRegion] = None,
    ) -> int:
        """Evict up to ``n_pages`` from the largest regions (approximate
        global LRU), never touching ``exclude``.  Returns the number of
        pages actually evicted — each counted exactly once, here."""
        remaining = n_pages
        for region in sorted(
            self._regions.values(), key=lambda r: r.resident_pages, reverse=True
        ):
            if region is exclude:
                continue
            take = min(region.resident_pages, remaining)
            region.resident_pages -= take
            remaining -= take
            if remaining == 0:
                break
        evicted = n_pages - remaining
        if stats is not None:
            stats.page_evictions += evicted
        if charge_time:
            self.cpu.spend_cycles(evicted * SGX_COSTS.page_evict_cycles)
        return evicted

    def management_cycles(self, region: EpcRegion, stream: str) -> float:
        """Per-call EPC management overhead for ``region``.

        Grows logarithmically with resident pages, with jitter that widens
        as the enclave gets bigger — the mechanism behind Fig 8's 8 GB
        penalty and wider interquartile range.
        """
        pages = max(region.resident_pages, 1)
        base = 140.0 * math.log2(pages + 1)
        rel_sigma = 0.04 + 0.10 * min(1.0, pages / (2 * 1024**3 / PAGE_SIZE))
        return self.rng.jitter(stream, base, rel_sigma)
