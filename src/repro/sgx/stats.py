"""SGX operational counters.

Gramine's ``sgx.enable_stats`` option makes the PAL report the number of
EENTERs, EEXITs and AEXs an enclave performed — these are the exact
counters Table III of the paper reports.  The simulator keeps the same
counters per enclave, plus higher-level ECALL/OCALL and paging counts
useful for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class SgxStats:
    """Counters mirroring Gramine's ``enable_stats`` output."""

    eenters: int = 0
    eexits: int = 0
    aexs: int = 0
    eresumes: int = 0
    ecalls: int = 0
    ocalls: int = 0
    page_faults: int = 0
    page_evictions: int = 0
    bytes_copied_in: int = 0
    bytes_copied_out: int = 0
    ocalls_by_syscall: Dict[str, int] = field(default_factory=dict)

    def record_ocall(self, syscall: str, count: int = 1) -> None:
        self.ocalls += count
        self.ocalls_by_syscall[syscall] = (
            self.ocalls_by_syscall.get(syscall, 0) + count
        )

    def snapshot(self) -> "SgxStats":
        """A frozen copy for before/after differencing."""
        return SgxStats(
            eenters=self.eenters,
            eexits=self.eexits,
            aexs=self.aexs,
            eresumes=self.eresumes,
            ecalls=self.ecalls,
            ocalls=self.ocalls,
            page_faults=self.page_faults,
            page_evictions=self.page_evictions,
            bytes_copied_in=self.bytes_copied_in,
            bytes_copied_out=self.bytes_copied_out,
            ocalls_by_syscall=dict(self.ocalls_by_syscall),
        )

    def delta(self, earlier: "SgxStats") -> "SgxStats":
        """Counter difference ``self - earlier`` (Table III methodology)."""
        return SgxStats(
            eenters=self.eenters - earlier.eenters,
            eexits=self.eexits - earlier.eexits,
            aexs=self.aexs - earlier.aexs,
            eresumes=self.eresumes - earlier.eresumes,
            ecalls=self.ecalls - earlier.ecalls,
            ocalls=self.ocalls - earlier.ocalls,
            page_faults=self.page_faults - earlier.page_faults,
            page_evictions=self.page_evictions - earlier.page_evictions,
            bytes_copied_in=self.bytes_copied_in - earlier.bytes_copied_in,
            bytes_copied_out=self.bytes_copied_out - earlier.bytes_copied_out,
            ocalls_by_syscall={
                name: count - earlier.ocalls_by_syscall.get(name, 0)
                for name, count in self.ocalls_by_syscall.items()
            },
        )
