"""Runtime interface and the host syscall cost table."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Optional, Tuple

from repro.hw.host import PhysicalHost
from repro.sgx.stats import SgxStats

# Host-side service cost of each syscall, in cycles, excluding any
# enclave-transition or shielding cost (those are the runtime's concern).
# Values are in the range kernel microbenchmarks report for these calls.
SYSCALL_HOST_CYCLES = {
    "epoll_wait": 2_600,
    "epoll_ctl": 1_800,
    "accept4": 8_500,
    "connect": 9_000,
    "recvmsg": 3_200,
    "sendmsg": 3_400,
    "read": 2_900,
    "write": 3_000,
    "pread64": 3_100,
    "close": 2_100,
    "shutdown": 2_400,
    "openat": 5_200,
    "fstat": 1_600,
    "mmap": 6_500,
    "munmap": 5_800,
    "brk": 1_300,
    "getrandom": 2_200,
    "futex": 2_000,
    "clock_gettime": 900,
    "socket": 4_800,
    "setsockopt": 1_700,
    "bind": 3_200,
    "listen": 2_800,
    "clone": 22_000,
    "sched_yield": 1_100,
}

_DEFAULT_SYSCALL_CYCLES = 3_000
_COPY_CYCLES_PER_BYTE = 0.35  # kernel/user copy cost per byte

# (name, nbytes) -> cycles memo.  The syscall profiles reuse a small fixed
# set of specs tens of thousands of times per campaign, so the dict-get +
# float arithmetic is worth caching.
_SYSCALL_CYCLE_CACHE: "dict[Tuple[str, int], float]" = {}


def syscall_host_cycles(name: str, nbytes: int = 0) -> float:
    """Host-side cycles to service ``name`` moving ``nbytes`` of payload."""
    key = (name, nbytes)
    cycles = _SYSCALL_CYCLE_CACHE.get(key)
    if cycles is None:
        cycles = SYSCALL_HOST_CYCLES.get(name, _DEFAULT_SYSCALL_CYCLES) + (
            nbytes * _COPY_CYCLES_PER_BYTE
        )
        _SYSCALL_CYCLE_CACHE[key] = cycles
    return cycles


class Runtime(ABC):
    """Where a workload executes: native process or shielded enclave."""

    def __init__(self, name: str, host: PhysicalHost) -> None:
        self.name = name
        self.host = host

    # -------------------------------------------------------------- queries

    @property
    @abstractmethod
    def shielded(self) -> bool:
        """True when the runtime provides HMEE isolation."""

    @property
    @abstractmethod
    def sgx_stats(self) -> Optional[SgxStats]:
        """SGX counters, or ``None`` for non-SGX runtimes."""

    # ------------------------------------------------------------ execution

    @abstractmethod
    def compute(self, cycles: float) -> None:
        """Burn CPU on application logic."""

    @abstractmethod
    def syscall(self, name: str, bytes_out: int = 0, bytes_in: int = 0) -> None:
        """Issue one syscall moving ``bytes_out`` to and ``bytes_in`` from
        the kernel."""

    def syscall_batch(self, specs: Iterable[Tuple[str, int, int]]) -> None:
        """Issue a sequence of ``(name, bytes_out, bytes_in)`` syscalls.

        Semantically identical to calling :meth:`syscall` per spec.
        Start-up footprints come through here once; sequences replayed
        per request are compiled once and replayed with
        :meth:`syscall_profile`.
        """
        self.syscall_profile(self.compile_syscalls(specs))

    def compile_syscalls(self, specs: Iterable[Tuple[str, int, int]]) -> object:
        """Precompile a fixed syscall sequence for repeated replay.

        The HTTP layer replays the same handful of syscall profiles for
        every request; compiling them once lets runtimes hoist per-spec
        cost lookups out of the hot loop entirely.  Returns an opaque
        handle for :meth:`syscall_profile`.  The handle is only valid on
        the runtime that compiled it.  This default is the per-call
        reference: the handle is the spec list itself.
        """
        return list(specs)

    def syscall_profile(self, handle: object) -> None:
        """Replay a profile compiled by :meth:`compile_syscalls`.

        Runtimes that override the pair must leave clock, counters,
        RNG streams and events exactly as this per-call loop would.
        """
        for name, bytes_out, bytes_in in handle:  # type: ignore[attr-defined]
            self.syscall(name, bytes_out, bytes_in)

    @abstractmethod
    def touch_pages(self, cold: int = 0, new: int = 0) -> None:
        """Touch memory pages (``new`` = first touch / fault)."""

    @abstractmethod
    def idle(
        self, duration_s: float, active_threads: int = 1, advance_clock: bool = True
    ) -> None:
        """Block idle (e.g. in epoll_wait) for a simulated window.

        ``advance_clock=False`` books the window's side effects (e.g. AEX
        interrupts) without moving the clock, for callers coordinating a
        shared concurrent window across runtimes.
        """

    # -------------------------------------------------------------- secrets

    @abstractmethod
    def store_secret(self, key: str, value: bytes) -> None:
        """Keep key material in the runtime's memory."""

    @abstractmethod
    def load_secret(self, key: str) -> bytes:
        """Read key material back (from inside the workload)."""

    @abstractmethod
    def memory_view(self, actor: str) -> bytes:
        """What ``actor`` observes when inspecting this runtime's memory
        from outside (the attack-surface primitive for Table V)."""

    # ------------------------------------------------------------ lifecycle

    @abstractmethod
    def shutdown(self) -> None:
        """Stop the runtime and release its resources."""
