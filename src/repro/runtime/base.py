"""The Runtime base and the host syscall cost table."""

from __future__ import annotations

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


class Runtime:
    """Where a workload executes: a native process, a secure VM or an
    SGX enclave.

    Every backend charges ``compute(cycles)``, ``syscall(name, bytes_out,
    bytes_in)`` and ``touch_pages(cold, new)``, keeps key material with
    ``store_secret``/``load_secret``, shows ``memory_view(actor)`` to an
    outside reader and stops with ``shutdown()``.  It also compiles a
    fixed syscall sequence once (``compile_syscalls``, an opaque handle
    valid only on that runtime) and replays it per request
    (``syscall_profile``), leaving clock, counters, RNG streams and
    events exactly as the per-call ``syscall`` loop would.  This base
    holds only what the backends share.
    """

    # SGX counters; only the enclave runtime has any.
    sgx_stats: Optional[SgxStats] = None

    def __init__(self, name: str, host: PhysicalHost) -> None:
        self.name = name
        self.host = host

    def syscall_batch(self, specs: Iterable[Tuple[str, int, int]]) -> None:
        """Issue a sequence of ``(name, bytes_out, bytes_in)`` syscalls,
        exactly as calling ``syscall`` per spec would: start-up
        footprints come through here once."""
        self.syscall_profile(self.compile_syscalls(specs))  # type: ignore[attr-defined]

    def idle(self, duration_s: float) -> None:
        """Book the side effects of blocking idle (e.g. in epoll_wait)
        for ``duration_s``: AEX interrupts in an enclave, nothing for a
        plain process.  The caller moves the clock, once for every
        runtime sharing the window."""
        if duration_s < 0:
            raise ValueError(f"negative idle window: {duration_s}")
