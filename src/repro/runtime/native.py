"""Native (unshielded) process runtime.

This is the paper's non-SGX container baseline: syscalls cost a trap plus
kernel work, memory faults are cheap minor faults, and — crucially for the
threat model — process memory is plaintext to any actor that has gained
host-level privileges (the container engine, the hypervisor, a successful
escape).  :meth:`memory_view` therefore returns the secrets verbatim for
privileged actors, which is exactly what the attack suite exploits.
"""

from __future__ import annotations

import json
from typing import Dict, Set, Tuple

from repro.hw.host import PhysicalHost
from repro.runtime.base import Runtime, syscall_host_cycles

# Compiled profiles, ``(cost class, frequency_hz, specs) -> (cycles, ns)``:
# every runtime of a process with the same cost table shares them.
# Cleared when full.
_PROFILES: Dict[
    Tuple[type, float, Tuple[Tuple[str, int, int], ...]], Tuple[int, int]
] = {}
_PROFILES_MAX = 64

# Actors with a privileged view of arbitrary process memory on the host.
# A container shares the host kernel, so a kernel exploit is equivalent
# to host root here.
PRIVILEGED_ACTORS: Set[str] = {
    "host-root",
    "hypervisor",
    "container-engine",
    "kernel-debugger",
    "guest-kernel-exploit",
}


class NativeRuntime(Runtime):
    """A plain process (inside a container or not — same cost either way;
    the paper found container-vs-monolithic latency differences negligible).

    The cost table is class-level, so a backend that only charges
    differently (the secure VM) is a subclass with its own numbers."""

    _TRAP_CYCLES = 1_400  # user→kernel→user round trip
    _MINOR_FAULT_CYCLES = 2_400
    _COLD_ACCESS_CYCLES = 60  # warm DRAM line fill, no MEE in the path

    def __init__(self, name: str, host: PhysicalHost) -> None:
        super().__init__(name, host)
        self.cpu = host.cpu  # every charge goes straight to the package
        self._secrets: Dict[str, bytes] = {}
        self._running = True

    # The two charges of every request test ``_running`` inline; only a
    # dead runtime reaches the check that raises.

    def _check_running(self) -> None:
        if not self._running:
            raise RuntimeError(f"runtime {self.name!r} has been shut down")

    def compute(self, cycles: float) -> None:
        if not self._running:
            self._check_running()
        self.cpu.spend_cycles(cycles)

    def _syscall_cycles(self, name: str, nbytes: int) -> float:
        """Cycles of one syscall moving ``nbytes``: the trap plus the
        kernel's work."""
        return self._TRAP_CYCLES + syscall_host_cycles(name, nbytes)

    def syscall(self, name: str, bytes_out: int = 0, bytes_in: int = 0) -> None:
        self._check_running()
        self.cpu.spend_cycles(self._syscall_cycles(name, bytes_out + bytes_in))

    def compile_syscalls(self, specs) -> object:
        """Native profiles compile down to one pre-summed (cycles, ns) pair.

        Per-spec rounding happens at compile time with the exact
        :meth:`syscall` expressions, so replaying the handle is a single
        ``spend_preconverted`` that leaves the clock bit-identical to the
        per-call loop.  The pair is a pure function of the cost class,
        the CPU frequency and ``specs``, so it is memoised process-wide
        on all three.
        """
        cpu = self.cpu
        specs = tuple(specs)
        key = (type(self), cpu.spec.frequency_hz, specs)
        handle = _PROFILES.get(key)
        if handle is not None:
            return handle
        total_cycles = 0
        total_ns = 0
        for name, bytes_out, bytes_in in specs:
            cost = cpu.round_cycle_cost(
                self._syscall_cycles(name, bytes_out + bytes_in)
            )
            total_cycles += cost[0]
            total_ns += cost[1]
        if len(_PROFILES) >= _PROFILES_MAX:
            _PROFILES.clear()
        handle = _PROFILES[key] = (total_cycles, total_ns)
        return handle

    def syscall_profile(self, handle) -> None:
        if not self._running:
            self._check_running()
        self.cpu.spend_preconverted(handle[0], handle[1])

    def touch_pages(self, cold: int = 0, new: int = 0) -> None:
        self._check_running()
        self.cpu.spend_cycles(
            new * self._MINOR_FAULT_CYCLES + cold * self._COLD_ACCESS_CYCLES
        )

    def idle(self, duration_s: float) -> None:
        self._check_running()
        super().idle(duration_s)

    def store_secret(self, key: str, value: bytes) -> None:
        self._check_running()
        self._secrets[key] = bytes(value)

    def load_secret(self, key: str) -> bytes:
        self._check_running()
        try:
            return self._secrets[key]
        except KeyError:
            raise KeyError(f"no secret {key!r} in runtime {self.name!r}")

    def _plaintext(self) -> bytes:
        """The secrets as they lie in the process's memory."""
        return json.dumps(
            {k: v.hex() for k, v in sorted(self._secrets.items())}
        ).encode()

    def memory_view(self, actor: str) -> bytes:
        """Privileged actors read process memory in the clear (/proc/pid/mem,
        hypervisor introspection, CRIU dumps …); unprivileged actors get
        nothing — ordinary OS isolation still applies to them."""
        return self._plaintext() if actor in PRIVILEGED_ACTORS else b""

    def shutdown(self) -> None:
        self._secrets.clear()
        self._running = False
