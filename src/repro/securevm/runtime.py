"""The Runtime view of a workload inside a confidential VM."""

from __future__ import annotations

from repro.hw.host import PhysicalHost
from repro.runtime.native import NativeRuntime
from repro.securevm.machine import SecureVm

# In-guest syscalls are ordinary traps; only virtio I/O forces a VM exit.
_IO_SYSCALLS = {
    "sendmsg", "recvmsg", "read", "write", "pread64",
    "accept4", "connect", "socket", "shutdown", "close",
}
_MEMORY_ENCRYPTION_PENALTY = 1.04

# The actor name for an exploit that landed inside the guest kernel —
# *inside* the secure VM's TCB, outside SGX's.
GUEST_KERNEL_ACTOR = "guest-kernel-exploit"


class SecureVmRuntime(NativeRuntime):
    """A module running unmodified inside a SEV/TDX-style VM: a native
    process with the guest's cost table, whose memory the host sees
    encrypted."""

    _TRAP_CYCLES = 1_500 + 320  # guest trap + nested paging / TDX-module shims
    _MINOR_FAULT_CYCLES = 3_000  # includes page acceptance on first touch
    _COLD_ACCESS_CYCLES = 110
    _VM_EXIT_CYCLES = 5_200  # TD exit + VMM service + TD resume

    def __init__(self, name: str, host: PhysicalHost, vm: SecureVm) -> None:
        if not vm.booted:
            raise RuntimeError(f"VM {vm.spec.name!r} must boot before use")
        super().__init__(name, host)
        self.vm = vm

    def _syscall_cycles(self, name: str, nbytes: int) -> float:
        cycles = super()._syscall_cycles(name, nbytes)
        if name in _IO_SYSCALLS:
            cycles += self._VM_EXIT_CYCLES  # virtio doorbell / completion
        return cycles

    def compute(self, cycles: float) -> None:
        super().compute(cycles * _MEMORY_ENCRYPTION_PENALTY)

    def memory_view(self, actor: str) -> bytes:
        """Host-side actors see VM-key ciphertext — but an exploit inside
        the guest kernel is *within the TCB* and reads plaintext.  This
        is the attack-surface cost of the larger trust domain."""
        plaintext = self._plaintext()
        if actor == GUEST_KERNEL_ACTOR:
            return plaintext
        return self.vm.encrypt_for_outside(plaintext)

    def shutdown(self) -> None:
        super().shutdown()
        self.vm.destroy()
