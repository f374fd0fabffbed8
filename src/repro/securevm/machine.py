"""The confidential VM: boot, memory acceptance, attestation identity."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.hw.host import PhysicalHost
from repro.sim.clock import TimeSpan

_PAGE = 4096

# Cost model (cycles).
_FIRMWARE_BOOT_CYCLES = 2.0e9  # TD firmware + kernel decompress
_GUEST_INIT_CYCLES = 1.9e10  # init + services + runtime start (~8 s @2.4GHz)
_PAGE_ACCEPT_CYCLES = 1_800  # per-page memory acceptance/encryption
_IMAGE_MEASURE_CYCLES_PER_BYTE = 6.0  # initial image measured once


@dataclass(frozen=True)
class SecureVmSpec:
    """Sizing of a confidential VM for one module."""

    name: str
    memory_bytes: int = 2 * 1024**3
    vcpus: int = 2
    kernel_image_bytes: int = 64 * 1024**2

    @property
    def memory_pages(self) -> int:
        return self.memory_bytes // _PAGE


class SecureVm:
    """A booted confidential VM on a host.

    The launch measurement covers the initial image (firmware + kernel +
    initrd), so attestation proves *what booted* — but unlike SGX it
    cannot speak to what the guest OS did afterwards, which is precisely
    the TCB-size tradeoff the paper discusses.
    """

    # The whole guest stack is inside the trust domain.
    TCB_COMPONENTS = (
        "cpu-package",
        "td-firmware",
        "guest-kernel",
        "guest-userspace",
        "application",
    )

    def __init__(self, host: PhysicalHost, spec: SecureVmSpec) -> None:
        self.host = host
        self.spec = spec
        self.booted = False
        self.destroyed = False
        self.boot_span: Optional[TimeSpan] = None
        self.launch_measurement: Optional[bytes] = None
        self._vm_key = hashlib.sha256(
            b"vm-ephemeral-key"
            + spec.name.encode()
            + host.instance_serial().to_bytes(8, "little")
        ).digest()

    def boot(self) -> TimeSpan:
        """Accept memory, measure the initial image, boot the guest."""
        if self.booted:
            raise RuntimeError(f"VM {self.spec.name!r} already booted")
        cpu = self.host.cpu
        start_ns = self.host.clock.now_ns
        cpu.spend_cycles(self.spec.memory_pages * _PAGE_ACCEPT_CYCLES)
        cpu.spend_cycles(
            self.spec.kernel_image_bytes * _IMAGE_MEASURE_CYCLES_PER_BYTE
        )
        cpu.spend_cycles(_FIRMWARE_BOOT_CYCLES)
        cpu.spend_cycles(
            self.host.rng.jitter(
                f"vm.{self.spec.name}.boot", _GUEST_INIT_CYCLES, 0.03
            )
        )
        span = TimeSpan(start_ns, self.host.clock.now_ns)
        self.launch_measurement = hashlib.sha256(
            b"td-measurement"
            + self.spec.name.encode()
            + self.spec.kernel_image_bytes.to_bytes(8, "big")
        ).digest()
        self.boot_span = span
        self.booted = True
        return span

    def encrypt_for_outside(self, plaintext: bytes) -> bytes:
        """What the host sees of guest memory: per-VM-key ciphertext."""
        out = bytearray()
        counter = 0
        while len(out) < len(plaintext):
            out.extend(
                hashlib.sha256(self._vm_key + counter.to_bytes(8, "big")).digest()
            )
            counter += 1
        return bytes(p ^ k for p, k in zip(plaintext, out[: len(plaintext)]))

    def destroy(self) -> None:
        self.booted = False
        self.destroyed = True
