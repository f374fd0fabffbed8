"""The enclave: lifecycle, transitions and confidentiality semantics.

An :class:`Enclave` is built from an :class:`EnclaveBuildInfo` (produced by
the Gramine/GSC layer), loaded onto a host, and then entered via ECALLs.
Inside an ECALL, code runs with plaintext access to enclave secrets and can
issue OCALLs (each one an EEXIT/EENTER round trip).  Outside, the enclave's
memory is only visible as ciphertext — this is the property the paper's
Table V attack analysis relies on, and the security test-suite asserts it
in both directions (attacks succeed against plain containers, fail here).
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Optional

from repro.hw.host import PhysicalHost
from repro.sgx.costmodel import SGX_COSTS
from repro.sgx.epc import PAGE_SIZE, EpcManager, EpcRegion
from repro.sgx.errors import (
    EnclaveLostError,
    EnclaveNotInitializedError,
    SgxError,
    SgxUnsupportedError,
)
from repro.sgx.measurement import EEXTEND_CHUNK, EnclaveMeasurement, MeasurementBuilder, SigStruct
from repro.sgx.stats import SgxStats
from repro.sim.clock import TimeSpan

# The only principal allowed to observe enclave plaintext from "outside"
# an ECALL: the CPU package itself (used by the pager / MEE internals).
CPU_PACKAGE_ACTOR = "cpu-package"


@dataclass(frozen=True)
class EnclaveBuildInfo:
    """Everything the loader needs to build and measure an enclave.

    Produced by :func:`repro.gramine.gsc.build_gsc_image` for GSC images;
    can also be constructed directly for bespoke enclaves (tests do this).
    """

    name: str
    enclave_size_bytes: int
    max_threads: int
    measured_bytes: int  # code + initial data measured via EADD/EEXTEND
    trusted_files_bytes: int  # files hash-verified at load (GSC: ~rootfs)
    heap_bytes: int  # heap reserved inside the enclave
    preheat: bool = False
    debug: bool = False
    stats_enabled: bool = True
    sigstruct: Optional[SigStruct] = None

    def __post_init__(self) -> None:
        if self.enclave_size_bytes <= 0:
            raise ValueError("enclave size must be positive")
        if self.max_threads < 1:
            raise ValueError("an enclave needs at least one thread (TCS)")
        if self.heap_bytes > self.enclave_size_bytes:
            raise ValueError("heap cannot exceed the enclave size")


class EcallContext:
    """Execution context of one ECALL; the only plaintext view of secrets."""

    def __init__(self, enclave: "Enclave", name: str, rng_stream: str) -> None:
        self._enclave = enclave
        self._name = name
        self._stream = rng_stream
        self.closed = False

    def _check_open(self) -> None:
        if self.closed:
            raise SgxError(f"ECALL context {self._name!r} already exited")

    def compute(self, cycles: float) -> None:
        """In-enclave computation; charged with the MEE penalty."""
        if self.closed:  # inline: the hottest entry; the check raises
            self._check_open()
        enclave = self._enclave
        enclave.host.cpu.spend_cycles(cycles * SGX_COSTS.epc_compute_penalty)

    def touch_pages(self, cold: int = 0, new: int = 0) -> None:
        """Touch EPC pages: ``new`` pages fault in, ``cold`` are resident
        but cold (MEE cache-line fills)."""
        self._check_open()
        enclave = self._enclave
        if new:
            enclave.epc_manager.fault_in(enclave.epc_region, new, enclave.stats)
        if cold:
            enclave.host.cpu.spend_cycles(
                cold * SGX_COSTS.cold_page_access_cycles
            )

    def ocall(
        self,
        syscall: str,
        bytes_out: int = 0,
        bytes_in: int = 0,
        host_cycles: float = 3_000,
    ) -> None:
        """Leave the enclave to service ``syscall`` on the untrusted host.

        Charges EEXIT + boundary copy-out + host work + EENTER + copy-in,
        and counts one OCALL (one EEXIT and one EENTER in the Gramine
        stats, exactly as Table III describes).
        """
        self._check_open()
        enclave = self._enclave
        model = SGX_COSTS
        eenter, eexit = model.draw_transition_pair(
            enclave.host.rng, f"{enclave.build.name}.transition"
        )
        cpu = enclave.host.cpu
        cpu.spend_cycles(eexit)
        cpu.spend_cycles(bytes_out * model.boundary_copy_cycles_per_byte)
        cpu.spend_cycles(host_cycles)
        cpu.spend_cycles(eenter)
        cpu.spend_cycles(bytes_in * model.boundary_copy_cycles_per_byte)

        stats = enclave.stats
        stats.eexits += 1
        stats.eenters += 1
        stats.record_ocall(syscall)
        stats.bytes_copied_out += bytes_out
        stats.bytes_copied_in += bytes_in
        enclave.host.events.emit(
            enclave.host.clock.now_ns, "sgx.ocall",
            enclave=enclave.build.name, syscall=syscall,
        )

    def store_secret(self, key: str, value: bytes) -> None:
        """Place a secret in enclave memory (plaintext view inside only)."""
        self._check_open()
        self._enclave._secrets[key] = bytes(value)

    def load_secret(self, key: str) -> bytes:
        self._check_open()
        try:
            return self._enclave._secrets[key]
        except KeyError:
            raise KeyError(f"no secret {key!r} in enclave {self._enclave.build.name!r}")


class Enclave:
    """A loaded SGX enclave on a physical host."""

    def __init__(
        self,
        host: PhysicalHost,
        build: EnclaveBuildInfo,
        epc_manager: EpcManager,
    ) -> None:
        if not host.sgx_capable:
            raise SgxUnsupportedError(f"host {host.name!r} has no SGX-capable CPU")
        self.host = host
        self.build = build
        self.epc_manager = epc_manager
        self.stats = SgxStats()
        self.initialized = False
        self.destroyed = False
        self.load_span: Optional[TimeSpan] = None
        self.measurement: Optional[EnclaveMeasurement] = None
        self.epc_region: EpcRegion = epc_manager.create_region(
            f"{build.name}#{id(self):x}", build.enclave_size_bytes
        )
        self._secrets: Dict[str, bytes] = {}
        self._threads_entered = 0
        # The hardware sealing/memory-encryption root, unique per enclave
        # instance and never observable outside the CPU package.
        self._hw_key = hashlib.sha256(
            b"cpu-fused-key" + build.name.encode() + id(self).to_bytes(8, "little")
        ).digest()

    # ------------------------------------------------------------------ load

    def load(self) -> TimeSpan:
        """Build + initialize the enclave; returns the load-time span.

        Models ECREATE, per-page EADD/EEXTEND over the measured contents,
        trusted-file verification (hash of every byte, read through OCALLs
        in chunks — the "several hundred OCALLs" of the paper's §V-B1),
        EINIT, and the optional preheat pre-faulting of all heap pages.
        """
        if self.destroyed:
            raise EnclaveLostError(f"enclave {self.build.name!r} was destroyed")
        if self.initialized:
            raise SgxError(f"enclave {self.build.name!r} already loaded")

        model = SGX_COSTS
        cpu = self.host.cpu
        builder = MeasurementBuilder()
        with self.host.clock.measure() as span:
            # ECREATE
            builder.ecreate(self.build.enclave_size_bytes)
            cpu.spend_cycles(model.ecreate_cycles)

            # EADD + EEXTEND the measured pages (aggregate charging).
            measured_pages = max(1, self.build.measured_bytes // PAGE_SIZE)
            chunks_per_page = PAGE_SIZE // EEXTEND_CHUNK
            cpu.spend_cycles(
                measured_pages
                * (model.eadd_page_cycles + chunks_per_page * model.eextend_chunk_cycles)
            )
            builder.eadd(0, flags="rx")
            builder.eextend(
                0,
                hashlib.sha256(
                    self.build.name.encode() + self.build.measured_bytes.to_bytes(8, "big")
                ).digest()[:32],
            )
            self.epc_manager.fault_in(self.epc_region, measured_pages, self.stats)

            # Trusted-file verification: every byte hashed in-enclave, read
            # from the untrusted host in chunks — one OCALL per chunk.
            self._verify_trusted_files()

            # EINIT (launch-token checked by aesmd before we get here).
            cpu.spend_cycles(model.einit_cycles)
            self.measurement = builder.finalize()
            self.initialized = True

            if self.build.preheat:
                heap_pages = self.build.heap_bytes // PAGE_SIZE
                already = self.epc_region.resident_pages
                to_fault = max(
                    0, min(heap_pages, self.epc_region.total_pages - already)
                )
                self.epc_manager.fault_in(self.epc_region, to_fault, self.stats)

        self.load_span = span
        self.host.events.emit(
            self.host.clock.now_ns, "sgx.load",
            enclave=self.build.name, load_ms=span.ms,
        )
        return span

    # Verification reads in 16 MiB bursts (one OCALL each — a couple of
    # hundred for a multi-GB GSC rootfs, the paper's "several hundred
    # OCALLs") and hashes in-enclave at ≈40 cycles/byte (SHA-256 through
    # small shielded buffers is slow in Gramine), yielding the ~1 minute
    # enclave load times of Fig 7.
    _TRUSTED_FILE_CHUNK = 16 * 1024 * 1024
    _HASH_CYCLES_PER_BYTE = 40.0

    def _verify_trusted_files(self) -> None:
        total = self.build.trusted_files_bytes
        if total <= 0:
            return
        model = SGX_COSTS
        cpu = self.host.cpu
        n_chunks = (total + self._TRUSTED_FILE_CHUNK - 1) // self._TRUSTED_FILE_CHUNK
        eenter, eexit = model.draw_transition_pair(
            self.host.rng, f"{self.build.name}.load"
        )
        # One OCALL round-trip per chunk plus the in-enclave hashing; the
        # host-side read throughput varies run to run (page cache, I/O
        # scheduling), which is the spread of Fig 7's boxes.
        cpu.spend_cycles(n_chunks * (eenter + eexit + 6_000))
        cpu.spend_cycles(
            self.host.rng.jitter(
                f"{self.build.name}.tfload", total * self._HASH_CYCLES_PER_BYTE, 0.008
            )
        )
        self.stats.eenters += n_chunks
        self.stats.eexits += n_chunks
        self.stats.record_ocall("pread64", n_chunks)

    # ----------------------------------------------------------------- ecall

    @contextmanager
    def ecall(
        self, name: str, bytes_in: int = 0, bytes_out: int = 0
    ) -> Iterator[EcallContext]:
        """Enter the enclave (EENTER), yielding the in-enclave context.

        ``bytes_in``/``bytes_out`` are the marshalled argument and result
        sizes crossing the boundary (Table I's enclave input/output).
        """
        if self.destroyed:
            raise EnclaveLostError(f"enclave {self.build.name!r} was destroyed")
        if not self.initialized:
            raise EnclaveNotInitializedError(
                f"enclave {self.build.name!r}: ECALL {name!r} before EINIT"
            )
        if self._threads_entered >= self.build.max_threads:
            raise SgxError(
                f"enclave {self.build.name!r}: no free TCS "
                f"({self.build.max_threads} threads allowed)"
            )
        model = SGX_COSTS
        cpu = self.host.cpu
        eenter, eexit = model.draw_transition_pair(
            self.host.rng, f"{self.build.name}.transition"
        )
        self._threads_entered += 1
        self.stats.eenters += 1
        self.stats.ecalls += 1
        self.stats.bytes_copied_in += bytes_in
        cpu.spend_cycles(eenter)
        cpu.spend_cycles(bytes_in * model.boundary_copy_cycles_per_byte)
        cpu.spend_cycles(
            self.epc_manager.management_cycles(
                self.epc_region, f"{self.build.name}.epcmgmt"
            )
        )
        context = EcallContext(self, name, f"{self.build.name}.ecall")
        try:
            yield context
        finally:
            context.closed = True
            self._threads_entered -= 1
            self.stats.eexits += 1
            self.stats.bytes_copied_out += bytes_out
            cpu.spend_cycles(eexit)
            cpu.spend_cycles(bytes_out * model.boundary_copy_cycles_per_byte)

    def begin_persistent_ecall(self, name: str) -> EcallContext:
        """Enter the enclave and *stay* inside (the Gramine execution model:
        one ECALL for the process plus one per thread, with all subsequent
        interaction via OCALLs).  The returned context remains valid until
        :meth:`end_persistent_ecall`."""
        if self.destroyed:
            raise EnclaveLostError(f"enclave {self.build.name!r} was destroyed")
        if not self.initialized:
            raise EnclaveNotInitializedError(
                f"enclave {self.build.name!r}: ECALL {name!r} before EINIT"
            )
        if self._threads_entered >= self.build.max_threads:
            raise SgxError(
                f"enclave {self.build.name!r}: no free TCS "
                f"({self.build.max_threads} threads allowed)"
            )
        eenter, _ = SGX_COSTS.draw_transition_pair(
            self.host.rng, f"{self.build.name}.transition"
        )
        self._threads_entered += 1
        self.stats.eenters += 1
        self.stats.ecalls += 1
        self.host.cpu.spend_cycles(eenter)
        return EcallContext(self, name, f"{self.build.name}.ecall")

    def end_persistent_ecall(self, context: EcallContext) -> None:
        """Exit a persistent ECALL (process/thread termination)."""
        if context.closed:
            return
        context.closed = True
        self._threads_entered -= 1
        _, eexit = SGX_COSTS.draw_transition_pair(
            self.host.rng, f"{self.build.name}.transition"
        )
        self.stats.eexits += 1
        self.host.cpu.spend_cycles(eexit)

    # ------------------------------------------------------------- idle/AEX

    # Asynchronous exits are dominated by timer interrupts: a per-process
    # component plus a per-runnable-thread component.  Calibrated so a
    # 4-thread Gramine server accumulates ≈140k AEXs over the paper's
    # measurement window while a single-threaded empty workload sees ≈50k
    # (Table III), independent of how many UEs register.
    AEX_PROCESS_RATE_HZ = 194.0
    AEX_THREAD_RATE_HZ = 302.0

    def run_idle(
        self,
        duration_s: float,
        active_threads: Optional[int] = None,
        advance_clock: bool = True,
    ) -> None:
        """Account an idle window: the server blocks, interrupts keep firing.

        Books the AEX/ERESUME pairs that occur during the window and, by
        default, advances the clock by it.  ``advance_clock=False`` lets
        several enclaves share one concurrent idle window (the caller
        advances the clock once).  AEX re-entry uses ERESUME, not EENTER,
        so the EENTER counter is untouched (paper §V-B5).
        """
        if duration_s < 0:
            raise ValueError(f"negative idle window: {duration_s}")
        threads = self.build.max_threads if active_threads is None else active_threads
        expected = duration_s * (
            self.AEX_PROCESS_RATE_HZ + self.AEX_THREAD_RATE_HZ * threads
        )
        jittered = self.host.rng.jitter(f"{self.build.name}.aex", expected, 0.002)
        aex_count = int(round(jittered))
        self.stats.aexs += aex_count
        self.stats.eresumes += aex_count
        if advance_clock:
            self.host.clock.advance_s(duration_s)

    # ------------------------------------------------------ confidentiality

    def dump_memory(self, actor: str) -> bytes:
        """What ``actor`` sees when reading this enclave's memory region.

        Anything other than the CPU package observes the MEE ciphertext:
        a keyed stream indistinguishable from noise without the fused
        hardware key.  This models EPC confidentiality; it is what defeats
        the memory-introspection attacks of KIs 7 and 15.
        """
        serialized = json.dumps(
            {k: v.hex() for k, v in sorted(self._secrets.items())}
        ).encode()
        if actor == CPU_PACKAGE_ACTOR:
            return serialized
        return _mee_encrypt(self._hw_key, serialized)

    def destroy(self) -> None:
        """Tear the enclave down; EPC pages are scrubbed and released."""
        self._secrets.clear()
        self.epc_manager.release_region(self.epc_region.name)
        self.epc_region.resident_pages = 0
        self.initialized = False
        self.destroyed = True


def _mee_encrypt(hw_key: bytes, plaintext: bytes) -> bytes:
    """Memory-encryption-engine view: SHA-256 keystream under the fused key."""
    out = bytearray()
    counter = 0
    while len(out) < len(plaintext):
        block = hashlib.sha256(hw_key + counter.to_bytes(8, "big")).digest()
        out.extend(block)
        counter += 1
    return bytes(p ^ k for p, k in zip(plaintext, out[: len(plaintext)]))
