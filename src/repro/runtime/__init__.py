"""Execution runtimes.

The P-AKA module servers are written once against the :class:`Runtime`
base and deployed three ways, like the paper's artifacts and its §IV-C
alternative:

* :class:`NativeRuntime` — a plain (container) process: cheap syscalls,
  process memory readable by any sufficiently privileged co-resident,
* ``GramineEnclaveRuntime`` (:mod:`repro.gramine.libos`) — the same
  workload inside an SGX enclave behind the Gramine LibOS: every syscall
  becomes an OCALL round-trip, compute pays the MEE penalty, and memory
  is ciphertext to everyone but the CPU,
* ``SecureVmRuntime`` (:mod:`repro.securevm.runtime`) — the same
  workload in a SEV/TDX-style VM: a native process with the guest's
  costs, ciphertext to the host but plaintext to the guest kernel.

This symmetry is what makes the container-vs-SGX comparisons of
Figs 8–10 / Table II, and the HMEE backends ablation, meaningful.
"""
