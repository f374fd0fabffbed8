"""Execution runtimes.

The P-AKA module servers are written once against the :class:`Runtime`
interface and deployed two ways, exactly like the paper's artifacts:

* :class:`NativeRuntime` — a plain (container) process: cheap syscalls,
  process memory readable by any sufficiently privileged co-resident,
* ``GramineEnclaveRuntime`` (:mod:`repro.gramine.libos`) — the same
  workload inside an SGX enclave behind the Gramine LibOS: every syscall
  becomes an OCALL round-trip, compute pays the MEE penalty, and memory
  is ciphertext to everyone but the CPU.

This symmetry is what makes the container-vs-SGX comparisons of
Figs 8–10 / Table II meaningful.
"""
