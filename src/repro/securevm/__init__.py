"""Secure-VM HMEE backend (AMD SEV-SNP / Intel TDX style).

The paper's §IV-C weighs SGX against hardware-isolated VMs: SEV/TDX run
*unmodified* applications (no Gramine, no refactoring) with far cheaper
syscalls (the guest kernel lives inside the trust domain), but at the
cost of a much larger TCB — the entire guest OS — which "may potentially
increase the attack surface, rendering them unsuitable for certain
applications".  One of the testbed's design goals is HMEE
interchangeability, so this package provides exactly that: a drop-in
third isolation mode for the P-AKA modules.

What the model captures:

* fast deployment — a guest boot (~10 s) instead of GSC's ~1 minute of
  trusted-file measurement,
* cheap syscalls — in-guest traps, with VM exits only on virtio I/O,
* mild compute penalty — whole-VM memory encryption,
* confidentiality against the *host* — hypervisor/engine introspection
  sees ciphertext, like SGX,
* the TCB difference — a guest-kernel exploit lands **inside** the trust
  domain and steals secrets; the same exploit against SGX-isolated
  modules gets nothing, because the kernel is outside the enclave TCB.
"""
