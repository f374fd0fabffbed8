"""SGX / HMEE simulator.

Models Intel SGX at the abstraction level the paper measures:

* **enclave lifecycle** — ECREATE, EADD/EEXTEND page measurement, EINIT,
  optional heap pre-faulting ("preheat"),
* **transitions** — EENTER/EEXIT for ECALL/OCALL, AEX + ERESUME for
  asynchronous exits, with cycle costs in the 10k–18k band the paper
  cites for a transition pair,
* **EPC** — a page cache carved from the host PRM, with paging costs when
  the working set exceeds the configured enclave size,
* **confidentiality semantics** — enclave memory read from outside the
  CPU package yields ciphertext; only ECALL-entered code sees plaintext.
  This is what the security evaluation (Table V) exercises,
* **attestation & sealing** — MRENCLAVE measurement, signed quotes,
  measurement-bound sealed blobs,
* **aesmd** — the Architectural Enclave Service Manager that provisions
  launch tokens (a *trusted* entity in the paper's threat model).
"""
