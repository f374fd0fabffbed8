"""The 5G core network (OAI-style service-based architecture).

Implements the control-plane VNFs of Fig 2 — NRF, UDR, UDM, AUSF, AMF,
SMF, UPF — speaking REST over the container bridge, with the real 5G-AKA
protocol logic of TS 33.501 §6.1.3.2 (the cryptography is exact, via
:mod:`repro.crypto`).  Each of UDM, AUSF and AMF can run in two modes:

* **monolithic** — the AKA functions execute inside the VNF (the OAI
  baseline),
* **offloaded** — the VNF forwards the sensitive computation to its
  external P-AKA module (:mod:`repro.paka`), which may itself run in a
  plain container or inside an SGX enclave.
"""
