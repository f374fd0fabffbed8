"""The 5G core network (OAI-style service-based architecture).

Implements the control-plane VNFs of Fig 2 — NRF, UDR, UDM, AUSF, AMF,
SMF, UPF — speaking REST over the container bridge, with the real 5G-AKA
protocol logic of TS 33.501 §6.1.3.2 (the cryptography is exact, via
:mod:`repro.crypto`).  There is one deployment shape: UDM, AUSF and AMF
forward the sensitive AKA computation to their external P-AKA modules
(:mod:`repro.paka`), which run in a plain container (the stand-in for
the monolithic OAI core), an SGX enclave or a secure VM.
"""
