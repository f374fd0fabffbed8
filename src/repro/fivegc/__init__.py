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

from repro.aka import HomeAuthVector, ServingAuthVector, generate_he_av
from repro.fivegc.nf_base import NetworkFunction
from repro.fivegc.nrf import Nrf
from repro.fivegc.udr import AuthSubscription, Udr
from repro.fivegc.udm import Udm
from repro.fivegc.ausf import Ausf
from repro.fivegc.amf import Amf
from repro.fivegc.smf import Smf
from repro.fivegc.upf import Upf

__all__ = [
    "HomeAuthVector",
    "ServingAuthVector",
    "generate_he_av",
    "NetworkFunction",
    "Nrf",
    "Udr",
    "AuthSubscription",
    "Udm",
    "Ausf",
    "Amf",
    "Smf",
    "Upf",
]
