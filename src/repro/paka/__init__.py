"""P-AKA: the paper's core contribution.

The sensitive 5G-AKA functions are extracted from the monolithic UDM,
AUSF and AMF VNFs into three external microservices — **eUDM-AKA**,
**eAUSF-AKA** and **eAMF-AKA** — each an HTTPS server reachable only by
its parent VNF over the docker bridge.  Deployed inside SGX enclaves via
Gramine/GSC they become the *Protected*-AKA (P-AKA) modules:

* ``eUDM P-AKA``  — generates the HE AV (RAND, AUTN, XRES*, K_AUSF) from
  OPc/RAND/SQN/AMF-field inputs (Table I row 1); subscriber keys K are
  provisioned into the enclave and never leave it,
* ``eAUSF P-AKA`` — derives HXRES* and K_SEAF from the HE AV (row 2),
* ``eAMF P-AKA``  — derives K_AMF from K_SEAF (row 3).

:mod:`repro.paka.deploy` builds the modules in either isolation mode
(plain container vs GSC/SGX) with the co-location policy the paper's
§IV-B mandates.
"""
