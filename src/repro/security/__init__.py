"""Security evaluation: the threat model of §III and Table V's analysis.

:mod:`repro.security.threat` models the attacker of Fig 3 — a malicious
third-party application that gains co-residency on the shared NFV
infrastructure, exploits the virtualization layer to escalate privileges,
and then moves laterally to inspect or tamper with the 5G-AKA services.

:mod:`repro.security.attacks` are the concrete attack executions; each is
run against both the plain-container deployment (where it must *succeed*)
and the P-AKA/SGX deployment (where it must *fail*) — asserting both
directions is what gives the Table V verdicts their meaning.

:mod:`repro.security.keyissues` is the 3GPP TR 33.848 Key-Issue catalogue
with the paper's HMEE-applicability verdicts, reproduced by execution.
"""
