"""Deterministic fault injection & resilience for the shielded AKA plane.

``plan`` draws seeded fault windows (enclave crash + Fig-7 reload, AEX
storms, EPC pressure, NF death, link loss/latency spikes); ``injector``
executes a plan against a live testbed through zero-cost-when-off hooks;
``resilience`` holds the circuit breaker used by the NF base class (the
retry policy itself lives with the HTTP client).
"""
