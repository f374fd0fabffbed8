"""Simulated networking: HTTPS/REST over the container bridge.

The paper's P-AKA modules are Pistache-based HTTPS servers speaking REST
over the OAI docker bridge.  This package models that stack end to end:
TCP/TLS connections with real record protection, an epoll-reactor server
whose syscall footprint is what becomes OCALLs under Gramine, and a small
REST routing layer used by both the 5G core VNFs and the P-AKA modules.
"""
