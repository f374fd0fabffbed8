"""Figure 5 — the modified 5G-AKA message flow, verified by execution.

The paper's Fig 5 fixes two structural properties of the offloaded flow:

1. **the exchange order** — UDM → eUDM before the HE AV exists, AUSF →
   eAUSF before the SE AV exists, AMF → eAMF only after the UE's RES*
   verified, and
2. **the communication topology** — each P-AKA module talks *only to its
   parent VNF* (the paper's deliberate design decision in §IV-B: modules
   never talk to each other, preserving their autonomy and OAI's flow).

This module reads the SBI exchanges of a live registration off its span
tree and checks both properties, turning Fig 5 into an executable artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.fivegc.amf import PROCEDURE
from repro.fivegc.messages import AuthenticationResponse, RegistrationRequest
from repro.testbed import Testbed


@dataclass(frozen=True)
class SbiExchange:
    """One recorded request on the service-based interface."""

    src: str  # client endpoint name
    dst: str  # server endpoint name
    path: str


# The Fig 5 request order for one registration (responses implied): the
# exchanges the AMF's registration steps declare.  The UDM → eUDM and
# AUSF → eAUSF hops precede the challenge; AMF → eAMF follows RES*.
FIGURE5_SEQUENCE: Tuple[Tuple[str, str], ...] = (
    PROCEDURE[RegistrationRequest].exchanges
    + PROCEDURE[AuthenticationResponse].exchanges
)


@dataclass
class FlowVerdict:
    """Outcome of verifying one recorded registration against Fig 5."""

    conforms: bool
    observed: List[SbiExchange] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)


def record_registration_flow(testbed: Testbed) -> List[SbiExchange]:
    """Register a fresh UE and return its SBI exchanges in order: the
    ``sbi.request`` spans of its trace, whose pre-order is begin order."""
    trace = testbed.trace_registration()
    if not trace.outcome.success:
        raise RuntimeError(f"registration failed: {trace.outcome.failure_cause}")
    return [
        SbiExchange(src=span.tags["src"], dst=span.tags["dst"], path=span.tags["path"])
        for span in trace.root.walk()
        if span.kind == "sbi.request"
    ]


def _role_of(endpoint: str, testbed: Testbed) -> Optional[str]:
    """Map an endpoint name to its logical role (vnf or module name)."""
    vnf_clients = {
        testbed.amf.client.name: "amf",
        testbed.ausf.client.name: "ausf",
        testbed.udm.client.name: "udm",
        testbed.smf.client.name: "smf",
    }
    if endpoint in vnf_clients:
        return vnf_clients[endpoint]
    servers = {
        testbed.udr.name: "udr",
        testbed.udm.name: "udm",
        testbed.ausf.name: "ausf",
        testbed.amf.name: "amf",
    }
    if endpoint in servers:
        return servers[endpoint]
    for name, module in testbed.paka.modules.items():
        if module.server.name == endpoint:
            return name.split("#")[0]
    return None


def verify_figure5(testbed: Testbed) -> FlowVerdict:
    """Record one registration and verify Fig 5's order and topology."""
    observed = record_registration_flow(testbed)
    verdict = FlowVerdict(conforms=True, observed=observed)

    # Property 1: the Fig 5 exchanges occur exactly once, in order.
    keyed = [(_role_of(x.src, testbed), x.path) for x in observed]
    positions: Dict[Tuple[str, str], List[int]] = {}
    for index, key in enumerate(keyed):
        positions.setdefault(key, []).append(index)
    last = -1
    for expected in FIGURE5_SEQUENCE:
        at = positions.get(expected, [])
        if len(at) != 1:
            verdict.violations.append(
                f"expected exactly one {expected}, saw {len(at)}"
            )
            continue
        if at[0] <= last:
            verdict.violations.append(f"{expected} out of order")
        last = at[0]

    # Property 2: modules only ever talk to (are talked to by) their
    # parent VNF — never to each other, never to other VNFs.
    parents = {"eudm": "udm", "eausf": "ausf", "eamf": "amf"}
    for exchange in observed:
        dst_role = _role_of(exchange.dst, testbed)
        src_role = _role_of(exchange.src, testbed)
        if dst_role in parents and src_role != parents[dst_role]:
            verdict.violations.append(
                f"module {dst_role} reached by {src_role}, "
                f"not its parent {parents[dst_role]}"
            )
        if src_role in parents:
            verdict.violations.append(
                f"module {src_role} initiated an exchange (modules must "
                f"only answer their parent VNF)"
            )

    verdict.conforms = not verdict.violations
    return verdict


def format_flow(observed: List[SbiExchange], testbed: Testbed) -> str:
    """Pretty-print a recorded flow as a Fig 5-style ladder."""
    lines = []
    for index, exchange in enumerate(observed, start=1):
        src = _role_of(exchange.src, testbed) or exchange.src
        dst = _role_of(exchange.dst, testbed) or exchange.dst
        lines.append(f"{index:>2}. {src:>6} -> {dst:<6} {exchange.path}")
    return "\n".join(lines)
