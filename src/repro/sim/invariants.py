"""The safety properties of a testbed, stated once.

:func:`check` reads a quiescent testbed — no NAS round, SBI call or
ECALL in flight — and returns one line per violated property.  It draws
no random number and moves no clock, so any reader may run it:
:func:`repro.obs.collect.observe` does at its exit and
:func:`repro.experiments.shard.run_shard` after its measured window,
both through :func:`enforce`, which raises.  Nothing here is an
``assert``, so ``python -O`` judges the same properties.

* *Outcomes:* every registration the gNB attempted recorded one sojourn.
* *AMF:* every GUTI it resolves is the GUTI of a session it holds, for
  that session's SUPI; pending sessions stay within
  ``max_pending_sessions`` when it is set; a REGISTERED session keeps no
  identity, authCtxId, RAND or HXRES*.
* *AUSF:* contexts sit in issue order, and the newest is at most
  ``_CONTEXT_TTL_NS`` younger than the oldest.  Expiry is lazy — the
  expired ones go when the next challenge is issued — so a held context
  may be older than the TTL; it is refused, never confirmed.
* *RNG:* the service keeps no per-UE stream (``ue.*``, ``sub.*``).
* *SGX:* EPC residency stays within capacity.

Since a :func:`baseline` taken at a window's start, also:

* *SGX:* per module, ΔEENTER = ΔEEXIT (every OCALL leaves and re-enters
  the enclave; the persistent ECALLs were entered before any window) and
  ΔERESUME = ΔAEX (every asynchronous exit resumes).
* *UDR:* every SQN moved forward mod 2⁴⁸ (less than half the ring).

A NAS step's edge needs its uplink and the answer, which only a caller
taking single steps has: the stateful search in
``tests/property/test_interleavings.py`` judges each step against
:data:`~repro.fivegc.amf.PROCEDURE`, and this kernel after it.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional

from repro.fivegc.amf import REGISTERED
from repro.fivegc.ausf import _CONTEXT_TTL_NS
from repro.sgx.stats import SgxStats

_SQN_RING = 1 << 48
_PER_UE_STREAMS = ("ue.", "sub.")


class InvariantViolation(RuntimeError):
    """A testbed broke a property :func:`check` states."""


class Baseline(NamedTuple):
    """What a window's counters are judged against: each module's SGX
    counters and each subscriber's SQN at its start."""

    sgx: Dict[str, SgxStats]
    sqns: Dict[str, int]


def baseline(testbed: Any) -> Baseline:
    """Capture the counters the ``since`` properties difference."""
    return Baseline(
        sgx={
            name: module.runtime.sgx_stats.snapshot()
            for name, module in testbed.paka.modules.items()
            if module.runtime.sgx_stats is not None
        },
        sqns={supi: record.sqn for supi, record in testbed.udr._subscribers.items()},
    )


def check(testbed: Any, since: Optional[Baseline] = None) -> List[str]:
    """The violated properties of ``testbed``, one line each; with
    ``since``, the window properties too."""
    violations: List[str] = []
    gnb = testbed.gnb
    if gnb.registrations_attempted != gnb.sojourn_ms.stats.count:
        violations.append(
            f"outcomes: {gnb.registrations_attempted} registrations attempted, "
            f"{gnb.sojourn_ms.stats.count} sojourns recorded"
        )

    amf = testbed.amf
    held = {s.guti: s.supi for s in amf._sessions.values() if s.guti}
    for guti, supi in amf._guti_to_supi.items():
        if held.get(guti) != supi:
            violations.append(f"amf: GUTI {guti} resolves to {supi}, no session holds it")
    cap = amf.max_pending_sessions
    if cap is not None and amf.pending_count() > cap:
        violations.append(f"amf: {amf.pending_count()} pending sessions, cap {cap}")
    for session in amf._sessions.values():
        if session.state == REGISTERED and (
            session.identity or session.auth_ctx_id or session.rand or session.hxres_star
        ):
            violations.append(f"amf: registered {session.ue_id} still holds its challenge")

    issued = [context.issued_ns for context in testbed.ausf._contexts.values()]
    if issued != sorted(issued):
        violations.append("ausf: contexts out of issue order")
    elif issued and issued[-1] - issued[0] > _CONTEXT_TTL_NS:
        violations.append(
            f"ausf: contexts span {issued[-1] - issued[0]} ns, TTL {_CONTEXT_TTL_NS}"
        )

    per_ue = sorted(
        name for name in testbed.host.rng._streams if name.startswith(_PER_UE_STREAMS)
    )
    if per_ue:
        violations.append(f"rng: per-UE streams kept: {per_ue}")

    epc = testbed.deployment.epc_manager
    if epc.resident_pages > epc.capacity_pages:
        violations.append(
            f"sgx: {epc.resident_pages} EPC pages resident, capacity {epc.capacity_pages}"
        )
    if since is not None:
        violations.extend(_window(testbed, since))
    return violations


def _window(testbed: Any, since: Baseline) -> List[str]:
    violations = []
    for name, before in since.sgx.items():
        delta = testbed.paka.modules[name].runtime.sgx_stats.delta(before)
        if delta.eenters != delta.eexits:
            violations.append(
                f"sgx: {name} ΔEENTER {delta.eenters} != ΔEEXIT {delta.eexits}"
            )
        if delta.eresumes != delta.aexs:
            violations.append(
                f"sgx: {name} ΔERESUME {delta.eresumes} != ΔAEX {delta.aexs}"
            )
    records = testbed.udr._subscribers
    for supi, sqn in since.sqns.items():
        if (records[supi].sqn - sqn) % _SQN_RING >= _SQN_RING // 2:
            violations.append(f"udr: {supi} SQN went back from {sqn} to {records[supi].sqn}")
    return violations


def enforce(testbed: Any, since: Optional[Baseline] = None) -> None:
    """Raise :class:`InvariantViolation` if :func:`check` finds anything."""
    violations = check(testbed, since)
    if violations:
        raise InvariantViolation("; ".join(violations))
