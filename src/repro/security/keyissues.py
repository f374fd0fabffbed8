"""Table V — 3GPP TR 33.848 Key Issues and the HMEE verdicts.

The paper marks four KIs (6, 7, 15, 25) where 3GPP itself recommends
HMEE, and argues HMEE also fully (✦) or partially (◑) mitigates nine
more.  This module reproduces that table *by execution*: every KI maps to
one or more attacks from :mod:`repro.security.attacks`, which are run
against a plain-container deployment (the attack must succeed — the KI is
real) and against the P-AKA/SGX deployment (the attack must fail — HMEE
mitigates it).  Partial verdicts additionally record the residual
requirements that are out of HMEE's reach.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

from repro.container.image import ContainerImage, FileEntry, ImageLayer, oai_base_image
from repro.security.attacks import (
    AttackResult,
    AttestationSpoofAttack,
    FunctionTamperAttack,
    ImageSecretExtractionAttack,
    MemoryIntrospectionAttack,
    VirtualKeyStoreAttack,
)
from repro.security.threat import Attacker
from repro.testbed import Testbed


class Mitigation(Enum):
    FULL = "full"  # ✦ in Table V
    PARTIAL = "partial"  # ◑ in Table V


@dataclass(frozen=True)
class KeyIssue:
    """One TR 33.848 key issue with the paper's verdict."""

    number: int
    title: str
    identified_by_3gpp: bool  # ● — 3GPP itself recommends HMEE here
    paper_verdict: Mitigation
    attack: str  # primary attack exercising the KI
    residual: str = ""  # what HMEE does NOT cover (partial verdicts)


KEY_ISSUES: Tuple[KeyIssue, ...] = (
    KeyIssue(2, "Confidentiality of sensitive data", False, Mitigation.FULL,
             attack="memory-introspection"),
    KeyIssue(5, "Data location and lifecycle", False, Mitigation.PARTIAL,
             attack="memory-introspection",
             residual="at-rest encryption and storage-reuse scrubbing on "
                      "non-EPC resources remain operator duties"),
    KeyIssue(6, "Function isolation", True, Mitigation.FULL,
             attack="function-tamper"),
    KeyIssue(7, "Memory introspection", True, Mitigation.FULL,
             attack="memory-introspection"),
    KeyIssue(11, "Where are my keys and confidential data", False, Mitigation.PARTIAL,
             attack="virtual-keystore",
             residual="requires the NF to actually verify key-store "
                      "attestation before use"),
    KeyIssue(12, "Where is my function", False, Mitigation.PARTIAL,
             attack="attestation-spoof",
             residual="deployment orchestration must gate placement on the "
                      "attestation result"),
    KeyIssue(13, "Attestation at 3GPP function level", False, Mitigation.FULL,
             attack="attestation-spoof"),
    KeyIssue(15, "Encrypted data processing", True, Mitigation.FULL,
             attack="memory-introspection"),
    KeyIssue(20, "3rd party hosting environments", False, Mitigation.PARTIAL,
             attack="memory-introspection",
             residual="infrastructure-level SLAs and availability are "
                      "outside the enclave boundary"),
    KeyIssue(21, "VM and hypervisor breakout", False, Mitigation.PARTIAL,
             attack="memory-introspection",
             residual="HMEE cannot prevent the breakout itself, only void "
                      "its payoff"),
    KeyIssue(25, "Container security", True, Mitigation.FULL,
             attack="memory-introspection"),
    KeyIssue(26, "Container breakout", False, Mitigation.PARTIAL,
             attack="memory-introspection",
             residual="breakout still yields host control; non-enclave "
                      "workloads remain exposed"),
    KeyIssue(27, "Secrets in NF container images", False, Mitigation.FULL,
             attack="image-secret-extraction"),
)


@dataclass
class KeyIssueVerdict:
    """Executed verdict for one KI."""

    issue: KeyIssue
    attack_on_container: AttackResult
    attack_on_hmee: AttackResult
    hmee_effective: bool
    matches_paper: bool

    def row(self) -> Dict[str, object]:
        """One Table V row."""
        marker = "●" if self.issue.identified_by_3gpp else " "
        verdict = "✦" if self.issue.paper_verdict is Mitigation.FULL else "◑"
        return {
            "KI": self.issue.number,
            "Description": self.issue.title,
            "3GPP": marker,
            "Solution": verdict,
            "attack_succeeds_on_container": self.attack_on_container.succeeded,
            "attack_succeeds_on_hmee": self.attack_on_hmee.succeeded,
            "hmee_effective": self.hmee_effective,
        }


def _build_attacker(testbed: Testbed, name: str) -> Attacker:
    attacker = Attacker(name=name, host=testbed.host, engine=testbed.engine)
    if not attacker.full_chain():  # pragma: no cover - p(fail) = 0.1^3
        raise RuntimeError("attacker failed to establish the attack chain")
    return attacker


def _credential_image(sealed: bool) -> ContainerImage:
    """A module image carrying TLS client credentials (KI 27 target)."""
    secret = bytes(range(32))
    content = secret if not sealed else bytes(b ^ 0xA5 for b in secret)  # sealed blob
    layer = ImageLayer(
        "credentials",
        files=[FileEntry("/etc/paka/credentials", len(content), content)],
    )
    image, _ = oai_base_image("eudm-aka", bulk_mb=100)
    return image.with_layer(layer)


def _run_attack(name: str, attacker: Attacker, testbed: Testbed) -> AttackResult:
    if name == "memory-introspection":
        return MemoryIntrospectionAttack().run(attacker, testbed)
    if name == "function-tamper":
        return FunctionTamperAttack().run(attacker, testbed)
    if name == "virtual-keystore":
        return VirtualKeyStoreAttack().run(attacker, testbed)
    if name == "attestation-spoof":
        return AttestationSpoofAttack().run(attacker, testbed)
    if name == "image-secret-extraction":
        sealed = testbed.paka.shielded
        return ImageSecretExtractionAttack().run_against_image(
            _credential_image(sealed=sealed), sealed=sealed
        )
    raise ValueError(f"no attack implementation for {name!r}")


def evaluate_key_issues(
    container_testbed: Testbed,
    hmee_testbed: Testbed,
    registrations: int = 2,
) -> List[KeyIssueVerdict]:
    """Execute the full Table V evaluation.

    ``registrations`` UEs are registered through each deployment first so
    the modules hold live key material worth stealing.
    """
    for testbed in (container_testbed, hmee_testbed):
        for _ in range(registrations):
            ue = testbed.add_subscriber()
            outcome = testbed.register(ue, establish_session=False)
            if not outcome.success:
                raise RuntimeError(
                    f"registration failed during KI setup: {outcome.failure_cause}"
                )

    verdicts: List[KeyIssueVerdict] = []
    for issue in KEY_ISSUES:
        attacker_c = _build_attacker(container_testbed, f"mallory-ki{issue.number}-c")
        attacker_h = _build_attacker(hmee_testbed, f"mallory-ki{issue.number}-h")
        on_container = _run_attack(issue.attack, attacker_c, container_testbed)
        on_hmee = _run_attack(issue.attack, attacker_h, hmee_testbed)
        effective = on_container.succeeded and not on_hmee.succeeded
        verdicts.append(
            KeyIssueVerdict(
                issue=issue,
                attack_on_container=on_container,
                attack_on_hmee=on_hmee,
                hmee_effective=effective,
                matches_paper=effective,  # paper claims HMEE helps on all 13
            )
        )
    return verdicts


def format_table_v(verdicts: List[KeyIssueVerdict]) -> str:
    """Render the verdicts as the paper's Table V."""
    lines = [
        "KI # | 3GPP | Solution | Container attack | HMEE attack | Description",
        "-----+------+----------+------------------+-------------+------------",
    ]
    for verdict in verdicts:
        row = verdict.row()
        lines.append(
            f"{row['KI']:>4} |  {row['3GPP']}   |    {row['Solution']}     |"
            f" {'succeeds' if row['attack_succeeds_on_container'] else 'fails  ':>16} |"
            f" {'succeeds' if row['attack_succeeds_on_hmee'] else 'fails':>11} |"
            f" {row['Description']}"
        )
    return "\n".join(lines)
