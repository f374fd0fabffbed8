"""Concrete attack executions.

Each attack runs against a deployed testbed and reports whether it
extracted (or tampered with) anything of value.  The success criterion is
*semantic*, not structural: an attack only counts as successful when real
key material (hex-decodable secrets of the right shape) was recovered —
receiving MEE ciphertext is a failure even though bytes were read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.security.threat import Attacker, AttackerCapability
from repro.sgx.attestation import AttestationService, QuotingEnclave, verify_quote
from repro.sgx.errors import AttestationError
from repro.testbed import Testbed


@dataclass
class AttackResult:
    """Outcome of one attack execution."""

    attack: str
    succeeded: bool
    evidence: Dict[str, str] = field(default_factory=dict)
    notes: str = ""


def _parse_secrets(memory: bytes) -> Optional[Dict[str, bytes]]:
    """Try to interpret a memory dump as plaintext secrets."""
    try:
        data = json.loads(memory.decode())
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(data, dict):
        return None
    secrets = {}
    for key, value in data.items():
        if not isinstance(value, str):
            return None
        try:
            secrets[key] = bytes.fromhex(value)
        except ValueError:
            return None
    return secrets


class MemoryIntrospectionAttack:
    """KI 7 / KI 15: read the AKA module's memory through the compromised
    virtualization layer and harvest key material."""

    name = "memory-introspection"

    def run(self, attacker: Attacker, testbed: Testbed) -> AttackResult:
        if testbed.paka is None:
            raise ValueError("attack requires deployed P-AKA/AKA modules")
        harvested: Dict[str, str] = {}
        for module_name, container in testbed.paka.containers.items():
            memory = attacker.introspect_container(container.name)
            secrets = _parse_secrets(memory)
            if secrets:
                for key, value in secrets.items():
                    harvested[f"{module_name}/{key}"] = value.hex()
        return AttackResult(
            attack=self.name,
            succeeded=bool(harvested),
            evidence=harvested,
            notes=(
                "plaintext key material recovered from module memory"
                if harvested
                else "memory reads returned only MEE ciphertext"
            ),
        )


class VirtualKeyStoreAttack:
    """KI 11: present the NF with a fake 'hardware' key store and capture
    what it deposits.  Against the P-AKA deployment the NF verifies the
    key store's enclave quote first, so the fake store is rejected."""

    name = "virtual-keystore"

    def run(self, attacker: Attacker, testbed: Testbed) -> AttackResult:
        attacker.require(AttackerCapability.ENGINE_PRIVILEGES)
        shielded = testbed.paka is not None and testbed.paka.shielded
        if not shielded:
            # Nothing stops the substitution: the NF cannot distinguish
            # the fake store, and deposits arrive in attacker memory.
            return AttackResult(
                attack=self.name,
                succeeded=True,
                evidence={"keystore": "substituted; deposits observable"},
                notes="no attestation available to vet the key store",
            )
        # With HMEE the operator requires a valid quote over a known
        # measurement before trusting the store; the attacker cannot
        # produce one for its fake store.
        service = AttestationService()
        try:
            verify_quote(
                _forged_quote(attacker), service, expected_mrenclave=bytes(32)
            )
            substituted = True
        except AttestationError:
            substituted = False
        return AttackResult(
            attack=self.name,
            succeeded=substituted,
            notes="fake key store rejected: no valid platform quote",
        )


def _forged_quote(attacker: Attacker):
    from repro.sgx.attestation import Quote

    return Quote(
        mrenclave=bytes(32),
        mrsigner=bytes(32),
        isv_prod_id=0,
        isv_svn=0,
        report_data=b"fake-keystore",
        platform_id=f"rogue-{attacker.name}",
        debug=False,
        signature=bytes(32),
    )


class ImageSecretExtractionAttack:
    """KI 27: pull the module's container image and read baked-in
    credentials.  The mitigation ships a *sealed* blob instead: the bytes
    are there but unusable outside the enclave identity that sealed them."""

    name = "image-secret-extraction"
    SECRET_PATH = "/etc/paka/credentials"

    def run_against_image(self, image, sealed: bool) -> AttackResult:
        try:
            content = image.read_file(self.SECRET_PATH)
        except (FileNotFoundError, ValueError):
            return AttackResult(
                attack=self.name, succeeded=False, notes="no credential file in image"
            )
        if sealed:
            # The attacker holds ciphertext sealed to an enclave identity
            # on another platform; without the fused key it is noise.
            return AttackResult(
                attack=self.name,
                succeeded=False,
                notes="credential file present but sealed to the enclave identity",
            )
        return AttackResult(
            attack=self.name,
            succeeded=True,
            evidence={"credentials": content.hex()},
            notes="plaintext credentials recovered from the image",
        )


class FunctionTamperAttack:
    """KI 6 / KI 21 / KI 26: tamper with the module's code.  Against the
    P-AKA deployment the tampered enclave measures differently, so
    attestation against the expected MRENCLAVE fails and the relying
    party refuses to provision keys to it."""

    name = "function-tamper"

    def run(self, attacker: Attacker, testbed: Testbed) -> AttackResult:
        attacker.require(AttackerCapability.HOST_ROOT)
        if testbed.paka is None or not testbed.paka.shielded:
            return AttackResult(
                attack=self.name,
                succeeded=True,
                notes="module binary patched in place; nothing detects the change",
            )
        enclave = next(iter(testbed.paka.enclaves.values()))
        service = AttestationService()
        qe = QuotingEnclave("platform-0", service)
        genuine = qe.quote(enclave, report_data=b"provisioning")
        # The tampered build measures differently; verification against
        # the genuine MRENCLAVE therefore fails.
        tampered_mrenclave = bytes(
            b ^ 0xFF for b in genuine.mrenclave
        )
        try:
            verify_quote(
                genuine,
                service,
                expected_mrenclave=tampered_mrenclave,
                allow_debug=True,
            )
            detected = False
        except AttestationError:
            detected = True
        return AttackResult(
            attack=self.name,
            succeeded=not detected,
            notes=(
                "tampered enclave detected via MRENCLAVE mismatch"
                if detected
                else "tampering went unnoticed"
            ),
        )


class AttestationSpoofAttack:
    """KI 12 / KI 13 / KI 20: convince the VNO that a rogue host is a
    genuine high-trust HMEE platform.  Fails because the rogue platform
    holds no Intel-provisioned attestation key."""

    name = "attestation-spoof"

    def run(self, attacker: Attacker, testbed: Testbed) -> AttackResult:
        service = AttestationService()
        if testbed.paka is not None and testbed.paka.shielded:
            # Register the genuine platform so honest quotes verify.
            QuotingEnclave("platform-0", service)
        try:
            verify_quote(_forged_quote(attacker), service)
            spoofed = True
        except AttestationError:
            spoofed = False
        if testbed.paka is None or not testbed.paka.shielded:
            # Without HMEE there is no attestation to spoof — the VNO has
            # no way to check the host at all, so the rogue host wins by
            # default.
            return AttackResult(
                attack=self.name,
                succeeded=True,
                notes="no hardware attestation in the deployment; host trust unverifiable",
            )
        return AttackResult(
            attack=self.name,
            succeeded=spoofed,
            notes="forged quote rejected: unknown platform key" if not spoofed else "",
        )


class GuestKernelExploitAttack:
    """TCB-size attack: a kernel LPE *inside* the module's OS.

    Against a plain container or a secure VM the kernel is inside the
    trust boundary, so a kernel exploit reads the module's memory in the
    clear.  Against SGX the kernel is untrusted by construction — the
    exploit lands outside the enclave and reads ciphertext.  This is the
    paper's §IV-C argument for small-TCB enclaves, executed.
    """

    name = "guest-kernel-exploit"

    def run(self, attacker: Attacker, testbed: Testbed) -> AttackResult:
        if testbed.paka is None:
            raise ValueError("attack requires deployed modules")
        from repro.securevm.runtime import GUEST_KERNEL_ACTOR

        harvested: Dict[str, str] = {}
        for module_name, module in testbed.paka.modules.items():
            memory = module.runtime.memory_view(GUEST_KERNEL_ACTOR)
            secrets = _parse_secrets(memory)
            if secrets:
                for key, value in secrets.items():
                    harvested[f"{module_name}/{key}"] = value.hex()
        return AttackResult(
            attack=self.name,
            succeeded=bool(harvested),
            evidence=harvested,
            notes=(
                "kernel is inside the trust domain: secrets readable"
                if harvested
                else "kernel is outside the enclave TCB: only ciphertext"
            ),
        )


class NetworkSniffAttack:
    """On-path capture of the VNF ↔ module exchanges on the bridge.

    TLS protects these in *both* deployments (3GPP mandates it); the
    attack verifies that captured frames carry no recognisable AKA
    parameters.  Included to show which protections come from TLS rather
    than from HMEE."""

    name = "network-sniff"

    def run(self, attacker: Attacker, testbed: Testbed, registrations: int = 2) -> AttackResult:
        attacker.tap_bridge("oai-bridge")
        known_secrets: List[bytes] = []
        for _ in range(registrations):
            ue = testbed.add_subscriber()
            testbed.register(ue, establish_session=False)
            if ue.kamf:
                known_secrets.append(ue.kamf)
        frames = attacker.collect_tap("oai-bridge")
        leaked = {}
        for index, frame in enumerate(frames):
            for secret in known_secrets:
                if secret and secret in frame.payload:
                    leaked[f"frame-{index}"] = secret.hex()
            if b"kausf" in frame.payload or b"kseaf" in frame.payload:
                leaked[f"frame-{index}-fieldnames"] = "plaintext JSON visible"
        return AttackResult(
            attack=self.name,
            succeeded=bool(leaked),
            evidence=leaked,
            notes=f"captured {len(frames)} frames; "
            + ("key material visible" if leaked else "all payloads TLS-protected"),
        )


# --------------------------------------------------------------------------
# Adversarial signaling traffic (ROADMAP item 4).
#
# Everything below models *hostile load* rather than key extraction: seeded
# deterministic signaling storms aimed at the AMF's NAS front door and the
# enclave-backed authentication path behind it.  The storm schedule is a
# pure value of (seed, rate, horizon) drawn from a private
# ``random.Random`` — the testbed's namespaced RNG streams are never
# touched by schedule generation, and the attack UE population provisions
# through dedicated ``9…``/``8…`` MSIN prefixes whose streams are disjoint
# from every legitimate subscriber's.  A testbed with no AttackPlane
# attached executes zero attack code: golden clocks hold byte-for-byte.
# --------------------------------------------------------------------------

from enum import Enum
from random import Random
from typing import Tuple

from repro.fivegc.amf import MAX_NAS_ROUNDS, AmfError
from repro.fivegc.messages import (
    AuthenticationFailure,
    AuthenticationReject,
    AuthenticationRequest,
    AuthenticationResponse,
    RegistrationRequest,
    SecurityModeComplete,
)

NS_PER_S = 1_000_000_000


class StormKind(Enum):
    """The four adversarial signaling workloads."""

    SUCI_REPLAY = "suci-replay"  # captured SUCI replayed from spoofed ids
    AUTS_RESYNC = "auts-resync"  # forged-AUTS synchronization-failure storm
    NAS_FUZZ = "nas-fuzz"  # malformed NAS from a seeded RNG stream
    BOTNET_REGISTER = "botnet-register"  # valid registrations, hostile volume


#: Traffic mix of a blended storm (weights need not sum to 1), drawn in
#: the order of the kinds' names.
_STORM_MIX: Tuple[Tuple[StormKind, float], ...] = (
    (StormKind.AUTS_RESYNC, 0.2),
    (StormKind.BOTNET_REGISTER, 0.25),
    (StormKind.NAS_FUZZ, 0.2),
    (StormKind.SUCI_REPLAY, 0.35),
)
SPOOF_POOL = 64  # distinct spoofed identities replaying captures
ATTACK_GNBS = 4  # hostile cells the traffic enters through
BOTNET_POPULATION = 32  # provisioned bots, cycled round-robin
#: Names the hostile cells (``gnb-atk-0`` …): the defender tells storm
#: ingress from legitimate cells by this prefix.
ATTACK_CELL_PREFIX = "gnb-atk-"


@dataclass(frozen=True)
class AttackEvent:
    """One scheduled hostile arrival (``at_ns`` relative to storm start)."""

    at_ns: int
    kind: StormKind
    gnb: str
    source: str
    salt: int  # per-event seed for fuzz payload draws


def generate_storm(
    seed: int, horizon_s: float, rate_per_s: float
) -> Tuple[AttackEvent, ...]:
    """Poisson storm schedule: a pure value of its arguments.

    Drawn from a private ``random.Random`` (the FaultPlan idiom), so
    generating a schedule perturbs no testbed RNG stream; the same
    arguments always yield byte-identical events.
    """
    if rate_per_s <= 0:
        return ()
    rng = Random(f"storm:{seed}:{horizon_s}:{rate_per_s}")
    horizon_ns = int(horizon_s * NS_PER_S)
    kinds = [kind for kind, _ in _STORM_MIX]
    weights = [weight for _, weight in _STORM_MIX]
    total_weight = sum(weights)
    events = []
    t_ns = 0
    bot_cursor = 0
    while True:
        t_ns += int(rng.expovariate(rate_per_s) * NS_PER_S)
        if t_ns >= horizon_ns:
            break
        pick = rng.random() * total_weight
        kind = kinds[-1]
        for candidate, weight in zip(kinds, weights):
            if pick < weight:
                kind = candidate
                break
            pick -= weight
        gnb = f"{ATTACK_CELL_PREFIX}{rng.randrange(ATTACK_GNBS)}"
        if kind is StormKind.BOTNET_REGISTER:
            source = f"bot-{bot_cursor % BOTNET_POPULATION}"
            bot_cursor += 1
        else:
            source = f"spoof-{rng.randrange(SPOOF_POOL)}"
        events.append(
            AttackEvent(
                at_ns=t_ns,
                kind=kind,
                gnb=gnb,
                source=source,
                salt=rng.getrandbits(32),
            )
        )
    return tuple(events)


#: MSIN prefixes reserved for the attack plane.  Disjoint from the
#: sequential ``0000000001…`` numbering of legitimate subscribers, so
#: provisioning attack UEs draws only from ``sub.9…``/``sub.8…`` RNG
#: streams and never perturbs a legitimate draw.
VICTIM_MSIN = "9000000001"
BOTNET_MSIN_PREFIX = "8"

_N2_LATENCY_US = 140.0


class AttackPlane:
    """Executes storm events against a testbed's AMF over N2.

    Hostile traffic enters at the N2 interface from dedicated attack
    gNB identities (``gnb-atk-*``): the botnet burns *its own* cells'
    radio resources, so only core-side costs (N2 transport + AMF/SBI/
    enclave work) land on the shared simulated clock.  All randomness
    comes from attack-only namespaced streams (``atk.*``) or per-event
    private ``Random`` instances — a disarmed testbed's draws are
    untouched.
    """

    def __init__(self, testbed: Testbed) -> None:
        self.testbed = testbed
        self.amf = testbed.amf
        self.host = testbed.host
        # Captured over-the-air SUCI of an attacker-observed victim: one
        # valid concealed identity, replayed verbatim from spoofed ids.
        victim = testbed.add_subscriber(msin=VICTIM_MSIN)
        self.captured_suci_request = victim.build_registration_request()
        # Botnet population: real provisioned subscribers under attacker
        # control (volume is the weapon, not malformed content).
        self.botnet = [
            testbed.add_subscriber(msin=f"{BOTNET_MSIN_PREFIX}{i:09d}")
            for i in range(BOTNET_POPULATION)
        ]
        self.events_executed = 0
        # outcome in {"pending", "completed", "rejected", "shed", "errored"}
        self.outcomes: Dict[str, Dict[str, int]] = {
            kind.value: {} for kind in StormKind
        }

    # ------------------------------------------------------------ plumbing

    def _n2(self, gnb: str) -> None:
        self.host.clock.advance_us(
            self.host.rng.jitter(f"atk.{gnb}.n2", _N2_LATENCY_US, 0.05)
        )

    def _count(self, kind: StormKind, outcome: str) -> None:
        bucket = self.outcomes[kind.value]
        bucket[outcome] = bucket.get(outcome, 0) + 1

    def _send(self, ue_id: str, message, gnb: str):
        """One NAS round over N2; AmfError (malformed/out-of-order NAS
        the AMF refuses to process) surfaces as ``None``."""
        self._n2(gnb)
        try:
            reply = self.amf.handle_nas(ue_id, message, via=gnb)
        except AmfError:
            reply = None
        self._n2(gnb)
        return reply

    @staticmethod
    def _is_shed(reply) -> bool:
        return isinstance(reply, AuthenticationReject) and reply.cause.startswith(
            "congestion:"
        )

    # ------------------------------------------------------------- execute

    def execute(self, event: AttackEvent) -> str:
        """Run one storm event; returns the outcome label."""
        handler = {
            StormKind.SUCI_REPLAY: self._run_suci_replay,
            StormKind.AUTS_RESYNC: self._run_auts_resync,
            StormKind.NAS_FUZZ: self._run_nas_fuzz,
            StormKind.BOTNET_REGISTER: self._run_botnet_register,
        }[event.kind]
        # Storm events enter at the AMF directly (no gNB registration
        # root), so under an armed campaign tracer their SBI spans would
        # pile up as orphan roots for the whole horizon.  Each event runs
        # under a root with no subscriber identity, which is recycled as
        # it closes: bounded memory, untraced runs untouched.
        with self.host.trace(event.kind.value, "attack", gnb=event.gnb):
            outcome = handler(event)
        self.events_executed += 1
        self._count(event.kind, outcome)
        self.host.tick()
        return outcome

    def _run_suci_replay(self, event: AttackEvent) -> str:
        """Replay the captured SUCI: every accepted replay burns a full
        authentication-vector generation in the eUDM enclave."""
        reply = self._send(event.source, self.captured_suci_request, event.gnb)
        if isinstance(reply, AuthenticationRequest):
            return "pending"  # challenge ignored; session left dangling
        if self._is_shed(reply):
            return "shed"
        return "rejected" if reply is not None else "errored"

    def _run_auts_resync(self, event: AttackEvent) -> str:
        """Forged-AUTS storm: answer the challenge with SYNCH_FAILURE and
        attacker-chosen AUTS, forcing the home network through the
        TS 33.102 §6.3.5 resync path (AUTS verification in the eUDM)."""
        reply = self._send(event.source, self.captured_suci_request, event.gnb)
        if self._is_shed(reply):
            return "shed"
        if not isinstance(reply, AuthenticationRequest):
            return "rejected" if reply is not None else "errored"
        forged_auts = Random(f"storm:auts:{event.salt}").randbytes(14)
        reply = self._send(
            event.source,
            AuthenticationFailure(cause="SYNCH_FAILURE", auts=forged_auts),
            event.gnb,
        )
        # The eUDM's MAC-S check fails, so the AMF rejects — but the
        # resync round-trip (and its enclave entries) was already spent.
        return "rejected" if reply is not None else "errored"

    def _run_nas_fuzz(self, event: AttackEvent) -> str:
        """Malformed-NAS fuzzing from a seeded RNG stream."""
        rng = Random(f"storm:fuzz:{event.salt}")
        variant = rng.randrange(6)
        if variant == 0:  # truncated/garbled scheme output (valid hex)
            message = RegistrationRequest(
                suci={
                    "mcc": "001",
                    "mnc": "01",
                    "scheme": 1,
                    "keyId": 1,
                    "schemeOutput": rng.randbytes(rng.randrange(1, 40)).hex(),
                }
            )
        elif variant == 1:  # non-hex scheme output
            message = RegistrationRequest(
                suci={
                    "mcc": "001",
                    "mnc": "01",
                    "scheme": 1,
                    "keyId": 1,
                    "schemeOutput": "zz-not-hex-" + str(rng.randrange(10**6)),
                }
            )
        elif variant == 2:  # structurally broken SUCI object
            message = RegistrationRequest(suci={"mcc": "001"})
        elif variant == 3:  # unknown temporary identity
            message = RegistrationRequest(
                guti=f"5g-guti-00101-{rng.randrange(16**8):08x}-deadbeef"
            )
        elif variant == 4:  # out-of-context challenge response
            message = AuthenticationResponse(res_star=rng.randbytes(16))
        else:  # out-of-context security-mode complete
            message = SecurityModeComplete(mac=rng.randbytes(4))
        reply = self._send(event.source, message, event.gnb)
        if self._is_shed(reply):
            return "shed"
        return "rejected" if reply is not None else "errored"

    def _run_botnet_register(self, event: AttackEvent) -> str:
        """One full (valid!) registration from the botnet population —
        the DDoS weapon is volume through the enclave path, not content."""
        bot = self.botnet[int(event.source.split("-")[1])]
        uplink = bot.build_registration_request()
        rounds = 0
        while uplink is not None and rounds < MAX_NAS_ROUNDS:
            downlink = self._send(bot.name, uplink, event.gnb)
            rounds += 1
            if downlink is None:
                return "errored"
            if isinstance(downlink, AuthenticationReject):
                return "shed" if self._is_shed(downlink) else "rejected"
            uplink = bot.handle_nas(downlink)
        return "completed" if bot.registered else "rejected"

    # ------------------------------------------------------------- metrics

    def collect_metrics(self, registry) -> None:
        registry.counter("attack_events_total").set(self.events_executed)
        for kind, outcomes in sorted(self.outcomes.items()):
            for outcome, count in sorted(outcomes.items()):
                registry.counter(
                    "attack_outcomes_total", kind=kind, outcome=outcome
                ).set(count)

    def summary(self) -> Dict[str, Dict[str, int]]:
        """Per-kind outcome counts (stable key order for reports)."""
        return {
            kind: dict(sorted(outcomes.items()))
            for kind, outcomes in sorted(self.outcomes.items())
            if outcomes
        }
