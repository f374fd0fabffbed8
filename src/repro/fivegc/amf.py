"""AMF — Access and Mobility Management Function (with the SEAF role).

Terminates NAS signalling from the gNB, drives the 5G-AKA exchange of
Fig 5, and activates NAS security once K_AMF is derived:

1. Registration Request (SUCI) arrives → authenticate via AUSF,
2. Authentication Request (RAND, AUTN) goes to the UE,
3. the UE's RES* is checked against HXRES* (SEAF), then confirmed with
   the AUSF, which releases K_SEAF,
4. K_AMF is derived from K_SEAF — inside the eAMF P-AKA module when
   offloaded (Fig 5 step 5) — and NAS int/enc keys follow,
5. Security Mode Command/Complete (real 128-NIA2 MACs), then
   Registration Accept with a fresh 5G-GUTI.

:data:`PROCEDURE` declares these steps once: per uplink NAS type, the
state it requires, the SBI exchanges it causes, and its success and
reject edges.  The dispatch, Fig 5's sequence (:mod:`repro.paka.flow`)
and the gNB's NAS round labels are all read from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from repro.crypto.cmac import nia2_mac
from repro.crypto.kdf import derive_hxres_star, derive_kamf, derive_nas_keys
from repro.fivegc.messages import (
    AuthenticationFailure,
    AuthenticationReject,
    AuthenticationRequest,
    AuthenticationResponse,
    DeregistrationAccept,
    DeregistrationRequest,
    NasMessage,
    PduSessionEstablishmentAccept,
    PduSessionEstablishmentRequest,
    RegistrationAccept,
    RegistrationComplete,
    RegistrationRequest,
    SecurityModeCommand,
    SecurityModeComplete,
)
from repro.fivegc.admission import (
    KIND_INITIAL,
    KIND_RETURNING,
    AdmissionController,
)
from repro.fivegc.nas_security import (
    DOWNLINK,
    NasSecurityError,
    ProtectedNasPdu,
    SecureNasChannel,
)
from repro.fivegc.nf_base import NetworkFunction
from repro.net import sbi
from repro.net.rest import JsonApiError
from repro.net.sbi import NFType
from repro.paka.modules import EamfPakaModule

_KAMF_LOCAL_CYCLES = EamfPakaModule.COMPUTE_CYCLES
_NAS_DECODE_CYCLES = 16_000
_NAS_ENCODE_CYCLES = 14_000
_HRES_CHECK_CYCLES = 9_500
_GUTI_ALLOC_CYCLES = 6_000
# Admission check + cheap reject encode when a registration is shed at
# the front door (armed controllers only; disarmed AMFs never spend it).
_ADMISSION_SHED_CYCLES = 4_000
_ABBA = b"\x00\x00"

# The states of a UE's NAS session, as ``Amf.session_state`` names them.
WAIT_AUTH_RESPONSE = "wait-auth-response"
WAIT_SMC_COMPLETE = "wait-smc-complete"
WAIT_REG_COMPLETE = "wait-registration-complete"
REGISTERED = "registered"
RELEASED = "none"  # no session held: the context and its GUTI are gone

#: NAS rounds one registration may take before the gNB (or a botnet
#: bot) gives up; a resync registration takes five.
MAX_NAS_ROUNDS = 12


class AmfError(Exception):
    """Protocol-state violation in the AMF."""


@dataclass
class _UeSession:
    ue_id: str
    via: Optional[str]  # originating gNB, for per-cell accounting
    state: str = WAIT_AUTH_RESPONSE
    identity: Dict[str, object] = field(default_factory=dict)  # suci or supi
    auth_ctx_id: str = ""
    rand: bytes = b""
    hxres_star: bytes = b""
    supi: str = ""
    kamf: bytes = b""
    k_nas_int: bytes = b""
    k_nas_enc: bytes = b""
    guti: str = ""
    downlink_count: int = 0
    uplink_count: int = 0
    resync_attempted: bool = False
    secure_channel: Optional[SecureNasChannel] = None


class Step(NamedTuple):
    """One NAS step of the procedure.  ``requires`` None opens (or
    replaces) the UE's session; ``exchanges`` are the SBI requests the
    step issues on an offloaded deployment, in order, as ``(caller role,
    path)``.  A step rejects when its downlink is an AuthenticationReject."""

    handler: Callable[["Amf", _UeSession, NasMessage], NasMessage]
    requires: Optional[str]
    exchanges: Tuple[Tuple[str, str], ...]
    success: str
    reject: str
    label: str  # the gNB's span name for the NAS round


class Amf(NetworkFunction):
    NF_TYPE = NFType.AMF

    def __init__(self, *args, serving_network_name: str, **kwargs) -> None:
        self.snn = serving_network_name
        self.offload_module: Optional[EamfPakaModule] = None
        self._sessions: Dict[str, _UeSession] = {}
        self._guti_to_supi: Dict[str, str] = {}
        self._guti_counter = 0
        # Adversarial-load defenses (repro.fivegc.admission).  None —
        # the default — keeps the pre-admission hot path: one attribute
        # read per registration, zero simulated cost, golden clocks hold.
        self.admission: Optional[AdmissionController] = None
        # Bound on concurrent non-registered sessions (None = unbounded,
        # the historical behaviour).  A SUCI flood that never answers its
        # challenges would otherwise grow _sessions without limit; when
        # the cap is hit the oldest pending session is evicted.
        self.max_pending_sessions: Optional[int] = None
        self.pending_evictions = 0
        # Defender-side detection signals (ROADMAP item 4): per-gNB
        # registration arrivals/accepts, AUTS resync requests, and NAS
        # protocol errors.  Always-on plain-int bookkeeping — no clock,
        # no RNG — so the attack classifier can read arrival skew and
        # signature rates even on an AMF whose defenses are disarmed.
        self.nas_arrivals: Dict[str, int] = {}
        self.nas_accepted: Dict[str, int] = {}
        self.auth_resyncs = 0
        self.nas_protocol_errors = 0
        super().__init__(*args, **kwargs)

    def attach_module(self, module: EamfPakaModule) -> None:
        self.offload_module = module

    def _register_routes(self) -> None:
        # The AMF's SBI surface is not needed by this reproduction's flows
        # (the gNB reaches it over N2, modelled as direct method dispatch).
        pass

    # ---------------------------------------------------------------- NAS

    def handle_nas(
        self, ue_id: str, message: NasMessage, via: Optional[str] = None
    ) -> NasMessage:
        """N1 dispatch: one uplink NAS message in, one downlink out.

        ``via`` names the originating gNB (for per-gNB rate guards);
        ``None`` — the historical call shape — skips gNB attribution.
        """
        # N1 is direct dispatch (no SBI hop opens a span here), so leave
        # this AMF's identity on the covering span — the NAS round the
        # gNB opened — for cross-NF trace assembly.
        self.host.annotate(amf=self.name)
        try:
            return self._dispatch_nas(ue_id, message, via)
        except AmfError:
            # Out-of-context / malformed NAS: the fuzz-storm signature.
            self.nas_protocol_errors += 1
            raise

    def _dispatch_nas(
        self, ue_id: str, message: NasMessage, via: Optional[str]
    ) -> NasMessage:
        """Look the message's step up, check the state it requires, run
        its handler and take the success or reject edge."""
        self.runtime.compute(_NAS_DECODE_CYCLES)
        step = PROCEDURE.get(type(message))
        if step is None:
            raise AmfError(f"unexpected NAS message {message.kind} from {ue_id}")
        if step.requires is None:
            session = _UeSession(ue_id=ue_id, via=via)
        else:
            session = self._sessions.get(ue_id)
            if session is None:
                raise AmfError(f"no NAS session for {ue_id}")
            if session.state != step.requires:
                raise AmfError(
                    f"{ue_id}: NAS message out of order (state {session.state}, "
                    f"expected {step.requires})"
                )
        downlink = step.handler(self, session, message)
        edge = step.reject if isinstance(downlink, AuthenticationReject) else step.success
        if edge == RELEASED:
            self._release(session)
        else:
            session.state = edge
        return downlink

    # --------------------------------------------------------- state steps

    def _on_registration_request(
        self, session: _UeSession, message: RegistrationRequest
    ) -> NasMessage:
        cell = session.via or "direct"
        # Arrival is counted *before* admission, so detection keeps
        # seeing the storm while the defenses shed it (hysteresis
        # would otherwise flap: shed -> signal gone -> stand down).
        self.nas_arrivals[cell] = self.nas_arrivals.get(cell, 0) + 1
        if self.admission is not None:
            denial = self.admission.check(
                self.host.clock.now_ns,
                source=session.ue_id,
                kind=KIND_RETURNING if message.guti is not None else KIND_INITIAL,
                gnb=session.via,
            )
            if denial is not None:
                # Shed at the front door: the session is never held, no
                # SBI call, no enclave work — just a cheap reject.
                self.runtime.compute(_ADMISSION_SHED_CYCLES)
                return AuthenticationReject(cause=denial)
        if self.max_pending_sessions is not None:
            self._evict_pending(budget=self.max_pending_sessions - 1)
        supi = None
        if message.guti is not None:
            # Re-registration with a temporary identity: resolve the SUPI
            # from the prior session — no SUCI/SIDF round needed.
            supi = self._guti_to_supi.get(message.guti)
            session.identity = {"supi": supi}
        else:
            session.identity = {"suci": message.suci}
        # The new session takes the old one's slot (eviction order is
        # insertion order); the old one is released, retiring its GUTI.
        replaced = self._sessions.get(session.ue_id)
        self._sessions[session.ue_id] = session
        if replaced is not None:
            self._release(replaced)
        if message.guti is not None and supi is None:
            return AuthenticationReject(cause=f"unknown GUTI {message.guti!r}")
        return self._authenticate(session)

    def _authenticate(
        self, session: _UeSession, resync_info: Optional[dict] = None
    ) -> NasMessage:
        """Run (or re-run, for resync) the AUSF authentication request."""
        ausf = self.peer(NFType.AUSF)
        payload: Dict[str, object] = {"servingNetworkName": self.snn}
        payload.update(session.identity)
        if resync_info is not None:
            payload["resynchronizationInfo"] = resync_info
        try:
            body = self.call(ausf, sbi.AUSF_UE_AUTH, payload)
        except JsonApiError as exc:  # refused / malformed / transport failure / circuit open
            return AuthenticationReject(cause=str(exc))
        session.auth_ctx_id = body["authCtxId"]
        session.rand = body["rand"]
        session.hxres_star = body["hxresStar"]
        self.runtime.compute(_NAS_ENCODE_CYCLES)
        return AuthenticationRequest(rand=session.rand, autn=body["autn"])

    def _on_authentication_response(
        self, session: _UeSession, message: AuthenticationResponse
    ) -> NasMessage:
        # SEAF check: HRES* = SHA-256(RAND ‖ RES*) truncated vs HXRES*.
        self.runtime.compute(_HRES_CHECK_CYCLES)
        hres_star = derive_hxres_star(session.rand, message.res_star)
        if hres_star != session.hxres_star:
            return AuthenticationReject(cause="HRES* mismatch at SEAF")

        # Confirm with the AUSF; on success it releases K_SEAF.  A dead
        # AUSF (or eAMF module, below) degrades into a reject for this
        # UE instead of unwinding the whole NAS exchange.
        ausf = self.peer(NFType.AUSF)
        try:
            body = self.call(
                ausf, sbi.AUSF_UE_AUTH_CONFIRM,
                {"authCtxId": session.auth_ctx_id, "resStar": message.res_star},
            )
        except JsonApiError as exc:  # refused / malformed / transport failure / circuit open
            return AuthenticationReject(cause=str(exc))
        kseaf = body.get("kseaf")
        if body["result"] != "AUTHENTICATION_SUCCESS" or kseaf is None or "supi" not in body:
            return AuthenticationReject(cause="AUSF confirmation failed")
        session.supi = body["supi"]

        # Derive K_AMF — in the eAMF P-AKA module when offloaded.
        if self.offload_module is not None:
            try:
                session.kamf = self._derive_kamf_offloaded(kseaf, session.supi)
            except JsonApiError as exc:
                return AuthenticationReject(cause=str(exc))
        else:
            self.runtime.compute(_KAMF_LOCAL_CYCLES)
            session.kamf = derive_kamf(kseaf, session.supi, _ABBA)
        k_enc, k_int = derive_nas_keys(session.kamf)
        session.k_nas_enc, session.k_nas_int = k_enc, k_int

        # Integrity-protected Security Mode Command.
        self.runtime.compute(_NAS_ENCODE_CYCLES)
        mac = nia2_mac(
            session.k_nas_int, session.downlink_count, 1, 1, b"SecurityModeCommand"
        )
        session.downlink_count += 1
        return SecurityModeCommand(mac=mac)

    def _on_authentication_failure(
        self, session: _UeSession, message: AuthenticationFailure
    ) -> NasMessage:
        if (
            message.cause == "SYNCH_FAILURE"
            and message.auts is not None
            and not session.resync_attempted
        ):
            # TS 33.102 §6.3.5: forward AUTS to the home network, which
            # verifies it (inside the eUDM enclave when offloaded), resets
            # the SQN and issues a fresh challenge.
            session.resync_attempted = True
            self.auth_resyncs += 1
            return self._authenticate(
                session,
                resync_info={
                    "rand": session.rand.hex(),
                    "auts": message.auts.hex(),
                },
            )
        return AuthenticationReject(cause=f"UE reported {message.cause}")

    def _on_smc_complete(
        self, session: _UeSession, message: SecurityModeComplete
    ) -> NasMessage:
        expected = nia2_mac(
            session.k_nas_int, session.uplink_count, 1, 0, b"SecurityModeComplete"
        )
        session.uplink_count += 1
        if message.mac != expected:
            return AuthenticationReject(cause="SMC Complete MAC invalid")
        self.runtime.compute(_GUTI_ALLOC_CYCLES)
        session.guti = self._allocate_guti()
        self._guti_to_supi[session.guti] = session.supi
        self.runtime.compute(_NAS_ENCODE_CYCLES)
        mac = nia2_mac(
            session.k_nas_int,
            session.downlink_count,
            1,
            1,
            b"RegistrationAccept" + session.guti.encode(),
        )
        session.downlink_count += 1
        return RegistrationAccept(guti=session.guti, mac=mac)

    def _on_registration_complete(
        self, session: _UeSession, message: RegistrationComplete
    ) -> NasMessage:
        expected = nia2_mac(
            session.k_nas_int, session.uplink_count, 1, 0, b"RegistrationComplete"
        )
        session.uplink_count += 1
        if message.mac != expected:
            return AuthenticationReject(cause="Registration Complete MAC invalid")
        cell = session.via or "direct"
        self.nas_accepted[cell] = self.nas_accepted.get(cell, 0) + 1
        # Post-registration NAS signalling travels ciphered over the
        # secure channel (128-NEA2 + 128-NIA2).
        session.secure_channel = SecureNasChannel(
            session.k_nas_enc, session.k_nas_int, bearer=2,
            send_direction=DOWNLINK,
        )
        # No downlink NAS response to Registration Complete; return an
        # acknowledgement marker for the N2 transport.
        return RegistrationAccept(guti=session.guti, mac=b"")

    def _on_pdu_session_request(
        self, session: _UeSession, pdu: ProtectedNasPdu
    ) -> NasMessage:
        """Unwrap a ciphered PDU session request, set the session up at
        the SMF, and cipher the answer — a refusal included, so an SMF
        outage costs the UE its session, not its registration."""
        self.runtime.compute(_NAS_DECODE_CYCLES)
        try:
            inner = session.secure_channel.unprotect(pdu)
        except NasSecurityError as error:
            return AuthenticationReject(cause=f"NAS security failure: {error}")
        if not isinstance(inner, PduSessionEstablishmentRequest):
            raise AmfError(f"unexpected ciphered NAS message {inner.kind}")
        try:
            body = self.call(self.peer(NFType.SMF), sbi.SMF_PDU_SESSION, {
                "supi": session.supi, "sessionId": inner.session_id, "dnn": inner.dnn,
            })
        except JsonApiError as exc:
            return session.secure_channel.protect(AuthenticationReject(cause=str(exc)))
        self.runtime.compute(_NAS_ENCODE_CYCLES)
        return session.secure_channel.protect(PduSessionEstablishmentAccept(
            session_id=inner.session_id,
            ue_address=body["ueAddress"],
            qos_flow=body["qosFlow"],
        ))

    def _on_deregistration(
        self, session: _UeSession, message: DeregistrationRequest
    ) -> NasMessage:
        """UE-initiated deregistration: verify the MAC; the edge then
        releases the context and retires the GUTI."""
        expected = nia2_mac(
            session.k_nas_int, session.uplink_count, 1, 0, b"DeregistrationRequest"
        )
        session.uplink_count += 1
        if message.mac != expected:
            return AuthenticationReject(cause="Deregistration MAC invalid")
        mac = nia2_mac(
            session.k_nas_int, session.downlink_count, 1, 1, b"DeregistrationAccept"
        )
        return DeregistrationAccept(mac=mac)

    # ------------------------------------------------------------- helpers

    def _release(self, session: _UeSession) -> None:
        """The ``RELEASED`` edge: forget the session and retire its GUTI,
        so a failed, evicted, replaced or deregistered session leaks
        neither.  A session that was shed or replaced is no longer the
        one held for its UE, and stays unheld."""
        self._guti_to_supi.pop(session.guti, None)
        if self._sessions.get(session.ue_id) is session:
            del self._sessions[session.ue_id]

    def _evict_pending(self, budget: int) -> None:
        """Drop oldest in-progress sessions until at most ``budget`` remain.

        Registered sessions are never evicted; in-progress ones go in
        insertion order (deterministic — dicts preserve it), which under
        a SUCI flood means the stalest unanswered challenge dies first.
        """
        pending = [s for s in self._sessions.values() if s.state != REGISTERED]
        for session in pending[: max(0, len(pending) - budget)]:
            self._release(session)
            self.pending_evictions += 1

    def _allocate_guti(self) -> str:
        # Stream keyed by NF name: two AMFs on one host draw from
        # independent streams.
        self._guti_counter += 1
        tmsi = self.host.rng.stream(f"{self.name}.guti").getrandbits(32)
        return f"5g-guti-00101-{self._guti_counter:04d}-{tmsi:08x}"

    def _derive_kamf_offloaded(self, kseaf: bytes, supi: str) -> bytes:
        fields = {"kseaf": kseaf, "supi": supi, "abba": _ABBA}
        return self.call(self.offload_module, sbi.EAMF_DERIVE_KAMF, fields)["kamf"]

    # ------------------------------------------------------------- metrics

    def collect_metrics(self, registry) -> None:
        super().collect_metrics(registry)
        # Detection signals are always exported: the classifier must see
        # arrival skew and signature rates whether or not any defense is
        # armed (detection precedes the decision to arm one).  Sorted
        # iteration keeps the export order — and the scraped Tsdb —
        # deterministic regardless of arrival order.
        for cell in sorted(self.nas_arrivals):
            registry.counter(
                "amf_nas_registration_arrivals_total", nf=self.name, gnb=cell
            ).set(self.nas_arrivals[cell])
        for cell in sorted(self.nas_accepted):
            registry.counter(
                "amf_nas_registration_accepted_total", nf=self.name, gnb=cell
            ).set(self.nas_accepted[cell])
        registry.counter("amf_auth_resync_requests_total", nf=self.name).set(
            self.auth_resyncs
        )
        registry.counter("amf_nas_protocol_errors_total", nf=self.name).set(
            self.nas_protocol_errors
        )
        # Attack-plane defenses export only when armed, so the metric
        # set (and every golden Tsdb series count) is unchanged for the
        # default deployment.
        if self.admission is not None:
            self.admission.collect_metrics(registry, nf=self.name)
        if self.max_pending_sessions is not None:
            registry.counter(
                "amf_pending_session_evictions_total", nf=self.name
            ).set(self.pending_evictions)
            registry.gauge("amf_sessions_pending", nf=self.name).set(
                float(self.pending_count())
            )

    # ----------------------------------------------------------- inspection

    def pending_count(self) -> int:
        """In-progress (non-registered) NAS sessions currently held."""
        return sum(1 for s in self._sessions.values() if s.state != REGISTERED)

    def session_count(self) -> int:
        return len(self._sessions)

    def session_state(self, ue_id: str) -> str:
        session = self._sessions.get(ue_id)
        return session.state if session else RELEASED

    def registered_count(self) -> int:
        return sum(1 for s in self._sessions.values() if s.state == REGISTERED)


#: The registration procedure of Fig 5, declared once: each uplink NAS
#: type's step.  The exchanges are those of a registration on an
#: offloaded deployment (monolithic AMFs and UDMs make fewer); the
#: AuthenticationFailure row's are a granted resync (SYNCH_FAILURE with
#: AUTS).  A ciphered reject of the PDU row is still a ProtectedNasPdu:
#: both its edges stay REGISTERED.
PROCEDURE: Dict[type, Step] = {
    RegistrationRequest: Step(
        Amf._on_registration_request, None,
        (("amf", sbi.AUSF_UE_AUTH), ("ausf", sbi.UDM_UE_AUTH_GET),
         ("udm", sbi.UDR_AUTH_SUBSCRIPTION), ("udm", sbi.EUDM_GENERATE_AV),
         ("ausf", sbi.EAUSF_DERIVE_SE_AV)),
        WAIT_AUTH_RESPONSE, RELEASED, "RegistrationRequest",
    ),
    AuthenticationFailure: Step(
        Amf._on_authentication_failure, WAIT_AUTH_RESPONSE,
        (("amf", sbi.AUSF_UE_AUTH), ("ausf", sbi.UDM_UE_AUTH_GET),
         ("udm", sbi.UDR_AUTH_PEEK), ("udm", sbi.EUDM_VERIFY_AUTS),
         ("udm", sbi.UDR_AUTH_RESYNC), ("udm", sbi.UDR_AUTH_SUBSCRIPTION),
         ("udm", sbi.EUDM_GENERATE_AV), ("ausf", sbi.EAUSF_DERIVE_SE_AV)),
        WAIT_AUTH_RESPONSE, RELEASED, "AuthenticationFailure",
    ),
    AuthenticationResponse: Step(
        Amf._on_authentication_response, WAIT_AUTH_RESPONSE,
        (("amf", sbi.AUSF_UE_AUTH_CONFIRM), ("amf", sbi.EAMF_DERIVE_KAMF)),
        WAIT_SMC_COMPLETE, RELEASED, "AuthenticationResponse",
    ),
    SecurityModeComplete: Step(
        Amf._on_smc_complete, WAIT_SMC_COMPLETE, (),
        WAIT_REG_COMPLETE, RELEASED, "SecurityModeComplete",
    ),
    RegistrationComplete: Step(
        Amf._on_registration_complete, WAIT_REG_COMPLETE, (),
        REGISTERED, RELEASED, "RegistrationComplete",
    ),
    ProtectedNasPdu: Step(
        Amf._on_pdu_session_request, REGISTERED,
        (("amf", sbi.SMF_PDU_SESSION), ("smf", sbi.UPF_N4_SESSION)),
        REGISTERED, REGISTERED, "PduSessionRequest",
    ),
    DeregistrationRequest: Step(
        Amf._on_deregistration, REGISTERED, (),
        RELEASED, REGISTERED, "DeregistrationRequest",
    ),
}
