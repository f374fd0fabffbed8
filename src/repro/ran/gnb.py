"""gNB: relays NAS between UE and AMF, with an air-interface model.

The gNB is a *trusted* entity in the paper's threat model.  Its job here
is to run the registration loop: carry each NAS message over the radio
link (scheduling + HARQ + processing latency) and hand it to the AMF over
N2.  The end-to-end session-setup time of Table II's discussion —
≈62 ms, of which SGX contributes ≈5 % — emerges from this model plus the
core's processing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.fivegc.amf import MAX_NAS_ROUNDS, PROCEDURE, Amf
from repro.fivegc.messages import (
    AuthenticationReject,
    NasMessage,
    RegistrationOutcome,
)
from repro.hw.host import PhysicalHost
from repro.ran.ue import CommercialUE, UserEquipment
from repro.sim.clock import NS_PER_MS
from repro.sim.metrics import BoundedSeries


@dataclass(frozen=True)
class AirLinkModel:
    """Per-message radio latency (scheduling grant + transmission + HARQ)."""

    base_ms: float = 4.35
    per_kb_ms: float = 0.35
    rrc_setup_ms: float = 13.0  # RRC connection establishment, once per UE

    def message_ms(self, nbytes: int) -> float:
        return self.base_ms + self.per_kb_ms * (nbytes / 1024.0)


class Gnb:
    """A gNB serving one tracking area, attached to one AMF."""

    _N2_LATENCY_US = 140.0  # gNB ↔ AMF transport (same site)

    def __init__(
        self,
        name: str,
        host: PhysicalHost,
        amf: Amf,
        plmn: str = "00101",
        airlink: Optional[AirLinkModel] = None,
    ) -> None:
        self.name = name
        self.host = host
        self.amf = amf
        self.plmn = plmn
        self.airlink = airlink or AirLinkModel()
        # Jitter stream names, built once: each is drawn per NAS message.
        self._air_stream = f"gnb.{name}.air"
        self._n2_stream = f"gnb.{name}.n2"
        self._rrc_stream = f"gnb.{name}.rrc"
        self.registrations_attempted = 0
        self.registrations_succeeded = 0
        # Registration sojourn (simulated ms) per attempt: outcome time
        # minus the attempt's *arrival* — the scheduled slot when the
        # caller paces arrivals on a grid, the call instant otherwise.
        # Queueing delay and admission-shed fast rejects are both
        # included, so the scraped histogram carries exactly the deadline
        # accounting the survivability campaign reports (ROADMAP item 4:
        # a pure-queueing collapse must be visible to the SLO engine).
        self.sojourn_ms = BoundedSeries()
        # Per-bucket sojourn exemplars: le label -> (value_ms, trace_id,
        # observed_at_ns).  Populated only while a trace-context-armed
        # tracer is installed; the collector attaches this dict to the
        # sojourn histogram so the exporter can emit OpenMetrics
        # exemplars and the Tsdb can link alerts to trace ids.
        self.sojourn_exemplars: Dict[str, Tuple[float, str, int]] = {}

    # --------------------------------------------------------------- radio

    def _air(self, message: NasMessage) -> None:
        latency = self.host.rng.jitter(
            self._air_stream, self.airlink.message_ms(message.approx_bytes()), 0.08
        )
        self.host.clock.advance_ms(latency)

    def _n2(self) -> None:
        self.host.clock.advance_us(
            self.host.rng.jitter(self._n2_stream, self._N2_LATENCY_US, 0.05)
        )

    # -------------------------------------------------------- registration

    def register(
        self,
        ue: UserEquipment,
        establish_session: bool = True,
        initial: bool = True,
        arrival_ns: Optional[int] = None,
    ) -> RegistrationOutcome:
        """Run the full registration (and optional PDU session) for ``ue``.

        ``initial=False`` re-registers with the UE's held 5G-GUTI (the
        SUCI/SIDF round is skipped; authentication still runs afresh).
        ``arrival_ns`` is the attempt's scheduled arrival on the
        simulated clock: callers that pace arrivals on a grid pass the
        slot time so the recorded sojourn includes queueing delay behind
        earlier work; by default the sojourn is pure service time.
        Returns the outcome including the end-to-end session setup time in
        simulated milliseconds.
        """
        self.registrations_attempted += 1
        if arrival_ns is None:
            arrival_ns = self.host.clock.now_ns
        if isinstance(ue, CommercialUE) and not ue.can_detect_plmn(self.plmn):
            self.sojourn_ms.append((self.host.clock.now_ns - arrival_ns) / 1e6)
            return RegistrationOutcome(
                success=False,
                failure_cause=f"UE cannot detect PLMN {self.plmn} "
                f"(custom MCC/MNC are not detected by COTS devices)",
            )
        if isinstance(ue, CommercialUE) and not ue.os_compatible:
            self.sojourn_ms.append((self.host.clock.now_ns - arrival_ns) / 1e6)
            return RegistrationOutcome(
                success=False,
                failure_cause=f"{ue.profile.model} OS {ue.os_version} cannot "
                f"complete an end-to-end connection (requires "
                f"{ue.profile.required_os_version})",
            )

        supi = str(ue.usim.supi)
        amf = self.amf
        host = self.host
        clock = host.clock
        exchanges = 0
        # The registration root span and session_setup_ms bracket the
        # same window; each NAS round gets a child span.
        with host.trace(
            "registration", "registration", supi, ue=ue.name,
            closing_tags=lambda: {
                "success": ue.registered, "nas_exchanges": exchanges,
            },
        ) as trace:
            setup_start_ns = clock.now_ns
            clock.advance_ms(
                host.rng.jitter(self._rrc_stream, self.airlink.rrc_setup_ms, 0.06)
            )
            uplink: Optional[NasMessage] = (
                ue.build_registration_request()
                if initial
                else ue.build_guti_registration_request()
            )
            while uplink is not None and exchanges < MAX_NAS_ROUNDS:
                with host.span(
                    PROCEDURE[type(uplink)].label, kind="nas", round=exchanges + 1
                ):
                    self._air(uplink)
                    self._n2()
                    downlink = amf.handle_nas(ue.name, uplink, via=self.name)
                    exchanges += 1
                    self._n2()
                    self._air(downlink)
                if isinstance(downlink, AuthenticationReject):
                    ue.failure_cause = downlink.cause
                    break
                uplink = ue.handle_nas(downlink)

            if ue.registered and establish_session:
                # The PDU session exchange travels ciphered (128-NEA2)
                # over the freshly established NAS security context.
                pdu_request = ue.build_pdu_session_request()
                with host.span(PROCEDURE[type(pdu_request)].label, kind="nas"):
                    self._air(pdu_request)
                    self._n2()
                    accept = amf.handle_nas(ue.name, pdu_request, via=self.name)
                    exchanges += 1
                    self._n2()
                    self._air(accept)
                    ue.handle_nas(accept)

        if ue.registered:
            self.registrations_succeeded += 1
        end_ns = clock.now_ns
        sojourn_ns = end_ns - arrival_ns
        self.sojourn_ms.append(sojourn_ns / 1e6)
        trace.record(ue.registered, sojourn_ns, self.sojourn_exemplars)
        # Registration boundary: the window and every span are closed,
        # so a due scrape cannot perturb clocks or traces.
        host.tick()
        return RegistrationOutcome(
            success=ue.registered,
            supi=supi if ue.registered else None,
            guti=ue.guti,
            failure_cause=ue.failure_cause,
            session_setup_ms=(end_ns - setup_start_ns) / NS_PER_MS,
            nas_exchanges=exchanges,
        )
