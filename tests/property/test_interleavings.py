"""Stateful interleaving search over one SGX testbed.

One NAS rule per ``amf.PROCEDURE`` row sends a UE's honest uplink of
that type, or a forged one, straight to the AMF, and the step must take
the edge its row declares.  The other rules are fresh, GUTI and SUCI
registrations, deregistration, storm events, fault windows, idle time
and a tracer armed or disarmed, under ``max_pending_sessions`` None or
2.  After every step :func:`repro.sim.invariants.check` judges the whole
testbed over that step.  The search is derandomized: a failure replays
on every machine, whatever ``PYTHONHASHSEED``.
"""

from dataclasses import replace

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, initialize, invariant, rule

from repro.faults.injector import FaultInjector
from repro.faults.plan import BASELINE_RATES, FaultPlan
from repro.fivegc.amf import MAX_NAS_ROUNDS, PROCEDURE, AmfError
from repro.fivegc.messages import (
    AuthenticationFailure, AuthenticationReject, AuthenticationResponse, DeregistrationRequest,
    RegistrationRequest,
)
from repro.fivegc.nas_security import ProtectedNasPdu
from repro.obs.trace import Tracer, TraceStore
from repro.paka.deploy import IsolationMode
from repro.ran.ue import UeError
from repro.security.attacks import AttackPlane, generate_storm
from repro.sim import invariants
from repro.testbed import Testbed, TestbedConfig
from tests.fivegc.test_amf import _FORGED

STORM = generate_storm(seed=7, horizon_s=40.0, rate_per_s=3.0)
# Every kind of fault window, as a ten-minute plan draws them.
FAULTS = FaultPlan.generate(seed=7, horizon_s=600.0, rates=BASELINE_RATES).windows
NS_PER_S = 1_000_000_000


class Interleavings(RuleBasedStateMachine):
    ues = Bundle("ues")

    def __init__(self):
        super().__init__()
        self.testbed = Testbed.build(TestbedConfig(isolation=IsolationMode.SGX, seed=46))
        self.since = invariants.baseline(self.testbed)
        self.plane = None
        self.answers = {}  # UE name -> its honest answer to its last downlink

    @initialize(cap=st.sampled_from([None, 2]))
    def cap_pending_sessions(self, cap):
        self.testbed.amf.max_pending_sessions = cap

    @invariant()
    def kernel_holds(self):  # each step is a window, judging every SQN
        invariants.enforce(self.testbed, self.since)
        self.since = invariants.baseline(self.testbed)

    # ----------------------------------------------------- registrations

    @rule(target=ues, session=st.booleans(), desync=st.booleans())
    def fresh_register(self, session, desync):
        ue = self.testbed.add_subscriber()
        if desync:  # the USIM is ahead of the UDR: the first challenge resyncs
            ue.usim.sqn_ms = 1 << 35
        self.testbed.register(ue, establish_session=session)
        return ue

    @rule(ue=ues)
    def guti_reregister(self, ue):
        """By GUTI when the UE holds one, by SUCI otherwise."""
        self.testbed.gnb.register(ue, establish_session=False, initial=ue.guti is None)

    @rule(ue=ues)
    def suci_reregister(self, ue):
        self.testbed.register(ue, establish_session=False)

    @rule(ue=ues)
    def deregister(self, ue):
        if ue.registered:
            self._send(ue, ue.build_deregistration_request())

    # ------------------------------------------------- one NAS step each

    def _send(self, ue, uplink, honest=True):
        """One uplink straight to the AMF, judged as a step; the UE takes
        the answer to an uplink it sent itself."""
        amf = self.testbed.amf
        session = amf._sessions.get(ue.name)
        state, ctx_id = amf.session_state(ue.name), session.auth_ctx_id if session else ""
        try:
            downlink = amf.handle_nas(ue.name, uplink)
        except AmfError:
            downlink = None
        self._judge(ue.name, type(uplink), state, ctx_id, downlink)
        if honest:
            try:
                self.answers[ue.name] = None if downlink is None else ue.handle_nas(downlink)
            except UeError:  # a downlink the UE's own state cannot take
                self.answers[ue.name] = None

    def _judge(self, ue_id, kind, state, ctx_id, downlink):
        """A refused uplink, one its row does not allow from ``state`` and
        one the admission controller shed move nothing; any other takes
        its row's reject edge on an AuthenticationReject and its success
        edge otherwise.  An AuthenticationResponse's success edge is the
        AUSF's confirmation: the context it consumed is gone, so it never
        releases a second K_SEAF."""
        step = PROCEDURE[kind]
        rejected = isinstance(downlink, AuthenticationReject)
        edge = step.reject if rejected else step.success
        if downlink is None or step.requires not in (None, state) or (
            rejected and downlink.cause.startswith("congestion:")
        ):
            edge = state
        after = self.testbed.amf.session_state(ue_id)
        violations = [] if after == edge else [
            f"amf: {ue_id} {kind.__name__} took {state} -> {after}, PROCEDURE says {edge}"
        ]
        if kind is AuthenticationResponse and after == step.success and (
            ctx_id in self.testbed.ausf._contexts
        ):
            violations.append(f"ausf: {ctx_id} released K_SEAF and is still held")
        if violations:
            raise invariants.InvariantViolation("; ".join(violations))

    def _drive(self, ue, state):
        """Answer the AMF honestly, from a fresh SUCI registration if the
        UE has nothing to answer, until its session is in ``state`` or
        the UE has nothing more to say."""
        if self.answers.get(ue.name) is None:
            self._send(ue, ue.build_registration_request())
        for _ in range(MAX_NAS_ROUNDS):
            answer = self.answers.get(ue.name)
            if answer is None or self.testbed.amf.session_state(ue.name) == state:
                return
            self._send(ue, self.answers.pop(ue.name))

    def _honest(self, ue, kind):
        """The UE's own uplink of ``kind`` from its session's state now;
        ``None`` if it has none there."""
        if isinstance(self.answers.get(ue.name), kind):
            return self.answers.pop(ue.name)
        if kind is RegistrationRequest:
            return ue.build_registration_request()
        if ue.registered and kind is ProtectedNasPdu:
            return ue.build_pdu_session_request()
        if ue.registered and kind is DeregistrationRequest:
            return ue.build_deregistration_request()
        return None

    def nas_step(self, ue, kind, how):
        """``honest`` and ``forged`` first bring the UE's session to the
        state the row requires, the UE answering honestly; a ``stray``
        forgery goes from wherever it is."""
        requires = PROCEDURE[kind].requires
        if how != "stray" and requires is not None:
            if kind is AuthenticationFailure and how == "honest":
                # A USIM ahead of the network answers the next challenge
                # with SYNCH_FAILURE and an AUTS.
                ue.usim.sqn_ms = (ue.usim.sqn_ms + (1 << 35)) % (1 << 48)
                self.answers.pop(ue.name, None)
            self._drive(ue, requires)
        uplink = self._honest(ue, kind) if how == "honest" else None
        if uplink is None:
            self._send(ue, _FORGED[kind], honest=False)
        else:
            self._send(ue, uplink)

    # ------------------------------------------------- the rest of a run

    @rule(index=st.integers(0, len(STORM) - 1))
    def storm_event(self, index):
        if self.plane is None:
            self.plane = AttackPlane(self.testbed)
        self.plane.execute(STORM[index])

    @rule(index=st.integers(0, len(FAULTS) - 1))
    def fault_window(self, index):
        """A fresh registration inside one fault window, then idle to
        its end."""
        window = FAULTS[index]
        window = replace(window, start_ns=0, end_ns=window.end_ns - window.start_ns)
        seconds = window.end_ns / NS_PER_S
        injector = FaultInjector(self.testbed, FaultPlan(0, seconds, (window,))).arm()
        try:
            self.testbed.register(self.testbed.add_subscriber(), establish_session=False)
            injector.tick()
            self.testbed.idle(seconds)
            injector.tick()
        finally:
            injector.disarm()

    @rule(seconds=st.sampled_from([1, 10, 31]))
    def idle(self, seconds):
        self.testbed.idle(seconds)

    @rule()
    def toggle_tracer(self):
        host = self.testbed.host
        host.tracer = (
            Tracer(host.clock, trace_seed=46, store=TraceStore(sample_every=2))
            if host.tracer is None else None
        )


def _nas_rule(kind):
    def send(self, ue, how):
        self.nas_step(ue, kind, how)

    send.__name__ = send.__qualname__ = f"nas_{kind.__name__}"
    return rule(ue=Interleavings.ues, how=st.sampled_from(["honest", "forged", "stray"]))(send)


for _kind in PROCEDURE:
    setattr(Interleavings, f"nas_{_kind.__name__}", _nas_rule(_kind))

TestInterleavings = Interleavings.TestCase
TestInterleavings.settings = settings(
    derandomize=True, database=None, max_examples=60, stateful_step_count=30,
    deadline=None,
)
