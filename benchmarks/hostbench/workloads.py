"""The six workloads, as drivers over ``repro``'s public classes.

A driver builds its inputs from the seed in ``__init__`` (that is the
set-up the harness times), then runs batches of operations.  Everything
a driver reads back — clocks, ``SgxStats``, admission counters, reports —
is public state of the simulator; nothing under ``src/`` is patched.

Closed loop, one client: the simulator is a serial loop, so the next
operation is issued when the previous one returns.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from metrics import RUN_SECONDS
from repro.experiments.capacity import EVENT_LOG_CAPACITY
from repro.experiments.export import report_to_json
from repro.experiments.harness import MODULE_NAMES, warmed_testbed
from repro.experiments.shard import sharded_campaign
from repro.fivegc.admission import AdmissionConfig, AdmissionController
from repro.obs.detect import AdmissionGovernor, AttackClassifier
from repro.obs.scrape import Scraper
from repro.obs.slo import SloEngine, SojournSlo, default_slos
from repro.obs.trace import Tracer, TraceStore
from repro.paka.deploy import IsolationMode
from repro.security.attacks import AttackPlane, generate_storm

NS_PER_S = 1_000_000_000

#: Table III: ≈90 EENTERs per module per registration.
EENTER_BAND = (80.0, 95.0)
#: Committed E-CAP band: simulated ms per registration, stable regime.
ECAP_BAND_MS = (40.0, 70.0)


def digest_of(snapshot: Dict[str, Any]) -> str:
    """sha256 over a snapshot's canonical JSON: the simulated identity."""
    text = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _sgx_totals(testbed) -> Dict[str, Dict[str, int]]:
    """Per-module cumulative ``SgxStats`` (empty on non-SGX runtimes)."""
    totals: Dict[str, Dict[str, int]] = {}
    for name in MODULE_NAMES:
        stats = testbed.paka.modules[name].runtime.sgx_stats
        if stats is not None:
            totals[name] = {
                "eenters": stats.eenters,
                "eexits": stats.eexits,
                "aexs": stats.aexs,
                "ocalls": stats.ocalls,
                "bytes_copied": stats.bytes_copied_in + stats.bytes_copied_out,
            }
    return totals


def _testbed_counters(testbed) -> Dict[str, float]:
    """Cumulative public counters of one testbed."""
    sgx = _sgx_totals(testbed)
    core = (
        testbed.nrf, testbed.udr, *testbed.udms, *testbed.ausfs,
        *testbed.amfs, testbed.smf, testbed.upf,
    )
    servers = [nf.server for nf in core] + list(testbed.module_servers().values())
    return {
        "eenters": sum(m["eenters"] for m in sgx.values()),
        "aexs": sum(m["aexs"] for m in sgx.values()),
        "bytes_copied": sum(m["bytes_copied"] for m in sgx.values()),
        "ocalls": sum(m["ocalls"] for m in sgx.values()),
        "requests": sum(server.requests_served for server in servers),
        "sim_ns": testbed.host.clock.now_ns,
    }


def _band_problem(label: str, value: float, band: Tuple[float, float]) -> List[str]:
    if band[0] <= value <= band[1]:
        return []
    return [f"{label} {value:.3f} outside [{band[0]:g}, {band[1]:g}]"]


class AttachDriver:
    """Back-to-back fresh SUCI attaches on one warmed slice (the E-CAP loop).

    ``observed`` arms what the 1M-UE campaign arms — a trace-context
    tracer with a bounded tail-sampling store and a 1 s scraper — and the
    snapshot closes with an SLO evaluation over the scraped Tsdb.
    """

    def __init__(self, seed: int, isolation: IsolationMode, observed: bool = False) -> None:
        self.seed = seed
        self.isolation = isolation
        self.observed = observed
        self.testbed = warmed_testbed(
            isolation, seed=seed, event_log_capacity=EVENT_LOG_CAPACITY
        )
        self.scraper: Optional[Scraper] = None
        self.tracer: Optional[Tracer] = None
        if observed:
            self.tracer = Tracer(
                self.testbed.host.clock,
                trace_seed=seed,
                store=TraceStore(cap=512, sample_every=8),
            )
            self.testbed.host.tracer = self.tracer
            self.scraper = Scraper.for_testbed(
                self.testbed, cadence_s=1.0
            ).install(self.testbed.host)
        self.latencies_s: List[float] = []
        self.succeeded = 0
        self._base = _testbed_counters(self.testbed)
        self._base_eenters = {
            name: m["eenters"] for name, m in _sgx_totals(self.testbed).items()
        }

    def fresh(self) -> "AttachDriver":
        """A same-seed twin for the replay/traced pass."""
        return AttachDriver(self.seed, self.isolation, self.observed)

    def run_batch(self, index: int, ops: int) -> Tuple[int, int]:
        testbed = self.testbed
        latencies = self.latencies_s
        failed = 0
        for _ in range(ops):
            try:
                ue = testbed.add_subscriber()
                start = perf_counter()
                outcome = testbed.register(ue, establish_session=False)
                latencies.append(perf_counter() - start)
            except Exception:  # an op that raised is a failed op, not a crash
                failed += 1
                continue
            if outcome.success:
                self.succeeded += 1
            else:
                failed += 1
        return ops, failed

    def counters(self) -> Dict[str, float]:
        now = _testbed_counters(self.testbed)
        out = {key: now[key] - self._base[key] for key in now}
        if self.observed:
            out["scrapes"] = self.scraper.scrapes
            out["tsdb_series"] = len(self.scraper.tsdb)
            out["traces_kept"] = len(self.tracer.store)
        return out

    def snapshot(self) -> Dict[str, Any]:
        snap: Dict[str, Any] = {
            "clock_ns": self.testbed.host.clock.now_ns,
            "sgx": _sgx_totals(self.testbed),
            "succeeded": self.succeeded,
        }
        if self.observed:
            alerts = SloEngine(default_slos(self.testbed)).evaluate(self.scraper.tsdb)
            store = self.tracer.store
            snap["obs"] = {
                "alerts": len(alerts),
                "scrapes": self.scraper.scrapes,
                "traces_seen": store.seen,
                "trace_ids": store.trace_ids(),
            }
        return snap

    def checks(self, ops: int) -> List[str]:
        problems: List[str] = []
        if self.succeeded != ops:
            problems.append(f"{ops - self.succeeded} of {ops} attaches did not succeed")
        if self.isolation is IsolationMode.SGX:
            for name, stats in _sgx_totals(self.testbed).items():
                per_op = (stats["eenters"] - self._base_eenters[name]) / ops
                problems += _band_problem(f"{name} EENTERs/op", per_op, EENTER_BAND)
            sim_ms = self.counters()["sim_ns"] / ops / 1e6
            problems += _band_problem("sim ms/op", sim_ms, ECAP_BAND_MS)
        return problems


# ----------------------------------------------------------------- storm

#: The survivability campaign's "all" arm: bucket + per-gNB guard + breaker.
_DEFENDED = AdmissionConfig(
    per_source_rate_per_s=0.25, per_source_burst=2.0,
    bucket_rate_per_s=50.0, bucket_burst=50.0,
    gnb_rate_per_s=6.0, gnb_burst=6.0,
    breaker_max_per_s=30.0, breaker_window_s=1.0, breaker_cooldown_s=2.0,
)
_DEFENDED_MAX_PENDING = 512
_ATTACK_RATE_PER_S = 400.0
_LEGIT_GAP_NS = 400_000_000  # 2.5 legitimate arrivals per simulated second
_INITIAL_EVERY = 4  # 3 GUTI re-registrations : 1 fresh SUCI attach
_RETURNING_POOL = 24
_DEADLINE_NS = 250_000_000
_MIN_LEGIT_SUCCESS = 0.7
#: The governor needs ≈2 simulated seconds of scrapes to classify and arm;
#: legitimate arrivals before this point are reported but not judged.
_DETECTION_GRACE_NS = 4 * NS_PER_S


class _StormArm:
    """One testbed under a seeded storm plus a paced legitimate grid."""

    def __init__(self, seed: int, window_s: float, governed: bool) -> None:
        self.seed = seed
        self.window_ns = int(window_s * NS_PER_S)
        self.window_s = window_s
        testbed = self.testbed = warmed_testbed(
            IsolationMode.SGX, seed=seed, event_log_capacity=EVENT_LOG_CAPACITY
        )
        # Returning subscribers hold a 5G-GUTI before the storm starts.
        self.returning = [testbed.add_subscriber() for _ in range(_RETURNING_POOL)]
        for ue in self.returning:
            if not testbed.register(ue, establish_session=False).success:
                raise RuntimeError("returning-UE warm-up failed")
        self.plane = AttackPlane(testbed)
        self.scraper: Optional[Scraper] = None
        self.governor: Optional[AdmissionGovernor] = None
        if governed:
            self.scraper = Scraper.for_testbed(
                testbed, cadence_s=1.0, attack_plane=self.plane
            ).install(testbed.host)
            self.governor = AdmissionGovernor(
                testbed.amf,
                AttackClassifier(),
                slos=[s for s in default_slos(testbed) if isinstance(s, SojournSlo)],
            )
            self.scraper.subscribe(self.governor)
        else:
            testbed.amf.admission = AdmissionController(_DEFENDED)
            testbed.amf.max_pending_sessions = _DEFENDED_MAX_PENDING
        self.start_ns = testbed.host.clock.now_ns
        self.legit_index = 0
        self.legit_attempts = 0
        self.legit_ok = 0
        self.judged_attempts = 0
        self.judged_ok = 0
        self._base = _testbed_counters(testbed)

    def _window(self, index: int) -> List[Tuple[int, int, Any]]:
        """Window ``index``'s arrivals: the attacker's storm schedule merged
        with the paced legitimate grid (ties break legit-first)."""
        base_ns = index * self.window_ns
        storm = generate_storm(
            self.seed * 1_000_003 + index, self.window_s, _ATTACK_RATE_PER_S
        )
        timeline: List[Tuple[int, int, Any]] = [
            (base_ns + event.at_ns, 1, event) for event in storm
        ]
        while self.legit_index * _LEGIT_GAP_NS < base_ns + self.window_ns:
            slot = self.legit_index
            fresh = slot % _INITIAL_EVERY == _INITIAL_EVERY - 1
            ue = (
                self.testbed.add_subscriber()
                if fresh
                else self.returning[slot % _RETURNING_POOL]
            )
            timeline.append((slot * _LEGIT_GAP_NS, 0, (ue, fresh)))
            self.legit_index += 1
        timeline.sort(key=lambda entry: (entry[0], entry[1]))
        return timeline

    def run(self, index: int, latencies: List[float]) -> Tuple[int, int]:
        testbed = self.testbed
        clock = testbed.host.clock
        failed = 0
        timeline = self._window(index)
        for at_ns, is_attack, payload in timeline:
            target_ns = self.start_ns + at_ns
            remaining_ns = target_ns - clock.now_ns
            if remaining_ns > 0:
                testbed.idle(remaining_ns / NS_PER_S)
            try:
                if is_attack:
                    self.plane.execute(payload)
                    continue
                ue, fresh = payload
                self.legit_attempts += 1
                start = perf_counter()
                outcome = testbed.gnb.register(
                    ue, establish_session=False, initial=fresh, arrival_ns=target_ns
                )
                latencies.append(perf_counter() - start)
                ok = outcome.success and clock.now_ns - target_ns <= _DEADLINE_NS
                self.legit_ok += ok
                if at_ns >= _DETECTION_GRACE_NS:
                    self.judged_attempts += 1
                    self.judged_ok += ok
            except Exception:  # an op that raised is a failed op, not a crash
                failed += 1
        remaining_ns = self.start_ns + (index + 1) * self.window_ns - clock.now_ns
        if remaining_ns > 0:
            testbed.idle(remaining_ns / NS_PER_S)
        return len(timeline), failed

    def shed(self) -> int:
        return sum(o.get("shed", 0) for o in self.plane.outcomes.values())

    def counters(self) -> Dict[str, float]:
        now = _testbed_counters(self.testbed)
        out = {key: now[key] - self._base[key] for key in now}
        out["sim_ns"] = self.testbed.host.clock.now_ns - self.start_ns
        out["attack_events"] = self.plane.events_executed
        out["shed"] = self.shed()
        if self.scraper is not None:
            out["scrapes"] = self.scraper.scrapes
            out["tsdb_series"] = len(self.scraper.tsdb)
        return out

    def snapshot(self) -> Dict[str, Any]:
        admission = self.testbed.amf.admission
        return {
            "clock_ns": self.testbed.host.clock.now_ns,
            "sgx": _sgx_totals(self.testbed),
            "attack_outcomes": self.plane.summary(),
            "legit_attempts": self.legit_attempts,
            "legit_ok": self.legit_ok,
            "admitted": admission.admitted if admission is not None else None,
            "shed_total": admission.shed_total if admission is not None else None,
            "governor_armed": list(self.governor.armed) if self.governor else None,
        }


class StormDriver:
    """Defended signaling storm, two arms advanced side by side.

    Arm A runs the armed ``AdmissionController`` (bucket + guard +
    breaker); arm B starts disarmed under an ``AdmissionGovernor`` fed by
    a 1 s scraper.  Every batch advances A by 2 and B by 1 simulated
    seconds, so all batches have the same composition and their costs
    form one distribution.  An op is one timeline event: a storm arrival
    or a legitimate registration.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.arms = [
            _StormArm(seed, window_s=2.0, governed=False),
            _StormArm(seed, window_s=1.0, governed=True),
        ]
        self.latencies_s: List[float] = []

    def fresh(self) -> "StormDriver":
        return StormDriver(self.seed)

    def run_batch(self, index: int, ops: int) -> Tuple[int, int]:
        done = failed = 0
        for arm in self.arms:
            arm_done, arm_failed = arm.run(index, self.latencies_s)
            done += arm_done
            failed += arm_failed
        return done, failed

    def counters(self) -> Dict[str, float]:
        total: Dict[str, float] = {}
        for arm in self.arms:
            for key, value in arm.counters().items():
                total[key] = total.get(key, 0) + value
        return total

    def snapshot(self) -> Dict[str, Any]:
        return {"defended": self.arms[0].snapshot(), "governed": self.arms[1].snapshot()}

    def checks(self, ops: int) -> List[str]:
        problems: List[str] = []
        for label, arm in zip(("defended", "governed"), self.arms):
            if arm.judged_attempts:
                success = arm.judged_ok / arm.judged_attempts
                if success < _MIN_LEGIT_SUCCESS:
                    problems.append(
                        f"{label} arm legit success {success:.3f} < {_MIN_LEGIT_SUCCESS}"
                    )
            if arm.shed() == 0:
                problems.append(f"{label} arm shed no storm event")
        return problems


# --------------------------------------------------------------- sharded

_SHARDS = 4


class ShardedDriver:
    """``sharded_campaign`` over 4 shards; a batch is one whole campaign.

    ``jobs=2`` fans the shards over worker processes (the timed pass);
    the replay pass runs ``jobs=1`` inline, so the profiler sees the
    shard arms and the two reports can be compared byte for byte.
    """

    def __init__(self, seed: int, ues: int, jobs: int = 2) -> None:
        self.seed = seed
        self.ues = ues
        self.jobs = jobs
        self.latencies_s: List[float] = []
        self.report_json: Optional[str] = None
        self.result = None
        self.campaigns = 0
        self.diverged = 0
        self.wall_s: List[float] = []

    def fresh(self) -> "ShardedDriver":
        return ShardedDriver(self.seed, self.ues, jobs=1)

    def run_batch(self, index: int, ops: int) -> Tuple[int, int]:
        start = perf_counter()
        result = sharded_campaign(
            ues=self.ues, shards=_SHARDS, jobs=self.jobs, seed=self.seed
        )
        self.wall_s.append(perf_counter() - start)
        text = report_to_json(result.report)
        if self.report_json is None:
            self.report_json = text
        elif text != self.report_json:
            self.diverged += 1
        self.result = result
        self.campaigns += 1
        successes = sum(r["successes"] for r in result.shard_results)
        return self.ues, self.ues - successes

    def counters(self) -> Dict[str, float]:
        # The merged report carries simulated clocks and EENTERs only; the
        # other per-op counters stay at 0 on this workload.
        shards = self.result.shard_results
        return {
            "eenters": self.campaigns * sum(sum(r["eenters"].values()) for r in shards),
            "sim_ns": self.campaigns * sum(r["simulated_ns"] for r in shards),
        }

    def snapshot(self) -> Dict[str, Any]:
        return {
            "report_sha256": hashlib.sha256(self.report_json.encode()).hexdigest(),
            "shard_clocks_ns": [r["simulated_ns"] for r in self.result.shard_results],
        }

    def checks(self, ops: int) -> List[str]:
        problems = [
            f"report check failed: {check.format()}"
            for check in self.result.report.failed_checks()
        ]
        if self.diverged:
            problems.append(f"{self.diverged} campaign report(s) differ across repeats")
        return problems


# ----------------------------------------------------------------- table


@dataclass(frozen=True)
class Spec:
    """How the harness sizes and builds one workload.

    ``ops_per_s`` is the sizing rate on the 2-vCPU reference box; it only
    places the checkpoint (a fixed op count for a given ``--seconds``),
    it is never a pass/fail threshold.  ``min_batch_ops`` is set where a
    batch is one indivisible campaign: short runs shrink the campaign
    (down to that floor) instead of running fewer than two of them.
    ``settle_batches`` run before the traced window, unprofiled, where the
    first batches are unlike the rest of the run.
    """

    isolation: IsolationMode
    batch_ops: int
    ops_per_s: float
    build: Callable[[int, int], Any]  # (seed, batch_ops) -> driver
    min_batch_ops: Optional[int] = None
    settle_batches: int = 0

    def batch_ops_for(self, seconds: float) -> int:
        if self.min_batch_ops is None or seconds >= RUN_SECONDS:
            return self.batch_ops
        return max(self.min_batch_ops, round(self.batch_ops * seconds / RUN_SECONDS))


SPECS: Dict[str, Spec] = {
    "attach-sgx": Spec(
        IsolationMode.SGX, 25, 300.0,
        lambda seed, ops: AttachDriver(seed, IsolationMode.SGX),
    ),
    "attach-container": Spec(
        IsolationMode.CONTAINER, 25, 390.0,
        lambda seed, ops: AttachDriver(seed, IsolationMode.CONTAINER),
    ),
    "attach-sgx-pure": Spec(
        IsolationMode.SGX, 10, 75.0,
        lambda seed, ops: AttachDriver(seed, IsolationMode.SGX),
    ),
    "observed": Spec(
        IsolationMode.SGX, 15, 140.0,
        lambda seed, ops: AttachDriver(seed, IsolationMode.SGX, observed=True),
    ),
    # One batch = 2 + 1 simulated seconds of 400 events/s storm.  Until the
    # governor has armed, arm B serves every hostile registration in full
    # (753 calls per event against 290 afterwards): the traced window
    # starts once the detection grace is over, like the legit-success check.
    "storm-defended": Spec(
        IsolationMode.SGX, 1208, 5000.0,
        lambda seed, ops: StormDriver(seed),
        settle_batches=_DETECTION_GRACE_NS // NS_PER_S,
    ),
    # One batch = one campaign of ``batch_ops`` UEs.
    "sharded-4x2": Spec(
        IsolationMode.SGX, 240, 330.0,
        lambda seed, ops: ShardedDriver(seed, ues=ops),
        min_batch_ops=40,
    ),
}
