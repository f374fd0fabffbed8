"""The Gramine library OS: runs the workload inside the enclave.

Execution model (matching real Gramine, and the paper's Table III
analysis):

* one ECALL enters the enclave for the process, plus one per additional
  thread — EENTERs therefore slightly exceed EEXITs over a run,
* every syscall the application makes is serviced by shielding code and
  forwarded to the host as an OCALL (EEXIT + host syscall + EENTER),
* three helper threads service IPC, timer/async events and pipe-TLS
  handshakes, so a single-threaded server needs ``sgx.max_threads >= 4``
  to run consistently,
* the optional *exitless* mode hands syscalls to an untrusted helper via
  shared memory, avoiding transitions at the cost of a busy helper (the
  paper notes it is not production-ready; we model it for the ablation
  bench).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.gramine.manifest import GramineManifest
from repro.hw.host import PhysicalHost
from repro.runtime.base import Runtime, syscall_host_cycles
from repro.sgx.costmodel import SGX_COSTS
from repro.sgx.enclave import EcallContext, Enclave
from repro.sgx.stats import SgxStats

HELPER_THREADS = 3  # IPC, timer/async events, pipe-TLS handshake

# Shielding code validates externally supplied data before use.
_SHIELD_FIXED_CYCLES = 850
_SHIELD_PER_BYTE_CYCLES = 1.15

# Exitless mode: shared-memory RPC to an untrusted helper thread.
_EXITLESS_RPC_CYCLES = 3_600

# EPC sizing effects (Fig 8).  Oversized enclaves pay pager/integrity-tree
# pressure per syscall (more resident pages to version and scan): a small
# mean with heavy jitter, which is what widens the 8 GB interquartile
# range.  Undersized enclaves (below the Gramine+glibc+app working set)
# thrash: page-in/page-out pairs on a fraction of syscalls.
_BASELINE_RESIDENT_PAGES = 131_072  # 512 MB — the paper's chosen size
_PRESSURE_CYCLES_PER_LOG2 = 700.0
_WORKING_SET_PAGES = 100_000  # ≈390 MB: Gramine + glibc + app + buffers
_THRASH_PROBABILITY = 0.35


class GramineError(Exception):
    """LibOS start-up or runtime failure."""


# Gramine + glibc initialization issues several hundred OCALLs: the
# manifest, ld.so and libraries are opened, mapped and read through the
# untrusted host (paper §V-B1).
_INIT_OCALLS: Tuple[Tuple[str, int, int], ...] = (
    ("openat", 0, 0),
    *(("read", 0, 65536),) * 4,                    # manifest + config reads
    *(("openat", 0, 0), ("fstat", 0, 0), ("mmap", 0, 0),
      ("mmap", 0, 0), ("read", 0, 131072), ("close", 0, 0)) * 74,
    # ~37 libs -> ~444 OCALLs
    *(("brk", 0, 0),) * 10,
    *(("getrandom", 0, 32),) * 4,
    *(("clock_gettime", 0, 0),) * 8,
)

# The first request after deployment triggers lazy initialization:
# name-service lookups, crypto drivers, network-stack state.  A modest
# burst of OCALLs rotating open/read/mmap/read pulls in several MB of
# file-backed library pages (not covered by preheat, which only
# pre-faults the heap); ``lazy_warmup`` then faults them into the EPC.
_WARMUP_OCALLS = 40
_WARMUP_READ_BYTES = 6_000_000
_WARMUP_SPECS: Tuple[Tuple[str, int, int], ...] = tuple(
    (name, 0, _WARMUP_READ_BYTES // (_WARMUP_OCALLS // 2) if name == "read" else 0)
    for name in ("openat", "read", "mmap", "read") * (_WARMUP_OCALLS // 4)
)


class _SpecCost(NamedTuple):
    """Everything deterministic about one syscall spec, derived once.

    The pre-rounded charge of both flavours, the ``sgx.ocall`` event
    detail and the matching span template ``(name, fixed_ns, tags)`` —
    the leaf's name, the deterministic part of its duration and its tags
    short of the per-call ``transition_ns`` — built from the same
    roundings, so traced components always sum to the charged
    deterministic ns.
    """

    ocall_cycles: int
    ocall_ns: int
    exitless_cycles: int
    exitless_ns: int
    detail: Dict[str, Any]
    ocall_span: Tuple[str, int, Dict[str, Any]]
    exitless_span: Tuple[str, int, Dict[str, Any]]


# Per-spec costs and compiled profiles are pure functions of a runtime's
# cost inputs: the CPU frequency (over the one SGX cost model), and the
# runtime and enclave names that span tags and event details carry.  Runtimes
# whose inputs are equal share one _CostTables, so every testbed after
# the first in a process (a shard's, a re-deployed module's) compiles
# nothing.  Each memo is cleared when it reaches its bound; a runtime
# keeps the tables it was built with.
_COST_TABLES_MAX = 32  # distinct (frequency, runtime, enclave) keys
_SPEC_COSTS_MAX = 512  # per-spec records per key
_PROFILES_MAX = 64  # compiled profiles per key


class _CostTables:
    """The shared per-spec costs and compiled profiles of one key."""

    __slots__ = ("spec_costs", "profiles")

    def __init__(self) -> None:
        self.spec_costs: Dict[Tuple[str, int, int], _SpecCost] = {}
        self.profiles: Dict[Tuple[Tuple[str, int, int], ...], _CompiledProfile] = {}


_COST_TABLES: Dict[Tuple[Any, ...], _CostTables] = {}


class _CompiledProfile:
    """A syscall profile precompiled by ``compile_syscalls``.

    Holds the original specs (for the per-call fallback paths) plus every
    loop-invariant the fused replay needs: per-spec rounded OCALL cost
    components, the matching shared event-detail dicts, aggregate
    exitless charges, byte totals, per-name stat increments and the
    per-spec span templates of both flavours.
    """

    __slots__ = (
        "specs",
        "per_spec",
        "details",
        "name_counts",
        "count",
        "exitless_cycles",
        "exitless_ns",
        "bytes_out_total",
        "bytes_in_total",
        "ocall_spans",
        "exitless_spans",
    )

    def __init__(
        self,
        specs: Tuple[Tuple[str, int, int], ...],
        per_spec: List[Tuple[int, int]],
        details: List[Dict[str, Any]],
        name_counts: Tuple[Tuple[str, int], ...],
        exitless_cycles: int,
        exitless_ns: int,
        bytes_out_total: int,
        bytes_in_total: int,
        ocall_spans: List[Tuple[str, int, Dict[str, Any]]],
        exitless_spans: List[Tuple[str, int, Dict[str, Any]]],
    ) -> None:
        self.specs = specs
        self.per_spec = per_spec
        self.details = details
        self.name_counts = name_counts
        self.count = len(specs)
        self.exitless_cycles = exitless_cycles
        self.exitless_ns = exitless_ns
        self.bytes_out_total = bytes_out_total
        self.bytes_in_total = bytes_in_total
        self.ocall_spans = ocall_spans
        self.exitless_spans = exitless_spans


class GramineEnclaveRuntime(Runtime):
    """The :class:`~repro.runtime.base.Runtime` view of a Gramine enclave."""

    def __init__(
        self,
        name: str,
        host: PhysicalHost,
        enclave: Enclave,
        manifest: GramineManifest,
        exitless: bool = False,
    ) -> None:
        super().__init__(name, host)
        self.enclave = enclave
        self.manifest = manifest
        self.exitless = exitless
        self.started = False
        self._contexts: List[EcallContext] = []
        self._warmed_up = False
        # Fused-accounting caches: per-spec deterministic costs, pre-rounded
        # to (cycles_spent, clock_ns) pairs exactly as the unfused
        # spend_cycles sequence would round them (see Cpu.round_cycle_cost),
        # and the profiles compiled from them, shared process-wide by key;
        # plus the hot RNG stream resolved once instead of per syscall.
        key = (host.cpu.spec.frequency_hz, name, enclave.build.name)
        tables = _COST_TABLES.get(key)
        if tables is None:
            if len(_COST_TABLES) >= _COST_TABLES_MAX:
                _COST_TABLES.clear()
            tables = _COST_TABLES[key] = _CostTables()
        self._spec_costs = tables.spec_costs
        self._profiles = tables.profiles
        self._transition_stream = host.rng.stream(f"{enclave.build.name}.transition")
        # ns of every cycle count a drawn (EENTER, EEXIT) pair can split
        # into, as Cpu.round_cycle_cost rounds it: one lookup per
        # conversion in the replay loop, shared by all enclaves.
        self._transition_ns = host.cpu.cycle_ns_table(
            *SGX_COSTS.transition_cycle_bounds
        )

    # ----------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Boot the LibOS: enter the enclave and run Gramine+glibc init."""
        if self.started:
            raise GramineError(f"libOS for {self.name!r} already started")
        required = HELPER_THREADS + 1
        if self.manifest.max_threads < required:
            raise GramineError(
                f"{self.name}: sgx.max_threads={self.manifest.max_threads} but "
                f"Gramine needs {HELPER_THREADS} helper threads plus the "
                f"application thread; the paper observed inconsistent "
                f"behaviour below {required} threads"
            )
        if self.enclave.build.max_threads < self.manifest.max_threads:
            raise GramineError(
                f"{self.name}: enclave TCS count {self.enclave.build.max_threads} "
                f"below manifest sgx.max_threads {self.manifest.max_threads}"
            )
        # One persistent ECALL for the process, one per helper thread.
        self._contexts.append(self.enclave.begin_persistent_ecall("process"))
        for i in range(HELPER_THREADS):
            self._contexts.append(
                self.enclave.begin_persistent_ecall(f"helper-{i}")
            )
        self.started = True
        self.syscall_batch(_INIT_OCALLS)

    def shutdown(self) -> None:
        for context in self._contexts:
            self.enclave.end_persistent_ecall(context)
        self._contexts.clear()
        self.started = False
        self.enclave.destroy()

    # ------------------------------------------------------------- queries

    @property
    def shielded(self) -> bool:
        return True

    @property
    def sgx_stats(self) -> Optional[SgxStats]:
        return self.enclave.stats

    @property
    def _app_context(self) -> EcallContext:
        if not self.started or not self._contexts:
            raise GramineError(f"libOS for {self.name!r} is not running")
        return self._contexts[0]

    # ------------------------------------------------------------ execution

    def compute(self, cycles: float) -> None:
        # ``started`` implies the process context exists (start and
        # shutdown move them together); otherwise the property raises.
        context = self._contexts[0] if self.started else self._app_context
        context.compute(cycles)

    @property
    def degraded(self) -> bool:
        """True when the enclave is smaller than the working set — the
        paper's "inconsistent behaviour" regime below 512 MB."""
        return self._pressure_regimes()[1]

    # When the host's physical EPC is (nearly) fully committed across all
    # enclaves, neighbours keep evicting each other's hot pages: a
    # fraction of syscalls pays a reload pair even in steady state.
    _GLOBAL_CONTENTION_THRESHOLD = 0.98
    _GLOBAL_CONTENTION_THRASH_P = 0.22

    def _pressure_regimes(self) -> Tuple[bool, bool, bool]:
        """``(contended, degraded, oversized)``: which of the Fig 8 pager
        regimes :meth:`_epc_pressure` is in.  All false is the *inert*
        state — it draws nothing and charges nothing — and the only one
        in which :meth:`syscall_profile` may fuse a replay."""
        region = self.enclave.epc_region
        manager = self.enclave.epc_manager
        return (
            manager.resident_pages
            >= self._GLOBAL_CONTENTION_THRESHOLD * manager.capacity_pages,
            region.total_pages < _WORKING_SET_PAGES,
            region.resident_pages > _BASELINE_RESIDENT_PAGES,
        )

    def _epc_pressure(self) -> None:
        """Per-syscall pager cost scaled by how the enclave is sized."""
        contended, degraded, oversized = self._pressure_regimes()
        if contended:
            stream = self.host.rng.stream(f"{self.name}.contention")
            if stream.random() < self._GLOBAL_CONTENTION_THRASH_P:
                self._charge_reload_pair()
        if degraded:
            # Thrash: some syscalls force an evict + reload pair.
            stream = self.host.rng.stream(f"{self.name}.thrash")
            if stream.random() < _THRASH_PROBABILITY:
                self._charge_reload_pair()
        elif oversized:
            excess = math.log2(
                self.enclave.epc_region.resident_pages / _BASELINE_RESIDENT_PAGES
            )
            mean = _PRESSURE_CYCLES_PER_LOG2 * excess
            self.host.cpu.spend_cycles(
                self.host.rng.jitter(f"{self.name}.pressure", mean, 0.80)
            )
            # Occasional background EWB/ELDU activity interferes with the
            # request — rare but large, which is what fattens the upper
            # quartile of the 8 GB boxes in Fig 8.
            stream = self.host.rng.stream(f"{self.name}.pressure-spike")
            if stream.random() < 0.011 * excess:
                model = SGX_COSTS
                self.host.cpu.spend_cycles(
                    model.page_evict_cycles + model.page_fault_cycles
                )

    def _charge_reload_pair(self) -> None:
        model = SGX_COSTS
        self.host.cpu.spend_cycles(model.page_evict_cycles + model.page_fault_cycles)
        self.enclave.stats.page_evictions += 1
        self.enclave.stats.page_faults += 1

    def _spec_cost(self, spec: Tuple[str, int, int]) -> _SpecCost:
        """The deterministic cost of one syscall spec, pre-rounded.

        The charges are the sums of the per-component ``(cycles_spent,
        clock_ns)`` conversions the unfused path applies (shielding
        compute, boundary copies and host work for the OCALL flavour;
        shielding compute and the shared-memory RPC + host work for
        exitless), excluding the per-call random transition pair and
        EPC-pressure draws.
        """
        name, bytes_out, bytes_in = spec
        nbytes = bytes_out + bytes_in
        model = SGX_COSTS
        round_cost = self.host.cpu.round_cycle_cost
        shield = round_cost(
            (_SHIELD_FIXED_CYCLES + _SHIELD_PER_BYTE_CYCLES * nbytes)
            * model.epc_compute_penalty
        )
        host_cycles = syscall_host_cycles(name, nbytes)
        copy_out = round_cost(bytes_out * model.boundary_copy_cycles_per_byte)
        host = round_cost(host_cycles)
        copy_in = round_cost(bytes_in * model.boundary_copy_cycles_per_byte)
        # Exitless spends RPC + host work as one spend_cycles call, so the
        # pair is rounded over the sum, not per component.
        exitless = round_cost(_EXITLESS_RPC_CYCLES + host_cycles)
        ocall_ns = shield[1] + copy_out[1] + host[1] + copy_in[1]
        exitless_ns = shield[1] + exitless[1]
        enclave_name = self.enclave.build.name
        identity = {"runtime": self.name, "enclave": enclave_name}
        spec_costs = self._spec_costs
        if len(spec_costs) >= _SPEC_COSTS_MAX:
            spec_costs.clear()
        cost = spec_costs[spec] = _SpecCost(
            shield[0] + copy_out[0] + host[0] + copy_in[0],
            ocall_ns,
            shield[0] + exitless[0],
            exitless_ns,
            # Every sgx.ocall event of this spec carries this one frozen
            # dict (EventLog.emit_shared / emit_burst keep references).
            {"enclave": enclave_name, "syscall": name},
            (name, ocall_ns, {
                **identity, "shield_ns": shield[1],
                "copy_ns": copy_out[1] + copy_in[1], "host_ns": host[1],
            }),
            (name, exitless_ns, {
                **identity, "exitless": True,
                "shield_ns": shield[1], "host_ns": exitless[1],
            }),
        )
        return cost

    def syscall(self, name: str, bytes_out: int = 0, bytes_in: int = 0) -> None:
        """One simulated syscall: shielding + EPC pressure + OCALL.

        This is the fused fast path of the unfused chain
        ``context.compute`` → ``_epc_pressure`` → ``context.ocall``: the
        five-plus ``spend_cycles`` calls collapse into one pre-rounded
        clock/cycle update, with every RNG draw, stat increment and event
        emission preserved in order so runs stay bit-identical.
        """
        context = self._app_context
        context._check_open()
        spec = (name, bytes_out, bytes_in)
        cost = self._spec_costs.get(spec)
        if cost is None:
            cost = self._spec_cost(spec)
        # One ``sgx.ocall`` span per call, tagged with the paper's cost
        # taxonomy: the template carries everything but the drawn
        # transition pair.  Steady-state replays never come through here
        # (``syscall_profile`` hands the tracer one burst instead).
        host = self.host
        span = None
        if host.tracing:
            tracer = host.tracer
            template = cost.exitless_span if self.exitless else cost.ocall_span
            span = tracer.begin(name, kind="sgx.ocall", **template[2])
        self._epc_pressure()
        enclave = self.enclave
        stats = enclave.stats
        cpu = host.cpu
        if self.exitless:
            # No transition: the helper performs the syscall; the enclave
            # thread spins on shared memory.  Stats record the OCALL
            # logically but no EENTER/EEXIT occurs.
            cpu.spend_preconverted(cost.exitless_cycles, cost.exitless_ns)
            stats.ocalls += 1
            by_syscall = stats.ocalls_by_syscall
            by_syscall[name] = by_syscall.get(name, 0) + 1
            if span is not None:
                tracer.end(span)
        else:
            # EEXIT + boundary copy-out + host work + EENTER + copy-in,
            # with the (EENTER, EEXIT) pair drawn per call as always.
            eenter, eexit = SGX_COSTS.draw_transition_pair_from(
                self._transition_stream
            )
            round_cost = cpu.round_cycle_cost
            enter_cost = round_cost(eenter)
            exit_cost = round_cost(eexit)
            cpu.spend_preconverted(
                cost.ocall_cycles + enter_cost[0] + exit_cost[0],
                cost.ocall_ns + enter_cost[1] + exit_cost[1],
            )
            stats.eexits += 1
            stats.eenters += 1
            stats.ocalls += 1
            by_syscall = stats.ocalls_by_syscall
            by_syscall[name] = by_syscall.get(name, 0) + 1
            stats.bytes_copied_out += bytes_out
            stats.bytes_copied_in += bytes_in
            host.events.emit(
                host.clock.now_ns, "sgx.ocall",
                enclave=enclave.build.name, syscall=name,
            )
            if span is not None:
                tracer.end(span, transition_ns=enter_cost[1] + exit_cost[1])

    def compile_syscalls(self, specs: Iterable[Tuple[str, int, int]]) -> object:
        """Precompile a syscall profile for :meth:`syscall_profile`.

        The HTTP layer replays the same ~90-spec profiles for every
        request, so everything loop-invariant per spec — the rounded
        cost components, the shared event-detail dict, the per-name stat
        buckets, the byte totals, the span templates — is resolved once
        here; replay only pays for what genuinely varies per call: the
        (EENTER, EEXIT) RNG draw and the running event timestamp.  The
        result is immutable and depends only on ``specs`` and this
        runtime's cost key, so it is memoised with the shared tables.
        """
        specs = tuple(specs)
        profiles = self._profiles
        profile = profiles.get(specs)
        if profile is None:
            if len(profiles) >= _PROFILES_MAX:
                profiles.clear()
            profile = profiles[specs] = self._compile(specs)
        return profile

    def _compile(self, specs: Tuple[Tuple[str, int, int], ...]) -> _CompiledProfile:
        spec_costs = self._spec_costs
        per_spec: List[Tuple[int, int]] = []
        details: List[Dict[str, Any]] = []
        ocall_spans: List[Tuple[str, int, Dict[str, Any]]] = []
        exitless_spans: List[Tuple[str, int, Dict[str, Any]]] = []
        name_counts: Dict[str, int] = {}
        exitless_cycles = 0
        exitless_ns = 0
        bytes_out_total = 0
        bytes_in_total = 0
        for spec in specs:
            cost = spec_costs.get(spec)
            if cost is None:
                cost = self._spec_cost(spec)
            name = spec[0]
            per_spec.append((cost.ocall_cycles, cost.ocall_ns))
            details.append(cost.detail)
            ocall_spans.append(cost.ocall_span)
            exitless_spans.append(cost.exitless_span)
            exitless_cycles += cost.exitless_cycles
            exitless_ns += cost.exitless_ns
            bytes_out_total += spec[1]
            bytes_in_total += spec[2]
            name_counts[name] = name_counts.get(name, 0) + 1
        return _CompiledProfile(
            specs,
            per_spec,
            details,
            tuple(name_counts.items()),
            exitless_cycles,
            exitless_ns,
            bytes_out_total,
            bytes_in_total,
            ocall_spans,
            exitless_spans,
        )

    def syscall_profile(self, handle: object) -> None:
        """Replay a compiled profile as one fused charge.

        Draws the per-call (EENTER, EEXIT) pairs from the same stream in
        the same order as :meth:`syscall`, accumulates the pre-rounded
        cycle/ns charges and applies them in one ``spend_preconverted``
        — every RNG draw, event timestamp, stat total and the final
        clock value are bit-identical to the per-call sequence.

        The per-call records are booked the same way, armed or not: the
        one loop keeps only the running end offset of each call, and
        that list goes to the event log as one *burst* beside the
        profile's shared detail dicts (``EventLog.emit_burst``) and,
        under an open span, to the tracer beside the profile's span
        templates (``Tracer.ocall_burst``).  Either side builds its
        ``sgx.ocall`` events / leaves only if somebody reads them.  The
        fusion is only valid while ``_epc_pressure`` is inert (see
        :meth:`_pressure_regimes`); under pressure, and for OCALLs
        outside any span (which are trace roots, not leaves), this is
        the exact per-call path.
        """
        profile: _CompiledProfile = handle  # type: ignore[assignment]
        host = self.host
        tracer = host.tracer if host.tracing else None
        contended, degraded, oversized = self._pressure_regimes()
        if (
            contended or degraded or oversized
            or (tracer is not None and not tracer.depth)
        ):
            for name, bytes_out, bytes_in in profile.specs:
                self.syscall(name, bytes_out, bytes_in)
            return
        self._app_context._check_open()

        enclave = self.enclave
        stats = enclave.stats
        by_syscall = stats.ocalls_by_syscall
        cpu = host.cpu
        count = profile.count

        if self.exitless:
            if tracer is not None:
                tracer.ocall_burst(profile.exitless_spans)
            cpu.spend_preconverted(profile.exitless_cycles, profile.exitless_ns)
            stats.ocalls += count
            for name, n in profile.name_counts:
                by_syscall[name] = by_syscall.get(name, 0) + n
            return

        model = SGX_COSTS
        # random.Random.uniform(a, b) is a + (b - a) * random(); inlining
        # the expression with the span precomputed draws the identical
        # float from the identical stream state without the method hop.
        random_ = self._transition_stream.random
        pair_min = model.transition_pair_min_cycles
        pair_span = model.transition_pair_max_cycles - pair_min
        ns_of = self._transition_ns
        acc_cycles = 0
        acc_ns = 0
        # One list serves both bursts; neither side mutates it.
        ends: List[int] = []
        record_end = ends.append
        for cyc, ns in profile.per_spec:
            total = pair_min + pair_span * random_()
            eenter = int(total * 0.55)
            eexit = int(total * 0.45)
            acc_cycles += cyc + eenter + eexit
            acc_ns += ns + ns_of[eenter] + ns_of[eexit]
            record_end(acc_ns)
        host.events.emit_burst("sgx.ocall", profile.details, host.clock.now_ns, ends)
        if tracer is not None:
            tracer.ocall_burst(profile.ocall_spans, ends)

        cpu.spend_preconverted(acc_cycles, acc_ns)
        stats.eexits += count
        stats.eenters += count
        stats.ocalls += count
        stats.bytes_copied_out += profile.bytes_out_total
        stats.bytes_copied_in += profile.bytes_in_total
        for name, n in profile.name_counts:
            by_syscall[name] = by_syscall.get(name, 0) + n

    def touch_pages(self, cold: int = 0, new: int = 0) -> None:
        # The integrity-tree depth grows with the resident set, making
        # cold-line fills slightly dearer in oversized enclaves (Fig 8).
        resident = max(self.enclave.epc_region.resident_pages, 1)
        excess = max(0.0, math.log2(resident / _BASELINE_RESIDENT_PAGES))
        scaled_cold = int(round(cold * (1.0 + 0.08 * excess)))
        self._app_context.touch_pages(cold=scaled_cold, new=new)

    def idle(
        self, duration_s: float, active_threads: int = 1, advance_clock: bool = True
    ) -> None:
        # Helper threads keep attracting timer interrupts while the app
        # thread blocks, so the whole TCS population counts.
        self.enclave.run_idle(
            duration_s,
            active_threads=self.manifest.max_threads,
            advance_clock=advance_clock,
        )

    # The first request's lazy initialization (``_WARMUP_SPECS``) faults
    # the library pages it read into the EPC.  Cached afterwards — the
    # mechanism behind Fig 10(b)'s ≈20x initial response time.
    _WARMUP_FAULT_PAGES = 1_100

    # Without preheat the heap working set also faults in lazily on the
    # first requests instead of at load time — the tradeoff the paper's
    # §IV-C preheat rationale describes.
    _LAZY_HEAP_WORKING_SET_PAGES = 25_000  # ≈100 MB

    def lazy_warmup(self) -> bool:
        """Run the one-time first-request warmup; True if it ran now."""
        if self._warmed_up:
            return False
        self.syscall_batch(_WARMUP_SPECS)
        fault_pages = self._WARMUP_FAULT_PAGES
        if not self.enclave.build.preheat:
            fault_pages += self._LAZY_HEAP_WORKING_SET_PAGES
        self.touch_pages(new=fault_pages)
        self._warmed_up = True
        return True

    # -------------------------------------------------------------- secrets

    def store_secret(self, key: str, value: bytes) -> None:
        self._app_context.store_secret(key, value)

    def load_secret(self, key: str) -> bytes:
        return self._app_context.load_secret(key)

    def memory_view(self, actor: str) -> bytes:
        return self.enclave.dump_memory(actor)
