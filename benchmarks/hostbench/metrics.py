"""Names, units and bounds of everything the benchmark reports.

The single source for ``BENCHMARK.json`` (``run.py manifest`` prints it,
``test_hostbench.py`` checks the committed file against it).  Nothing in
here imports ``repro``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

RUN_SECONDS = 10

#: Packages of ``src/repro`` the cProfile fold attributes time to, plus
#: ``host`` (the harness's own files) and ``other`` (stdlib/builtin time
#: with no ``repro`` caller, or a ``repro`` module outside this list).
LAYERS: Tuple[str, ...] = (
    "sim", "hw", "crypto", "sgx", "gramine", "runtime", "container", "net",
    "fivegc", "paka", "ran", "security", "obs", "faults", "experiments",
    "testbed", "host", "other",
)

WORKLOADS: Dict[str, str] = {
    "attach-sgx": (
        "fresh SUCI attaches on a warmed SGX slice with libcrypto: the E-CAP "
        "loop every layer runs in; the headline cost per registration"
    ),
    "attach-container": (
        "same loop on CONTAINER isolation: bypasses gramine/sgx, so a "
        "LibOS/SGX change must not move it while net/crypto/sim gains show larger"
    ),
    "attach-sgx-pure": (
        "attach-sgx with pure-Python AES/X25519 (what tier-1 CI runs): crypto "
        "does most of the work, the only place crypto vectorisation can show"
    ),
    "observed": (
        "SGX attaches with distributed tracing and a 1 s scraper armed (the "
        "1M-UE campaign config): obs and the per-OCALL span paths are judged here"
    ),
    "storm-defended": (
        "seeded signaling storm against admission control and the governor: "
        "the only run of security, fivegc.admission, shed/reject and idle/AEX paths"
    ),
    "sharded-4x2": (
        "4-shard campaign fanned over 2 worker processes: measures "
        "experiments.shard/parallel spawn, per-shard warm-up, pickling and merge"
    ),
}

#: Workloads whose worker forces the pure-Python AES/X25519 backends.  Kept
#: here, not on the workload spec, because the worker must know it before
#: anything imports ``repro``.
PURE_CRYPTO_WORKLOADS = frozenset({"attach-sgx-pure"})

#: Workloads whose traced process also runs the layer kernels: one per
#: crypto backend.  The kernels do not depend on the workload otherwise,
#: so on the other workloads their metrics read 0.
KERNEL_WORKLOADS = frozenset({"attach-sgx", "attach-sgx-pure"})

#: (name, unit, bound).  All lower-is-better.  ``setup_s`` carries the
#: largest bound the contract allows because it is a sub-second wall time.
END_TO_END: List[Tuple[str, str, float]] = [
    ("op_cost_cal", "cal/op", 0.20),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.10),
    ("sim_ms_per_op", "sim-ms", 0.10),
]

#: Per-op counters and simulated quantities that must repeat exactly for a
#: fixed (seed, seconds); ``compare`` demands equality on these, as on
#: every ``<layer>.calls_per_op``.
EXACT_SUFFIXES: Tuple[str, ...] = ("_per_op", "_lt_us")

_KERNELS_CAL: Tuple[str, ...] = (
    "crypto.aes_ctr_240B_cal", "crypto.milenage_vector_cal",
    "crypto.kdf_chain_cal", "crypto.suci_conceal_cal",
    "crypto.suci_deconceal_cal", "crypto.nia2_mac_cal",
    "crypto.tls_record_cal",
    "net.codec_roundtrip_cal", "net.http_wire_cal", "net.sbi_call_native_cal",
    "gramine.sbi_call_enclave_cal", "gramine.syscall_profile_cal",
    "runtime.syscall_profile_native_cal", "sgx.idle_window_cal",
    "sim.clock_advance_cal", "sim.eventlog_emit_cal", "sim.rng_jitter_cal",
    "fivegc.admission_check_cal",
    "obs.span_pair_cal", "obs.scrape_cal", "obs.slo_evaluate_cal",
    "obs.classify_cal",
    "ran.ue_build_request_cal",
    "testbed.add_subscriber_cal", "testbed.build_sgx_cal",
    "testbed.build_container_cal",
    "experiments.shard_assign_cal", "experiments.merge_cal",
)


def per_layer() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in print order."""
    rows: List[Tuple[str, str, str]] = []
    # 1. traced run
    for layer in LAYERS:
        rows.append((f"{layer}.self_share", "ratio", "lower"))
    for layer in LAYERS:
        rows.append((f"{layer}.calls_per_op", "calls/op", "lower"))
    rows.append(("host.trace_overhead_ratio", "ratio", "lower"))
    # 2. layer kernels
    rows.extend((name, "cal", "lower") for name in _KERNELS_CAL)
    rows.extend([
        ("testbed.import_s", "s", "lower"),
        ("experiments.worker_spawn_s", "s", "lower"),
        ("experiments.fanout_speedup", "ratio", "higher"),
    ])
    # 3. counters read from public stats
    rows.extend([
        ("sgx.eenters_per_op", "count/op", "lower"),
        ("sgx.aex_per_op", "count/op", "lower"),
        ("sgx.bytes_copied_per_op", "B/op", "lower"),
        ("gramine.ocalls_per_op", "count/op", "lower"),
        ("net.requests_per_op", "count/op", "lower"),
        ("sim.events_per_op", "count/op", "lower"),
        ("fivegc.shed_ratio", "ratio", "higher"),
        ("security.events_per_sim_s", "1/sim-s", "higher"),
        ("obs.scrapes", "count", "lower"),
        ("obs.tsdb_series", "count", "lower"),
        ("obs.traces_kept", "count", "lower"),
        ("paka.eudm_lt_us", "sim-us", "lower"),
        ("paka.eausf_lt_us", "sim-us", "lower"),
        ("paka.eamf_lt_us", "sim-us", "lower"),
        ("sgx.transition_us_per_op", "sim-us", "lower"),
        ("gramine.shield_us_per_op", "sim-us", "lower"),
        ("gramine.copy_us_per_op", "sim-us", "lower"),
        ("runtime.host_us_per_op", "sim-us", "lower"),
    ])
    # 4. harness diagnostics
    rows.extend([
        ("host.cal_unit_ns", "ns", "lower"),
        ("host.cal_spread", "ratio", "lower"),
        ("host.setup_wall_s", "s", "lower"),
        ("host.ops_per_s_raw", "1/s", "higher"),
        ("host.rss_kb_per_op", "kB/op", "lower"),
        ("ran.register_p50_cal", "cal", "lower"),
        ("ran.register_p99_cal", "cal", "lower"),
        ("obs.overhead_ratio", "ratio", "lower"),
    ])
    return rows


PER_LAYER_UNITS: Dict[str, str] = {name: unit for name, unit, _ in per_layer()}
END_TO_END_UNITS: Dict[str, str] = {name: unit for name, unit, _ in END_TO_END}


def is_exact(metric: str) -> bool:
    """True for metrics that repeat exactly for a fixed seed and scale."""
    if metric.startswith("host."):  # harness diagnostics are measured, not counted
        return False
    return metric == "sim_ms_per_op" or metric.endswith(EXACT_SUFFIXES)


def manifest() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "benchmarks/hostbench/run.py"],
        "paths": ["benchmarks/hostbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": "lower", "bound": b}
            for n, u, b in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": better} for n, u, better in per_layer()
        ],
    }
