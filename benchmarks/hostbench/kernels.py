"""Layer kernels: cost of one call into each layer's public functions.

Each kernel is a closure over objects built once by :func:`build_suite`;
:func:`run_suite` times it with the calibration kernel on both sides and
reports ``cal`` per call.  The kernels run in the traced process of
``attach-sgx`` and ``attach-sgx-pure``, so both crypto backends are
reported.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict

from calibrate import cal_passes, cal_unit_s
from repro.crypto.aes import AES128
from repro.crypto.cmac import nia2_mac
from repro.crypto.kdf import (
    derive_hxres_star, derive_kamf, derive_kausf, derive_kseaf,
    derive_nas_keys, derive_res_star,
)
from repro.crypto.milenage import Milenage
from repro.crypto.suci import Supi, conceal_supi, deconceal_suci, x25519_public_key
from repro.crypto.tls import establish_session
from repro.experiments.harness import build_testbed, warmed_testbed
from repro.experiments.shard import (
    assign_shards, merge_shard_results, population_msins, run_shard,
)
from repro.fivegc.admission import AdmissionConfig, AdmissionController
from repro.net.codec import dumps_flat, loads_object
from repro.net.http import HttpClient, HttpRequest, HttpResponse, HttpServer, ServerSyscallProfile
from repro.net.rest import json_response
from repro.obs.detect import AttackClassifier
from repro.obs.scrape import Scraper
from repro.obs.slo import SloEngine, default_slos
from repro.obs.trace import Tracer
from repro.paka.deploy import IsolationMode
from repro.runtime.native import NativeRuntime

_SBI_BODIES = [
    {"supi": "imsi-001010000000001", "servingNetworkName": "5G:mnc001.mcc001.3gppnetwork.org"},
    {
        "rand": "00112233445566778899aabbccddeeff",
        "autn": "ffeeddccbbaa99887766554433221100",
        "hxresStar": "0f1e2d3c4b5a69788796a5b4c3d2e1f0" * 2,
        "authCtxId": "ctx-000001",
    },
    {"resStar": "f0e1d2c3b4a5968778695a4b3c2d1e0f" * 2},
    {"authResult": "AUTHENTICATION_SUCCESS", "supi": "imsi-001010000000001", "kseaf": "00" * 32},
    {"pduSessionId": 1, "dnn": "internet", "sscMode": 1, "established": True},
]


def _echo_endpoint(testbed, runtime, tag: str) -> Callable[[], Any]:
    """An ``HttpClient.request`` → ``HttpServer.serve`` round trip whose
    handler does nothing, with the server on ``runtime``."""
    server = HttpServer(f"bench-echo-{tag}", runtime, testbed.sbi)
    server.route("POST", "/bench/echo", lambda request, context: json_response({"ok": 1}))
    server.start()
    client = HttpClient(
        f"bench-client-{tag}",
        NativeRuntime(f"bench-client-{tag}", testbed.host),
        testbed.sbi,
    )
    connection = client.connect(server)
    body = dumps_flat(_SBI_BODIES[0])
    return lambda: client.request(connection, "POST", "/bench/echo", body)


def _crypto_kernels() -> Dict[str, Callable[[], Any]]:
    key = bytes(range(16))
    cipher = AES128(key)
    nonce = bytes(range(32, 48))
    message = bytes(240)
    milenage = Milenage(key, bytes(range(16, 32)))
    counter = iter(range(1 << 62))
    snn = b"5G:mnc001.mcc001.3gppnetwork.org"
    ck, ik, rand, res = key, nonce, bytes(range(48, 64)), bytes(8)
    supi = Supi(mcc="001", mnc="01", msin="0000000001")
    hn_private = bytes(range(1, 33))
    hn_public = x25519_public_key(hn_private)
    eph_private = bytes(range(2, 34))
    suci = conceal_supi(supi, hn_public, eph_private)
    tls_client, tls_server = establish_session("bench-c", "bench-s", b"bench")

    def kdf_chain():
        kausf = derive_kausf(ck, ik, snn, bytes(6))
        xres_star = derive_res_star(ck, ik, snn, rand, res)
        derive_hxres_star(rand, xres_star)
        kamf = derive_kamf(derive_kseaf(kausf, snn), "imsi-001010000000001")
        return derive_nas_keys(kamf)

    return {
        "crypto.aes_ctr_240B_cal": lambda: cipher.ctr(nonce, message),
        # RAND varies per call so the per-RAND TEMP cache cannot short-circuit.
        "crypto.milenage_vector_cal": lambda: milenage.generate(
            next(counter).to_bytes(16, "big"), bytes(6), b"\x80\x00"
        ),
        "crypto.kdf_chain_cal": kdf_chain,
        "crypto.suci_conceal_cal": lambda: conceal_supi(supi, hn_public, eph_private),
        "crypto.suci_deconceal_cal": lambda: deconceal_suci(suci, hn_private),
        "crypto.nia2_mac_cal": lambda: nia2_mac(key, next(counter) & 0xFFFFFF, 1, 0, message),
        "crypto.tls_record_cal": lambda: tls_server.unprotect(tls_client.protect(message)),
    }


def _codec_roundtrip() -> None:
    for body in _SBI_BODIES:
        loads_object(dumps_flat(body))


def _http_wire() -> None:
    body = dumps_flat(_SBI_BODIES[1])
    headers = {"Content-Type": "application/json"}
    HttpRequest.from_wire(HttpRequest("POST", "/bench/echo", body, dict(headers)).wire_bytes())
    HttpResponse.from_wire(HttpResponse(200, body, dict(headers)).wire_bytes())


def build_suite(seed: int) -> Dict[str, Callable[[], Any]]:
    """Every per-call kernel, keyed by metric name."""
    kernels = _crypto_kernels()
    kernels["net.codec_roundtrip_cal"] = _codec_roundtrip
    kernels["net.http_wire_cal"] = _http_wire

    native = warmed_testbed(IsolationMode.CONTAINER, seed=seed)
    host = native.host
    native_runtime = native.paka.modules["eudm"].runtime
    profile = ServerSyscallProfile.pistache_like().in_window_pre
    native_handle = native_runtime.compile_syscalls(profile)
    kernels["net.sbi_call_native_cal"] = _echo_endpoint(native, native_runtime, "native")
    kernels["runtime.syscall_profile_native_cal"] = (
        lambda: native_runtime.syscall_profile(native_handle)
    )

    shielded = warmed_testbed(IsolationMode.SGX, seed=seed)
    enclave_runtime = shielded.paka.modules["eudm"].runtime
    enclave_handle = enclave_runtime.compile_syscalls(profile)
    kernels["gramine.sbi_call_enclave_cal"] = _echo_endpoint(
        shielded, enclave_runtime, "enclave"
    )
    kernels["gramine.syscall_profile_cal"] = (
        lambda: enclave_runtime.syscall_profile(enclave_handle)
    )
    kernels["sgx.idle_window_cal"] = lambda: shielded.idle(1.0)

    clock = host.clock
    kernels["sim.clock_advance_cal"] = lambda: clock.advance_us(1.5)
    kernels["sim.eventlog_emit_cal"] = lambda: host.events.emit(
        clock.now_ns, "bench.kernel", layer="sim"
    )
    kernels["sim.rng_jitter_cal"] = lambda: host.rng.jitter("bench.kernel", 100.0, 0.05)

    admission = AdmissionController(
        AdmissionConfig(
            per_source_rate_per_s=0.25, bucket_rate_per_s=50.0,
            gnb_rate_per_s=6.0, breaker_max_per_s=30.0,
        )
    )
    arrivals = iter(range(1 << 62))

    def admission_check():
        n = next(arrivals)
        return admission.check(n * 2_500_000, f"spoof-{n % 64}", gnb=f"gnb-atk-{n % 4}")

    kernels["fivegc.admission_check_cal"] = admission_check

    tracer = Tracer(clock)

    def span_pair():
        span = tracer.begin("bench", kind="sgx.ocall", runtime="bench")
        tracer.end(span)
        tracer.recycle(span)

    scraper = Scraper.for_testbed(native, cadence_s=1.0)
    # SLO evaluation and classification read a Tsdb of fixed depth (30
    # one-second scrapes), separate from the one the scrape kernel grows.
    history = Scraper.for_testbed(native, cadence_s=1.0)
    for _ in range(30):
        native.idle(1.0)
        history.scrape()
    slo_engine = SloEngine(default_slos(native))
    classifier = AttackClassifier()
    kernels["obs.span_pair_cal"] = span_pair
    kernels["obs.scrape_cal"] = scraper.scrape
    kernels["obs.slo_evaluate_cal"] = lambda: slo_engine.evaluate(history.tsdb)
    kernels["obs.classify_cal"] = lambda: classifier.classify_at(history.tsdb, clock.now_ns)

    ue = native.add_subscriber()
    kernels["ran.ue_build_request_cal"] = ue.build_registration_request
    kernels["testbed.add_subscriber_cal"] = native.add_subscriber
    kernels["testbed.build_sgx_cal"] = lambda: build_testbed(IsolationMode.SGX, seed=seed)
    kernels["testbed.build_container_cal"] = lambda: build_testbed(
        IsolationMode.CONTAINER, seed=seed
    )

    msins = population_msins(1000)
    buckets = assign_shards(population_msins(8), 2)
    shard_results = [
        run_shard(index, buckets[label], seed) for index, label in enumerate(sorted(buckets))
    ]
    kernels["experiments.shard_assign_cal"] = lambda: assign_shards(msins, 4)
    kernels["experiments.merge_cal"] = lambda: merge_shard_results(
        shard_results, ues=8, shards=2, seed=seed
    )
    return kernels


def time_kernel(fn: Callable[[], Any], budget_s: float) -> float:
    """CPU seconds per call: median of three equal runs sized to ``budget_s``."""
    calls = 1
    while True:
        start = time.process_time()
        for _ in range(calls):
            fn()
        elapsed = time.process_time() - start
        if elapsed >= budget_s / 4 or calls >= 1 << 20:
            break
        calls *= 4
    samples = [elapsed / calls]
    for _ in range(2):
        start = time.process_time()
        for _ in range(calls):
            fn()
        samples.append((time.process_time() - start) / calls)
    return statistics.median(samples)


def run_suite(seed: int, budget_s: float) -> Dict[str, float]:
    """``cal`` per call for every kernel."""
    results: Dict[str, float] = {}
    for name, fn in build_suite(seed).items():
        passes = cal_passes(3)
        per_call_s = time_kernel(fn, budget_s)
        results[name] = per_call_s / cal_unit_s(passes + cal_passes(3))
    return results


def sim_breakdown(seed: int, isolation: IsolationMode) -> Dict[str, float]:
    """Simulated decomposition of one traced registration, plus the event
    records it emits, on a fresh warmed testbed with an unbounded log."""
    testbed = warmed_testbed(isolation, seed=seed)
    events_before = len(testbed.host.events)
    trace = testbed.trace_registration()
    rows = trace.breakdown
    total = lambda key: sum(row[key] for row in rows.values())  # noqa: E731
    return {
        "sim.events_per_op": len(testbed.host.events) - events_before,
        "paka.eudm_lt_us": rows["eudm"]["lt_us"],
        "paka.eausf_lt_us": rows["eausf"]["lt_us"],
        "paka.eamf_lt_us": rows["eamf"]["lt_us"],
        "sgx.transition_us_per_op": total("transition_us"),
        "gramine.shield_us_per_op": total("shield_us"),
        "gramine.copy_us_per_op": total("copy_us"),
        "runtime.host_us_per_op": total("host_us"),
    }


def import_s(src_dir: str) -> float:
    """Wall seconds for a fresh interpreter to import the testbed stack."""
    code = f"import sys; sys.path.insert(0, {src_dir!r}); import repro.experiments.harness"
    bare = _launch_s("pass")
    return max(_launch_s(code) - bare, 0.0)


def _launch_s(code: str) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - start


def worker_spawn_s() -> float:
    """Wall seconds to start one pool worker, run a no-op and reap it."""
    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=1) as pool:
        pool.submit(os.getpid).result()
    return time.perf_counter() - start
