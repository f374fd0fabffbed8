"""Gramine LibOS: thread requirements, syscall→OCALL, warmup, exitless."""

import pytest

from repro.container.image import oai_base_image
from repro.gramine.gsc import build_gsc_image, sign_gsc_image
from repro.gramine.libos import HELPER_THREADS, GramineEnclaveRuntime, GramineError
from repro.gramine.manifest import GramineManifest
from repro.gramine.pal import PlatformAdaptationLayer
from repro.hw.host import paper_testbed_host
from repro.obs.trace import Tracer
from repro.sgx.aesm import AesmDaemon
from repro.sgx.epc import EpcManager

KEY = b"libos-test-signing-key"


def make_runtime(max_threads=4, enclave_size="512M", exitless=False, seed=5,
                 start=True, bulk_mb=50):
    host = paper_testbed_host(seed=seed)
    epc = EpcManager(host.total_epc_bytes, host.cpu, host.rng)
    pal = PlatformAdaptationLayer(host, epc, AesmDaemon("plat"))
    image, _ = oai_base_image("eudm-aka", bulk_mb=bulk_mb)
    manifest = GramineManifest(
        entrypoint=image.entrypoint,
        enclave_size=enclave_size,
        max_threads=max_threads,
        preheat_enclave=True,
        enable_stats=True,
    )
    gsc = sign_gsc_image(build_gsc_image(image, manifest), KEY)
    enclave, _ = pal.load_enclave(gsc.build_info)
    runtime = GramineEnclaveRuntime(
        "test-module", host, enclave, gsc.manifest, exitless=exitless
    )
    if start:
        runtime.start()
    return runtime


def test_helper_thread_count_is_three():
    assert HELPER_THREADS == 3


def test_start_requires_four_threads():
    runtime = make_runtime(max_threads=3, start=False)
    with pytest.raises(GramineError, match="helper threads"):
        runtime.start()


def test_start_runs_init_ocall_burst():
    runtime = make_runtime()
    # "Several hundred OCALLs" during Gramine+glibc init (paper §V-B1).
    init_ocalls = runtime.enclave.stats.ocalls_by_syscall
    total = sum(
        count for name, count in init_ocalls.items() if name != "pread64"
    )  # pread64 is the trusted-file verification at load
    assert 300 <= total <= 800


def test_double_start_rejected():
    runtime = make_runtime()
    with pytest.raises(GramineError):
        runtime.start()


def test_syscall_becomes_ocall():
    runtime = make_runtime()
    before = runtime.enclave.stats.snapshot()
    runtime.syscall("epoll_wait")
    delta = runtime.enclave.stats.delta(before)
    assert delta.ocalls == 1
    assert delta.eenters == 1 and delta.eexits == 1


def test_syscall_before_start_rejected():
    runtime = make_runtime(start=False)
    with pytest.raises(GramineError):
        runtime.syscall("read")


def test_exitless_mode_avoids_transitions():
    runtime = make_runtime(exitless=True)
    before = runtime.enclave.stats.snapshot()
    runtime.syscall("epoll_wait")
    delta = runtime.enclave.stats.delta(before)
    assert delta.ocalls == 1  # logically still an OCALL
    assert delta.eenters == 0 and delta.eexits == 0


def test_exitless_syscalls_are_cheaper():
    transitioning = make_runtime(seed=6)
    exitless = make_runtime(seed=6, exitless=True)

    t0 = transitioning.host.clock.now_ns
    for _ in range(50):
        transitioning.syscall("epoll_wait")
    cost_transitioning = transitioning.host.clock.now_ns - t0

    t0 = exitless.host.clock.now_ns
    for _ in range(50):
        exitless.syscall("epoll_wait")
    cost_exitless = exitless.host.clock.now_ns - t0
    assert cost_exitless < cost_transitioning


def test_secrets_live_in_enclave():
    runtime = make_runtime()
    runtime.store_secret("k", b"\xaa" * 16)
    assert runtime.load_secret("k") == b"\xaa" * 16
    assert b"\xaa" * 16 not in runtime.memory_view("container-engine")


def test_shielded_flag_and_stats():
    runtime = make_runtime()
    assert runtime.shielded
    assert runtime.sgx_stats is runtime.enclave.stats


def test_lazy_warmup_runs_once():
    runtime = make_runtime()
    assert runtime.lazy_warmup() is True
    assert runtime.lazy_warmup() is False


def test_lazy_warmup_costs_milliseconds():
    runtime = make_runtime()
    t0 = runtime.host.clock.now_ns
    runtime.lazy_warmup()
    elapsed_ms = (runtime.host.clock.now_ns - t0) / 1e6
    assert 5.0 < elapsed_ms < 40.0


def test_shutdown_destroys_enclave():
    runtime = make_runtime()
    runtime.shutdown()
    assert runtime.enclave.destroyed
    with pytest.raises(GramineError):
        runtime.syscall("read")
    with pytest.raises(GramineError):
        runtime.compute(1)


def test_compute_before_start_or_with_negative_cycles_is_rejected():
    with pytest.raises(GramineError, match="not running"):
        make_runtime(start=False).compute(1)
    runtime = make_runtime()
    t0 = runtime.host.clock.now_ns
    with pytest.raises(ValueError):
        runtime.compute(-1)
    assert runtime.host.clock.now_ns == t0


def test_idle_books_aex_on_enclave():
    runtime = make_runtime()
    before = runtime.enclave.stats.snapshot()
    runtime.idle(5.0)
    assert runtime.enclave.stats.delta(before).aexs > 0


def test_degraded_flag_below_working_set():
    healthy = make_runtime(seed=7)
    assert not healthy.degraded
    degraded = make_runtime(seed=7, enclave_size="256M")
    assert degraded.degraded


def test_degraded_runtime_thrashes():
    degraded = make_runtime(seed=8, enclave_size="256M")
    before = degraded.enclave.stats.snapshot()
    for _ in range(200):
        degraded.syscall("epoll_wait")
    delta = degraded.enclave.stats.delta(before)
    assert delta.page_evictions > 20  # evict/reload churn under thrash


def _syscall_fingerprint(runtime):
    host = runtime.host
    stats = runtime.enclave.stats
    return (
        host.clock.now_ns,
        host.cpu.cycles_spent,
        stats.eenters, stats.eexits, stats.ocalls,
        stats.bytes_copied_out, stats.bytes_copied_in,
        dict(stats.ocalls_by_syscall),
        host.events.select("sgx.ocall"),
    )


_REPLAY_SPECS = [
    ("epoll_wait", 0, 0), ("recvmsg", 0, 512), ("sendmsg", 256, 0),
    ("read", 0, 16384), ("epoll_wait", 0, 0), ("futex", 0, 0),
] * 7

# How the host is observed while a replay runs: nobody installed, an
# armed tracer, an armed tracer minting trace identity.
_ARMINGS = (None, {}, {"trace_seed": 3})


def _replay_pair(arming, **runtime_kwargs):
    """Twin runtimes (armed alike) and their tracers, if any."""
    runtimes = [make_runtime(seed=9, **runtime_kwargs) for _ in range(2)]
    tracers = [None, None]
    if arming is not None:
        tracers = [Tracer(rt.host.clock, **arming) for rt in runtimes]
        for runtime, tracer in zip(runtimes, tracers):
            runtime.host.tracer = tracer
    return runtimes, tracers


def _loop(runtime, specs):
    for name, bytes_out, bytes_in in specs:
        runtime.syscall(name, bytes_out, bytes_in)


def _under_root(tracer, replay):
    """Run ``replay`` under an open registration root; returns the root's
    dict and the id of the next span begun after the replay."""
    with tracer.trace("registration", "registration", supi="imsi-1") as root:
        replay()
        with tracer.begin("after", "nas") as after:
            pass
    return root.span.to_dict(), after.span_id


@pytest.mark.parametrize("exitless", [False, True])
def test_syscall_batch_is_the_per_call_sequence(exitless, monkeypatch):
    """``syscall_batch`` = compile + fused replay; clock, counters, RNG
    draws and events must equal a loop over :meth:`syscall` — and under
    an open span so must the span tree, ids included, although the fused
    replay never makes a per-call ``syscall``."""
    for arming in _ARMINGS:
        (batched, looped), (batched_tracer, looped_tracer) = _replay_pair(
            arming, exitless=exitless
        )
        handle = batched.compile_syscalls(iter(_REPLAY_SPECS))
        monkeypatch.setattr(
            batched, "syscall", lambda *spec: pytest.fail("fused replay fell back")
        )
        if arming is None:
            batched.syscall_profile(handle)
            _loop(looped, _REPLAY_SPECS)
        else:
            fused = _under_root(
                batched_tracer, lambda: batched.syscall_profile(handle)
            )
            reference = _under_root(
                looped_tracer, lambda: _loop(looped, _REPLAY_SPECS)
            )
            assert fused == reference
            assert len(reference[0]["children"]) == len(_REPLAY_SPECS) + 1
            assert (reference[1] is not None) == ("trace_seed" in arming)
        assert _syscall_fingerprint(batched) == _syscall_fingerprint(looped)
        # The next draw from the transition stream is the same too.
        assert (
            batched._transition_stream.random()
            == looped._transition_stream.random()
        )


def test_ocalls_outside_any_span_stay_trace_roots():
    """LibOS start-up and warm-up replay profiles with no span open: under
    an installed tracer each OCALL is its own root, batched or not."""
    (batched, looped), (batched_tracer, looped_tracer) = _replay_pair(
        {"trace_seed": 3}
    )
    batched.syscall_batch(_REPLAY_SPECS)
    _loop(looped, _REPLAY_SPECS)
    roots = [root.to_dict() for root in batched_tracer.roots]
    assert roots == [root.to_dict() for root in looped_tracer.roots]
    assert [(r["name"], r["kind"]) for r in roots] == [
        (name, "sgx.ocall") for name, _, _ in _REPLAY_SPECS
    ]
    assert _syscall_fingerprint(batched) == _syscall_fingerprint(looped)


@pytest.mark.parametrize(
    "enclave_size, stream", [("8G", "pressure-spike"), ("256M", "thrash")]
)
def test_replay_under_epc_pressure_stays_per_call(enclave_size, stream, monkeypatch):
    """Any non-inert pressure regime (the Fig 8 sweeps) draws per
    syscall, so the replay must be the per-call sequence, traced or not."""
    (batched, looped), (batched_tracer, looped_tracer) = _replay_pair(
        {"trace_seed": 3}, enclave_size=enclave_size
    )
    assert any(batched._pressure_regimes())
    calls = []
    per_call = batched.syscall
    monkeypatch.setattr(
        batched, "syscall", lambda *spec: (calls.append(spec), per_call(*spec))
    )
    fused = _under_root(batched_tracer, lambda: batched.syscall_batch(_REPLAY_SPECS))
    reference = _under_root(looped_tracer, lambda: _loop(looped, _REPLAY_SPECS))
    assert calls == _REPLAY_SPECS
    assert fused == reference
    assert _syscall_fingerprint(batched) == _syscall_fingerprint(looped)
    name = f"{batched.name}.{stream}"
    assert (
        batched.host.rng.stream(name).random() == looped.host.rng.stream(name).random()
    )
