"""Property-based SGX invariants: transitions balance, EPC bounds, sealing."""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gramine import libos
from repro.hw.host import paper_testbed_host
from repro.sgx.enclave import Enclave, EnclaveBuildInfo
from repro.sgx.epc import PAGE_SIZE, EpcManager
from repro.sgx.measurement import EnclaveMeasurement, MeasurementBuilder, sign_enclave
from repro.sgx.sealing import seal, unseal
from tests.gramine.test_libos import make_runtime


def build_enclave(seed=0, threads=4):
    host = paper_testbed_host(seed=seed)
    epc = EpcManager(host.total_epc_bytes, host.cpu)
    measurement = EnclaveMeasurement(mrenclave=hashlib.sha256(b"prop").digest())
    build = EnclaveBuildInfo(
        name="prop-enclave",
        enclave_size_bytes=64 * 1024 * 1024,
        max_threads=threads,
        measured_bytes=1024 * 1024,
        trusted_files_bytes=1024 * 1024,
        heap_bytes=32 * 1024 * 1024,
        sigstruct=sign_enclave(measurement, b"prop-key"),
    )
    enclave = Enclave(host, build, epc)
    enclave.load()
    return enclave


SYSCALLS = st.tuples(
    st.sampled_from(["read", "write", "epoll_wait", "sendmsg", "recvmsg"]),
    st.integers(min_value=0, max_value=4096),
    st.integers(min_value=0, max_value=4096),
)
# Each op: (kind, syscalls).  0 = the first syscall alone, 1 = all of
# them as one compiled profile, 2 = an idle window of one second per
# syscall, 3 = the first-request warmup, 4 = an EPC page touch.
operations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.lists(SYSCALLS, min_size=1, max_size=6),
    ),
    min_size=1,
    max_size=12,
)


@given(ops=operations)
@settings(max_examples=20, deadline=None)
def test_transitions_always_balance(ops):
    """After any sequence of syscalls, fused profile replays, idle
    windows, warmups and page touches on a started Gramine runtime (the
    only way an enclave is entered or left): every OCALL is one EEXIT +
    one EENTER, or neither when exitless, and AEX re-entries are
    ERESUMEs.  Every sequence runs on both flavours at three enclave
    sizes: 512M replays a profile fused; 256M thrashes and 8G is
    oversized, so there the replay is the per-call path."""
    for enclave_size in ("256M", "512M", "8G"):
        for exitless in (False, True):
            runtime = make_runtime(
                enclave_size=enclave_size, exitless=exitless, bulk_mb=1
            )
            baseline = runtime.enclave.stats.snapshot()
            issued = 0
            for kind, specs in ops:
                if kind == 0:
                    runtime.syscall(*specs[0])
                    issued += 1
                elif kind == 1:
                    runtime.syscall_profile(runtime.compile_syscalls(specs))
                    issued += len(specs)
                elif kind == 2:
                    runtime.idle(float(len(specs)))
                elif kind == 3:
                    if runtime.lazy_warmup():
                        issued += len(libos._WARMUP_SPECS)
                else:
                    runtime.touch_pages(cold=64 * len(specs), new=len(specs))
            delta = runtime.enclave.stats.delta(baseline)
            assert delta.ocalls == issued
            assert delta.eenters == delta.eexits == (0 if exitless else issued)
            assert delta.eresumes == delta.aexs


@given(faults=st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=12))
@settings(max_examples=20, deadline=None)
def test_epc_residency_never_exceeds_capacity(faults):
    host = paper_testbed_host(seed=3)
    manager = EpcManager(4096 * PAGE_SIZE, host.cpu)
    regions = [
        manager.create_region(f"e{i}", 5000 * PAGE_SIZE) for i in range(3)
    ]
    for index, pages in enumerate(faults):
        manager.fault_in(regions[index % 3], pages)
        assert manager.resident_pages <= manager.capacity_pages
        for region in regions:
            assert 0 <= region.resident_pages <= region.total_pages


@given(secret=st.binary(max_size=128))
@settings(max_examples=20, deadline=None)
def test_sealing_roundtrip_any_secret(secret):
    enclave = build_enclave()
    assert unseal(enclave, seal(enclave, secret)) == secret


@given(
    chunks=st.lists(st.binary(min_size=1, max_size=32), min_size=1, max_size=8),
)
@settings(max_examples=25, deadline=None)
def test_measurement_depends_on_every_chunk(chunks):
    def measure(chunk_list):
        builder = MeasurementBuilder()
        builder.ecreate(1 << 20)
        for offset, chunk in enumerate(chunk_list):
            builder.eadd(offset * 4096, flags="rx")
            builder.eextend(offset * 4096, chunk)
        return builder.finalize().mrenclave

    original = measure(chunks)
    mutated = list(chunks)
    mutated[0] = mutated[0][:-1] + bytes([mutated[0][-1] ^ 1])
    assert measure(mutated) != original


@given(windows=st.lists(st.floats(min_value=0.1, max_value=30.0), min_size=1, max_size=6))
@settings(max_examples=15, deadline=None)
def test_aex_rate_is_window_additive(windows):
    """AEX counts accumulate ~linearly: the total over split windows is
    close to one window of the summed duration."""
    split = build_enclave(seed=10)
    for window in windows:
        split.run_idle(window)
    combined = build_enclave(seed=11)
    combined.run_idle(sum(windows))
    assert abs(split.stats.aexs - combined.stats.aexs) <= 0.02 * combined.stats.aexs + len(windows)
