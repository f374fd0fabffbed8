"""Enclave lifecycle, transitions and confidentiality semantics."""

import json

import pytest

from repro.hw.cpu import CpuSpec
from repro.hw.host import paper_testbed_host
from repro.sgx.costmodel import SGX_COSTS
from repro.sgx.enclave import CPU_PACKAGE_ACTOR, Enclave
from repro.sgx.epc import EpcManager
from repro.sgx.errors import (
    EnclaveLostError,
    EnclaveNotInitializedError,
    SgxError,
    SgxUnsupportedError,
)

from .conftest import small_build


class TestLifecycle:
    def test_load_initializes_and_measures(self, enclave):
        assert enclave.initialized
        assert enclave.measurement is not None
        assert len(enclave.measurement.mrenclave) == 32

    def test_load_records_span(self, enclave):
        assert enclave.load_span is not None
        assert enclave.load_span.ns > 0

    def test_double_load_rejected(self, enclave):
        with pytest.raises(SgxError):
            enclave.load()

    def test_ecall_before_load_rejected(self, host, epc):
        enclave = Enclave(host, small_build("unloaded"), epc)
        with pytest.raises(EnclaveNotInitializedError):
            with enclave.ecall("f"):
                pass

    def test_destroyed_enclave_unusable(self, enclave):
        enclave.destroy()
        with pytest.raises(EnclaveLostError):
            with enclave.ecall("f"):
                pass

    def test_destroy_releases_epc(self, enclave, epc):
        assert epc.resident_pages > 0
        enclave.destroy()
        assert epc.resident_pages == 0

    def test_non_sgx_host_rejected(self, epc):
        plain = paper_testbed_host(
            cpu_spec=CpuSpec("plain", 2e9, 8, sgx_version=0, max_epc_bytes=0)
        )
        with pytest.raises(SgxUnsupportedError):
            Enclave(plain, small_build(), epc)

    def test_preheat_prefaults_heap(self, host, epc):
        cold = Enclave(host, small_build("cold", preheat=False), epc)
        cold.load()
        cold_resident = cold.epc_region.resident_pages

        hot = Enclave(host, small_build("hot", preheat=True), epc)
        hot.load()
        assert hot.epc_region.resident_pages > cold_resident

    def test_preheat_increases_load_time(self, host, epc):
        cold = Enclave(host, small_build("cold2", preheat=False), epc)
        cold_span = cold.load()
        hot = Enclave(host, small_build("hot2", preheat=True), epc)
        hot_span = hot.load()
        assert hot_span.ns > cold_span.ns

    def test_trusted_file_bytes_dominate_load_time(self, host, epc):
        small = Enclave(
            host, small_build("small-tf", trusted_files_bytes=1 * 1024**2), epc
        )
        small_span = small.load()
        large = Enclave(
            host, small_build("large-tf", trusted_files_bytes=512 * 1024**2), epc
        )
        large_span = large.load()
        assert large_span.ns > 10 * small_span.ns


class TestTransitions:
    def test_ecall_counts_enter_and_exit(self, enclave):
        with enclave.ecall("handler"):
            pass
        assert enclave.stats.ecalls == 1
        # load() already performed trusted-file OCALLs; delta check:
        assert enclave.stats.eenters == enclave.stats.eexits

    def test_ocall_counts_pair(self, enclave):
        before = enclave.stats.snapshot()
        with enclave.ecall("handler") as ctx:
            ctx.ocall("recvmsg", bytes_in=256)
            ctx.ocall("sendmsg", bytes_out=256)
        delta = enclave.stats.delta(before)
        assert delta.ocalls == 2
        assert delta.eenters == 3  # 1 ECALL + 2 OCALL re-entries
        assert delta.eexits == 3

    def test_ocall_advances_time(self, enclave):
        t0 = enclave.host.clock.now_ns
        with enclave.ecall("handler") as ctx:
            ctx.ocall("epoll_wait")
        # At least one 10k-cycle transition pair: > 4 us at 2.4 GHz.
        assert enclave.host.clock.now_ns - t0 > 4_000

    def test_compute_charges_mee_penalty(self, enclave):
        t0 = enclave.host.clock.now_ns
        with enclave.ecall("handler") as ctx:
            ctx.compute(240_000)
        elapsed = enclave.host.clock.now_ns - t0
        plain_ns = 240_000 / 2.4  # 2.4 GHz
        assert elapsed > plain_ns * SGX_COSTS.epc_compute_penalty * 0.9

    def test_context_unusable_after_exit(self, enclave):
        with enclave.ecall("handler") as ctx:
            with pytest.raises(ValueError):
                ctx.compute(-1)
        for call in (
            lambda: ctx.ocall("read"),
            lambda: ctx.compute(1),
            lambda: ctx.touch_pages(cold=1),
            lambda: ctx.store_secret("k", b"x"),
            lambda: ctx.load_secret("k"),
        ):
            with pytest.raises(SgxError, match="already exited"):
                call()

    def test_tcs_exhaustion(self, host, epc):
        enclave = Enclave(host, small_build("one-thread", max_threads=1), epc)
        enclave.load()
        handle = enclave.begin_persistent_ecall("app")
        with pytest.raises(SgxError):
            with enclave.ecall("too-many"):
                pass
        enclave.end_persistent_ecall(handle)
        with enclave.ecall("now-fine"):
            pass

    def test_persistent_ecall_counts_one_enter(self, enclave):
        before = enclave.stats.snapshot()
        handle = enclave.begin_persistent_ecall("process")
        delta = enclave.stats.delta(before)
        assert delta.eenters == 1 and delta.eexits == 0
        enclave.end_persistent_ecall(handle)
        delta = enclave.stats.delta(before)
        assert delta.eexits == 1

    def test_end_persistent_is_idempotent(self, enclave):
        handle = enclave.begin_persistent_ecall("process")
        enclave.end_persistent_ecall(handle)
        before = enclave.stats.snapshot()
        enclave.end_persistent_ecall(handle)
        assert enclave.stats.delta(before).eexits == 0


class TestIdleAex:
    def test_aex_uses_eresume_not_eenter(self, enclave):
        before = enclave.stats.snapshot()
        enclave.run_idle(10.0)
        delta = enclave.stats.delta(before)
        assert delta.aexs > 0
        assert delta.eresumes == delta.aexs
        assert delta.eenters == 0

    def test_aex_scales_with_threads(self, enclave):
        before = enclave.stats.snapshot()
        enclave.run_idle(10.0, active_threads=1)
        one_thread = enclave.stats.delta(before).aexs
        before = enclave.stats.snapshot()
        enclave.run_idle(10.0, active_threads=4)
        four_threads = enclave.stats.delta(before).aexs
        assert four_threads > 2 * one_thread

    def test_idle_advances_clock_by_window(self, enclave):
        t0 = enclave.host.clock.now_ns
        enclave.run_idle(2.5)
        assert enclave.host.clock.now_ns - t0 == 2_500_000_000

    def test_idle_without_clock_advance(self, enclave):
        t0 = enclave.host.clock.now_ns
        before = enclave.stats.snapshot()
        enclave.run_idle(2.5, advance_clock=False)
        assert enclave.host.clock.now_ns == t0
        assert enclave.stats.delta(before).aexs > 0

    def test_negative_idle_rejected(self, enclave):
        with pytest.raises(ValueError):
            enclave.run_idle(-1.0)


class TestConfidentiality:
    def test_secrets_visible_inside_ecall(self, enclave):
        with enclave.ecall("store") as ctx:
            ctx.store_secret("k", b"\x01\x02")
        with enclave.ecall("load") as ctx:
            assert ctx.load_secret("k") == b"\x01\x02"

    def test_missing_secret_raises(self, enclave):
        with enclave.ecall("load") as ctx:
            with pytest.raises(KeyError):
                ctx.load_secret("nope")

    def test_outside_view_is_ciphertext(self, enclave):
        secret = bytes(range(32))
        with enclave.ecall("store") as ctx:
            ctx.store_secret("kausf", secret)
        dump = enclave.dump_memory(actor="hypervisor")
        assert secret not in dump
        assert secret.hex().encode() not in dump
        with pytest.raises(ValueError):
            json.loads(dump.decode("utf-8", errors="strict"))

    def test_cpu_package_sees_plaintext(self, enclave):
        with enclave.ecall("store") as ctx:
            ctx.store_secret("kausf", bytes(range(32)))
        dump = enclave.dump_memory(actor=CPU_PACKAGE_ACTOR)
        data = json.loads(dump.decode())
        assert data["kausf"] == bytes(range(32)).hex()

    def test_two_enclaves_have_different_ciphertexts(self, host, epc):
        a = Enclave(host, small_build("a"), epc)
        b = Enclave(host, small_build("b"), epc)
        a.load()
        b.load()
        secret = b"same-secret-in-both-enclaves-000"
        with a.ecall("s") as ctx:
            ctx.store_secret("k", secret)
        with b.ecall("s") as ctx:
            ctx.store_secret("k", secret)
        assert a.dump_memory("hypervisor") != b.dump_memory("hypervisor")

    def test_destroy_scrubs_secrets(self, enclave):
        with enclave.ecall("store") as ctx:
            ctx.store_secret("k", b"x")
        enclave.destroy()
        assert enclave._secrets == {}
