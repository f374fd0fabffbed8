"""Native runtime: costs, secrets exposure, lifecycle."""

import json

import pytest

from repro.hw.host import paper_testbed_host
from repro.runtime import native
from repro.runtime.base import SYSCALL_HOST_CYCLES, syscall_host_cycles
from repro.runtime.native import PRIVILEGED_ACTORS, NativeRuntime


@pytest.fixture
def runtime(host):
    return NativeRuntime("module", host)


def test_not_shielded(runtime):
    assert not runtime.shielded
    assert runtime.sgx_stats is None


def test_compute_advances_clock(runtime, host):
    t0 = host.clock.now_ns
    runtime.compute(2_400)
    assert host.clock.now_ns - t0 == 1_000  # 1 us at 2.4 GHz


def test_syscall_costs_trap_plus_kernel_work(runtime, host):
    t0 = host.clock.now_ns
    runtime.syscall("epoll_wait")
    elapsed = host.clock.now_ns - t0
    assert 1_000 < elapsed < 4_000  # ~1.7 us


def test_syscall_payload_bytes_cost_extra(runtime, host):
    t0 = host.clock.now_ns
    runtime.syscall("recvmsg", bytes_in=0)
    small = host.clock.now_ns - t0
    t0 = host.clock.now_ns
    runtime.syscall("recvmsg", bytes_in=64 * 1024)
    large = host.clock.now_ns - t0
    assert large > small


def test_syscall_cost_table_lookup():
    assert syscall_host_cycles("epoll_wait") == SYSCALL_HOST_CYCLES["epoll_wait"]
    # Unknown syscalls fall back to a default rather than failing.
    assert syscall_host_cycles("obscure_call") > 0


def test_idle_advances_clock(runtime, host):
    runtime.idle(1.5)
    assert host.clock.now_ns == pytest.approx(1.5e9)


def test_idle_without_clock_advance(runtime, host):
    runtime.idle(1.5, advance_clock=False)
    assert host.clock.now_ns == 0


def test_secret_roundtrip(runtime):
    runtime.store_secret("k", b"\x01\x02")
    assert runtime.load_secret("k") == b"\x01\x02"
    with pytest.raises(KeyError):
        runtime.load_secret("missing")


@pytest.mark.parametrize("actor", sorted(PRIVILEGED_ACTORS))
def test_privileged_actors_see_plaintext(runtime, actor):
    runtime.store_secret("kausf", bytes(range(32)))
    dump = json.loads(runtime.memory_view(actor).decode())
    assert dump["kausf"] == bytes(range(32)).hex()


def test_unprivileged_actor_sees_nothing(runtime):
    runtime.store_secret("kausf", bytes(range(32)))
    assert runtime.memory_view("random-neighbour") == b""


def test_negative_charges_are_rejected(runtime, host):
    for charge in (
        lambda: runtime.compute(-1),
        lambda: runtime.touch_pages(cold=-1),
    ):
        with pytest.raises(ValueError):
            charge()
    assert host.clock.now_ns == 0


def test_shutdown_blocks_further_use(runtime):
    handle = runtime.compile_syscalls([("read", 0, 0)])
    runtime.shutdown()
    # A real exception on every entry point, so it holds under python -O.
    for call in (
        lambda: runtime.compute(1),
        lambda: runtime.syscall("read"),
        lambda: runtime.syscall_profile(handle),
        lambda: runtime.touch_pages(cold=1),
        lambda: runtime.idle(1.0),
        lambda: runtime.store_secret("k", b"x"),
        lambda: runtime.load_secret("k"),
    ):
        with pytest.raises(RuntimeError, match="shut down"):
            call()


def test_shutdown_scrubs_secrets(runtime):
    runtime.store_secret("k", b"x")
    runtime.shutdown()
    assert runtime._secrets == {}


def test_syscall_batch_is_the_per_call_sequence(host):
    """A fresh compile, and a memo hit from another runtime on a CPU of
    the same frequency, both charge exactly what the per-call loop does."""
    specs = [("epoll_wait", 0, 0), ("recvmsg", 0, 512), ("sendmsg", 256, 0)] * 5
    native._PROFILES.clear()  # the first compile below is a fresh one
    batched = NativeRuntime("batched", host)
    t0, c0 = host.clock.now_ns, host.cpu.cycles_spent
    batched.syscall_batch(iter(specs))
    batch_cost = (host.clock.now_ns - t0, host.cpu.cycles_spent - c0)
    t0, c0 = host.clock.now_ns, host.cpu.cycles_spent
    for name, bytes_out, bytes_in in specs:
        batched.syscall(name, bytes_out, bytes_in)
    assert (host.clock.now_ns - t0, host.cpu.cycles_spent - c0) == batch_cost
    twin_host = paper_testbed_host(seed=1)
    twin = NativeRuntime("twin", twin_host)
    handle = twin.compile_syscalls(specs)
    assert handle is batched.compile_syscalls(specs)
    twin.syscall_profile(handle)
    assert (twin_host.clock.now_ns, twin_host.cpu.cycles_spent) == batch_cost
