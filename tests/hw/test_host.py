"""Physical host assembly (the paper's Dell PowerEdge R450)."""

import pytest

from repro.hw.cpu import CpuSpec
from repro.hw.host import PhysicalHost, paper_testbed_host
from repro.sim.clock import SimClock
from repro.sim.events import EventLog
from repro.sim.rng import RngService


def test_paper_testbed_shape():
    host = paper_testbed_host()
    assert len(host.cpus) == 2
    assert host.sgx_capable
    assert host.total_epc_bytes == 16 * 1024**3  # 16 GB combined EPC
    assert host.ram_bytes == 512 * 1024**3


def test_primary_cpu_accessor():
    host = paper_testbed_host()
    assert host.cpu is host.cpus[0]


def test_cpu_accessor_raises_without_cpus():
    host = PhysicalHost(
        name="empty", clock=SimClock(), rng=RngService(0), events=EventLog()
    )
    with pytest.raises(RuntimeError):
        host.cpu


def test_seed_controls_rng():
    a = paper_testbed_host(seed=1).rng.stream("x").random()
    b = paper_testbed_host(seed=1).rng.stream("x").random()
    c = paper_testbed_host(seed=2).rng.stream("x").random()
    assert a == b and a != c


def test_non_sgx_host():
    spec = CpuSpec("plain", 2.0e9, 8, sgx_version=0, max_epc_bytes=0)
    host = paper_testbed_host(cpu_spec=spec)
    assert not host.sgx_capable
    assert host.total_epc_bytes == 0


def test_clock_is_shared_between_cpus():
    host = paper_testbed_host()
    host.cpus[0].spend_cycles(2_400)
    host.cpus[1].spend_cycles(2_400)
    assert host.clock.now_ns == 2_000


# --------------------------------------------------------------------------
# The observation seam: span / trace / annotate / tick.


def test_seam_hands_out_one_shared_noop_unless_a_tracer_is_recording():
    from repro.hw.host import NULL_SPAN
    from repro.obs.trace import Tracer

    host = paper_testbed_host()
    assert not host.tracing
    assert host.span("x", kind="nas") is NULL_SPAN
    assert host.trace("r", "registration", "imsi-1") is NULL_SPAN
    host.annotate(amf="amf-0")
    with host.span("x") as span:
        span.tag(a=1)
        assert span.traceparent is None
    NULL_SPAN.record(True, 0, {})

    host.tracer = tracer = Tracer(host.clock)
    assert host.tracing
    with host.span("outer", kind="nas", round=1) as outer:
        host.annotate(amf="amf-0")
        host.clock.advance_us(3.0)
    assert tracer.roots == [outer] and tracer.depth == 0
    assert outer.ns == 3_000 and outer.tags == {"round": 1, "amf": "amf-0"}


def test_seam_tick_reaches_an_installed_monitor_only():
    host = paper_testbed_host()
    host.tick()  # nothing installed: nothing happens

    class Monitor:
        ticks = 0

        def tick(self):
            self.ticks += 1

    host.monitor = Monitor()
    host.tick()
    assert host.monitor.ticks == 1
