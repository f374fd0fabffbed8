"""CPU model: cycle accounting and conversions."""

import pytest

from repro.hw.cpu import XEON_SILVER_4314, Cpu, CpuSpec
from repro.sim.clock import SimClock


def test_paper_cpu_spec():
    assert XEON_SILVER_4314.frequency_hz == 2.40e9
    assert XEON_SILVER_4314.sgx_version == 2
    assert XEON_SILVER_4314.sgx_capable
    assert XEON_SILVER_4314.max_epc_bytes == 8 * 1024**3


def test_spend_cycles_advances_clock():
    clock = SimClock()
    cpu = Cpu(XEON_SILVER_4314, clock)
    cpu.spend_cycles(2_400)  # 1 us at 2.4 GHz
    assert clock.now_ns == 1_000


def test_spend_cycles_converts_through_frequency():
    # Each charge rounds to the nearest ns on its own; the counter
    # truncates.  2 cycles at 3 GHz are 0.67 ns: three charges are 3 ns,
    # not round(2 ns).
    clock = SimClock()
    cpu = Cpu(CpuSpec("test", 3.0e9, 1, sgx_version=0, max_epc_bytes=0), clock)
    for _ in range(3):
        cpu.spend_cycles(2)
    assert clock.now_ns == 3
    cpu.spend_cycles(2.5)
    assert (clock.now_ns, cpu.cycles_spent) == (4, 8)


@pytest.mark.parametrize(
    "frequency_hz", [0, -2.4e9, float("nan")], ids=["zero", "negative", "nan"]
)
def test_cpu_spec_rejects_non_positive_frequency(frequency_hz):
    with pytest.raises(ValueError, match="frequency"):
        CpuSpec("broken", frequency_hz, 1, sgx_version=0, max_epc_bytes=0)


def test_spend_cycles_accumulates_counter():
    cpu = Cpu(XEON_SILVER_4314, SimClock())
    cpu.spend_cycles(100)
    cpu.spend_cycles(200)
    assert cpu.cycles_spent == 300


def test_spend_cycles_rejects_negative():
    cpu = Cpu(XEON_SILVER_4314, SimClock())
    with pytest.raises(ValueError):
        cpu.spend_cycles(-1)
    assert cpu.clock.now_ns == 0 and cpu.cycles_spent == 0


def test_non_sgx_cpu():
    spec = CpuSpec("old-xeon", 2.0e9, 8, sgx_version=0, max_epc_bytes=0)
    assert not spec.sgx_capable
