"""EPC manager: capacity, faulting, eviction, management overhead."""

import pytest

from repro.sgx.costmodel import SGX_COSTS
from repro.sgx.epc import PAGE_SIZE, EpcManager
from repro.sgx.errors import EpcExhaustedError
from repro.sgx.stats import SgxStats


@pytest.fixture
def manager(host):
    # Small physical EPC so eviction is easy to trigger.
    return EpcManager(64 * PAGE_SIZE, host.cpu, host.rng)


def test_region_creation_and_pages(manager):
    region = manager.create_region("e1", 32 * PAGE_SIZE)
    assert region.total_pages == 32
    assert region.resident_pages == 0
    assert region.utilization == 0.0


def test_duplicate_region_rejected(manager):
    manager.create_region("e1", PAGE_SIZE)
    with pytest.raises(ValueError):
        manager.create_region("e1", PAGE_SIZE)


def test_fault_in_accumulates(manager):
    region = manager.create_region("e1", 32 * PAGE_SIZE)
    stats = SgxStats()
    manager.fault_in(region, 10, stats)
    manager.fault_in(region, 5, stats)
    assert region.resident_pages == 15
    assert stats.page_faults == 15


def test_fault_in_zero_is_noop(manager, host):
    region = manager.create_region("e1", 32 * PAGE_SIZE)
    t0 = host.clock.now_ns
    manager.fault_in(region, 0)
    assert host.clock.now_ns == t0


def test_fault_beyond_region_size_raises(manager):
    region = manager.create_region("e1", 4 * PAGE_SIZE)
    with pytest.raises(EpcExhaustedError):
        manager.fault_in(region, 5)


def test_global_capacity_triggers_eviction(manager):
    big = manager.create_region("big", 64 * PAGE_SIZE)
    small = manager.create_region("small", 64 * PAGE_SIZE)
    stats = SgxStats()
    manager.fault_in(big, 60, stats)
    manager.fault_in(small, 20, stats)  # 80 > 64: evicts 16 from 'big'
    assert manager.resident_pages <= manager.capacity_pages
    assert stats.page_evictions >= 16
    assert big.resident_pages < 60


def test_eviction_spares_the_faulting_region(manager):
    """Largest-first eviction must not steal pages from the region being
    faulted in (it would write them back only to re-fault them)."""
    big = manager.create_region("big", 64 * PAGE_SIZE)
    other = manager.create_region("other", 64 * PAGE_SIZE)
    manager.fault_in(big, 44)
    manager.fault_in(other, 20)  # EPC now full: 44 + 20 = 64
    stats = SgxStats()
    manager.fault_in(big, 10, stats)
    # 'big' is the largest region, yet the 10 pages must come from 'other'.
    assert big.resident_pages == 54
    assert other.resident_pages == 10
    assert stats.page_faults == 10
    assert stats.page_evictions == 10


def test_eviction_accounting_no_double_count(manager):
    """Hand-computed scenario mixing real evictions and transient pages.

    Capacity 64.  A holds 58, B (8-page enclave) holds 6.  Faulting 8
    pages into B: headroom lets only 2 become resident (needing 2 pages
    evicted from A), the other 6 cycle transiently.  Evictions = 2 + 6,
    not the 8 + 6 = 14 the old overshoot-then-transient path booked."""
    a = manager.create_region("a", 64 * PAGE_SIZE)
    b = manager.create_region("b", 8 * PAGE_SIZE)
    manager.fault_in(a, 58)
    manager.fault_in(b, 6)
    stats = SgxStats()
    manager.fault_in(b, 8, stats)
    assert b.resident_pages == 8
    assert a.resident_pages == 56
    assert manager.resident_pages == manager.capacity_pages
    assert stats.page_faults == 8
    assert stats.page_evictions == 8


def test_eviction_charge_matches_accounting(manager, host):
    """Evict cycles are charged once per evicted page (real + transient)."""
    a = manager.create_region("a", 64 * PAGE_SIZE)
    b = manager.create_region("b", 8 * PAGE_SIZE)
    manager.fault_in(a, 58)
    manager.fault_in(b, 6)
    c0 = host.cpu.cycles_spent
    manager.fault_in(b, 8)
    spent = host.cpu.cycles_spent - c0
    assert spent == 8 * SGX_COSTS.page_fault_cycles + 8 * SGX_COSTS.page_evict_cycles


def test_fault_in_charges_time(manager, host):
    region = manager.create_region("e1", 32 * PAGE_SIZE)
    t0 = host.clock.now_ns
    manager.fault_in(region, 10)
    assert host.clock.now_ns > t0


def test_fault_in_without_time_charge(manager, host):
    region = manager.create_region("e1", 32 * PAGE_SIZE)
    t0 = host.clock.now_ns
    manager.fault_in(region, 10, charge_time=False)
    assert host.clock.now_ns == t0
    assert region.resident_pages == 10


def test_release_region_frees_pages(manager):
    region = manager.create_region("e1", 32 * PAGE_SIZE)
    manager.fault_in(region, 10)
    manager.release_region("e1")
    assert manager.resident_pages == 0


def test_management_cycles_grow_with_residency(manager):
    small = manager.create_region("small", 64 * PAGE_SIZE)
    manager.fault_in(small, 2)
    large = manager.create_region("large", 64 * PAGE_SIZE)
    manager.fault_in(large, 60)
    small_cost = sum(manager.management_cycles(small, "t") for _ in range(50)) / 50
    large_cost = sum(manager.management_cycles(large, "t") for _ in range(50)) / 50
    assert large_cost > small_cost
