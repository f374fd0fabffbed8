"""The event log counts: ``len``, prefix ``count`` and ``n``-adds."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import EventLog


def test_emit_and_len():
    log = EventLog()
    log.add("sgx.eenter")
    log.emit(1, "sgx.eexit", enclave="eudm")  # timestamp and detail dropped
    assert len(log) == 2
    assert log.count("sgx.eexit") == 1


def test_select_by_prefix():
    # A prefix picks every category under it; count() is the selection.
    log = EventLog()
    log.add("sgx.eenter")
    log.add("sgx.ocall")
    log.add("net.frame")
    assert log.count("sgx") == 2
    assert log.count("net") == 1


def test_select_prefix_is_dotted_not_substring():
    log = EventLog()
    log.add("sgxextra.thing")
    log.add("sgx.thing")
    assert log.count("sgx") == 1


def test_select_on_absent_prefix_is_empty_without_scan():
    log = EventLog()
    log.add("sgx.ocall", 100)
    assert log.count("attack") == 0
    assert log.count("sgx") == 100


def test_exact_category_match():
    log = EventLog()
    log.add("attack.escape")
    assert log.count("attack.escape") == 1


def test_count_is_cheap_and_exact_at_scale():
    log = EventLog()
    for i in range(1000):
        log.add(("sgx.ocall", "sgx.eenter", "net.frame")[i % 3])
    assert log.count("sgx") == 667
    assert log.count("sgx.ocall") == 334
    assert log.count("net") == 333


_CATEGORIES = ("sgx.ocall", "sgx.eenter", "net.frame", "sgx")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_CATEGORIES), st.integers(0, 300)), max_size=30))
def test_any_interleaving_of_emits_and_bursts_is_the_per_event_log(steps):
    # n == 0 stands for one emit; any other n is a burst of n events
    # booked with one add.  The reference books every event on its own.
    log, reference = EventLog(), EventLog()
    for category, n in steps:
        if n:
            log.add(category, n)
        else:
            log.emit(0, category, detail="dropped")
        for _ in range(n or 1):
            reference.add(category)
        assert len(log) == len(reference)
    assert len(log) == sum(n or 1 for _, n in steps)
    for prefix in _CATEGORIES + ("net", "attack"):
        assert log.count(prefix) == reference.count(prefix) == sum(
            n or 1 for category, n in steps
            if category == prefix or category.startswith(prefix + ".")
        )
