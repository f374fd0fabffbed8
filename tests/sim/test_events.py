"""Event log filtering, capacity behaviour and burst exactness."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import Event, EventLog


def test_events_are_hashable_and_usable_in_sets():
    # __eq__ without __hash__ would set __hash__ to None; events must
    # stay usable as set members and dict keys.
    a = Event(1, "sgx.ocall", {"syscall": "read"})
    b = Event(1, "sgx.ocall", {"syscall": "read"})
    c = Event(2, "sgx.ocall", {"syscall": "read"})
    assert a == b and hash(a) == hash(b)
    assert len({a, b, c}) == 2
    index = {a: "first"}
    assert index[b] == "first"  # equal event addresses the same slot
    assert c not in index


def test_unequal_detail_events_still_collide_safely():
    # detail is excluded from the hash (dicts are unhashable); events
    # differing only in detail are unequal but land in the same bucket.
    a = Event(1, "net.frame", {"nbytes": 1})
    b = Event(1, "net.frame", {"nbytes": 2})
    assert a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 2


def test_emit_and_len():
    log = EventLog()
    log.emit(0, "sgx.eenter")
    log.emit(1, "sgx.eexit")
    assert len(log) == 2


def test_detail_is_preserved():
    log = EventLog()
    event = log.emit(5, "net.frame", src="udm", nbytes=128)
    assert event.detail == {"src": "udm", "nbytes": 128}
    assert event.timestamp_ns == 5


def test_select_by_prefix():
    log = EventLog()
    log.emit(0, "sgx.eenter")
    log.emit(0, "sgx.ocall")
    log.emit(0, "net.frame")
    assert len(log.select("sgx")) == 2
    assert log.count("net") == 1


def test_select_prefix_is_dotted_not_substring():
    log = EventLog()
    log.emit(0, "sgxextra.thing")
    log.emit(0, "sgx.thing")
    assert log.count("sgx") == 1


def test_exact_category_match():
    log = EventLog()
    log.emit(0, "attack.escape")
    assert log.count("attack.escape") == 1


def test_capacity_drops_oldest():
    log = EventLog(capacity=10)
    for i in range(25):
        log.emit(i, "tick", i=i)
    assert len(log) <= 10
    # The newest events survive.
    assert list(log)[-1].detail["i"] == 24


def test_clear():
    log = EventLog()
    log.emit(0, "x")
    log.clear()
    assert len(log) == 0
    # The count index resets with the events.
    assert log.count("x") == 0


def test_count_index_tracks_capacity_trim():
    log = EventLog(capacity=10)
    for i in range(25):
        log.emit(i, "tick.even" if i % 2 == 0 else "tick.odd", i=i)
    # count/select agree with a full scan of what survived the trims.
    surviving = list(log)
    assert log.count("tick") == len(surviving)
    assert log.count("tick.even") == sum(
        1 for e in surviving if e.category == "tick.even"
    )
    assert log.select("tick.odd") == [
        e for e in surviving if e.category == "tick.odd"
    ]


def test_select_on_absent_prefix_is_empty_without_scan():
    log = EventLog()
    for i in range(100):
        log.emit(i, "sgx.ocall")
    assert log.select("attack") == []
    assert log.count("attack") == 0


def test_count_is_cheap_and_exact_at_scale():
    log = EventLog()
    for i in range(1000):
        log.emit(i, ("sgx.ocall", "sgx.eenter", "net.frame")[i % 3])
    assert log.count("sgx") == 667
    assert log.count("sgx.ocall") == 334
    assert log.count("net") == 333


def test_events_iterate_in_emission_order():
    log = EventLog(capacity=6)
    for i in range(9):
        log.emit(i, "tick", i=i)
    timestamps = [e.timestamp_ns for e in log]
    assert timestamps == sorted(timestamps)
    assert timestamps[-1] == 8


# --- emit_burst ≡ the per-event loop, at every capacity (hypothesis) ------


class _PerEventLog:
    """The literal semantics: a list, one append per event, and after an
    append that overflows ``capacity`` the oldest half is dropped."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.events = []

    def emit(self, timestamp_ns, category, detail):
        self.events.append(Event(timestamp_ns, category, detail))
        if self.capacity is not None and len(self.events) > self.capacity:
            del self.events[: len(self.events) // 2]

    def select(self, prefix):
        return [
            e for e in self.events
            if e.category == prefix or e.category.startswith(prefix + ".")
        ]


_CATEGORIES = ("sgx.ocall", "sgx.eenter", "net.frame", "sgx")
_PREFIXES = _CATEGORIES + ("net", "attack")
_DETAILS = [{"syscall": name} for name in ("read", "futex", "sendmsg")]

_single = st.tuples(
    st.sampled_from(("emit", "emit_shared")),
    st.sampled_from(_CATEGORIES),
    st.sampled_from(_DETAILS),
)
_burst = st.tuples(
    st.just("emit_burst"),
    st.sampled_from(_CATEGORIES),
    # Detail index and gap to the previous end, per event; may be empty.
    st.lists(
        st.tuples(st.integers(0, len(_DETAILS) - 1), st.integers(0, 50)),
        max_size=12,
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.sampled_from((None, 2, 3, 7, 64)),
    steps=st.lists(st.one_of(_single, _burst), max_size=40),
)
def test_any_interleaving_of_emits_and_bursts_is_the_per_event_log(capacity, steps):
    # Small capacities put trims before, inside and after bursts; the log
    # must equal the per-event reference after every step, and reading it
    # must not change it.
    log, reference = EventLog(capacity=capacity), _PerEventLog(capacity)
    now_ns = 0
    for kind, category, payload in steps:
        now_ns += 100
        if kind == "emit":
            log.emit(now_ns, category, **payload)
            reference.emit(now_ns, category, dict(payload))
        elif kind == "emit_shared":
            assert log.emit_shared(now_ns, category, payload).detail is payload
            reference.emit(now_ns, category, payload)
        else:
            details = [_DETAILS[index] for index, _ in payload]
            ends = list(itertools.accumulate(gap for _, gap in payload))
            log.emit_burst(category, details, now_ns, ends)
            for detail, end in zip(details, ends):
                reference.emit(now_ns + end, category, detail)
            assert ends == list(itertools.accumulate(gap for _, gap in payload))
        first_read = list(log)
        assert first_read == reference.events
        assert list(log) == first_read
        assert len(log) == len(reference.events)
        for prefix in _PREFIXES:
            assert log.select(prefix) == reference.select(prefix)
            assert log.count(prefix) == len(reference.select(prefix))
    log.clear()
    assert (len(log), list(log), log.count("sgx")) == (0, [], 0)


def test_a_trim_advances_a_burst_part_way_and_the_next_pops_it():
    # The half-drop rule never leaves more of a head burst than the next
    # trim takes, so "part-way, then whole" is the longest life it has.
    log, reference = EventLog(capacity=8), _PerEventLog(8)
    detail = {"syscall": "read"}
    log.emit_burst("sgx.ocall", [detail] * 8, 0, list(range(8)))
    for t in range(8):
        reference.emit(t, "sgx.ocall", detail)
    burst = log._entries[0]
    seen = []
    for t in range(10, 16):
        log.emit(t, "tick")
        reference.emit(t, "tick", {})
        assert list(log) == reference.events
        seen.append((log.count("sgx.ocall"), log._entries[0] is burst, burst.start))
    assert seen[0] == (4, True, 4) and seen[3] == (4, True, 4)
    assert seen[4] == (0, False, 4)


def test_burst_events_share_the_callers_detail_dicts():
    log = EventLog()
    details = [{"syscall": "read"}, {"syscall": "futex"}]
    log.emit_burst("sgx.ocall", details, 5, [1, 2])
    assert [e.detail for e in log] == details
    assert all(e.detail is d for e, d in zip(log.select("sgx"), details))
