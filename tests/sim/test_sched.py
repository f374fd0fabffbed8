"""EventScheduler ordering, idle cost and EventLog bulk-append exactness."""

from repro.sim.events import Event, EventLog
from repro.sim.sched import EventScheduler


class TestEventScheduler:
    def test_fires_in_deadline_order(self):
        sched = EventScheduler()
        fired = []
        sched.schedule_at(30, lambda: fired.append("c"))
        sched.schedule_at(10, lambda: fired.append("a"))
        sched.schedule_at(20, lambda: fired.append("b"))
        assert sched.run_due(25) == 2
        assert fired == ["a", "b"]
        assert sched.run_due(25) == 0  # nothing re-fires
        assert sched.run_due(30) == 1  # deadline is inclusive
        assert fired == ["a", "b", "c"]
        assert not sched

    def test_equal_deadlines_fire_in_registration_order(self):
        sched = EventScheduler()
        fired = []
        for tag in ("first", "second", "third"):
            sched.schedule_at(100, lambda t=tag: fired.append(t))
        sched.run_due(100)
        assert fired == ["first", "second", "third"]

    def test_idle_run_due_is_a_noop(self):
        sched = EventScheduler()
        assert sched.run_due(10**18) == 0
        sched.schedule_at(50, lambda: None)
        assert sched.run_due(49) == 0
        assert len(sched) == 1
        assert sched.next_deadline_ns == 50

    def test_one_tick_can_cross_many_edges(self):
        sched = EventScheduler()
        counter = []
        for deadline in range(10):
            sched.schedule_at(deadline, lambda d=deadline: counter.append(d))
        assert sched.run_due(10**9) == 10
        assert counter == list(range(10))


class TestEventLogBulkAppend:
    """``emit_burst`` against the per-event loop it stands for."""

    @staticmethod
    def _is_one_burst(log, n):
        """The last ring entry alone stands for the last ``n`` events."""
        return not isinstance(log._entries[-1], Event) and (
            len(log._entries[-1].ends) == n
        )

    def test_unbounded_log_always_allows_bulk(self):
        log = EventLog()
        log.emit_burst("sgx.ocall", [{"n": t} for t in (1, 2, 3)], 100, [1, 2, 3])
        assert len(log._entries) == 1 and self._is_one_burst(log, 3)
        assert len(log) == 3
        assert log.count("sgx.ocall") == 3
        assert list(log) == [
            Event(100 + t, "sgx.ocall", {"n": t}) for t in (1, 2, 3)
        ]

    def test_bulk_matches_emit_shared_exactly(self):
        detail = {"enclave": "eudm", "syscall": "read"}
        bulk, scalar = EventLog(capacity=100), EventLog(capacity=100)
        bulk.emit_burst("sgx.ocall", [detail] * 5, 7, list(range(5)))
        for t in range(5):
            scalar.emit_shared(7 + t, "sgx.ocall", detail)
        assert list(bulk) == list(scalar)
        assert all(event.detail is detail for event in bulk)
        assert bulk.count("sgx.ocall") == scalar.count("sgx.ocall")

    def test_bounded_log_refuses_bulk_when_trim_could_fire(self):
        details = [{"syscall": "read"}] * 3
        fits, crosses, scalar = (EventLog(capacity=10) for _ in range(3))
        for log in (fits, crosses, scalar):
            for t in range(8):
                log.emit(t, "sgx.ocall")
        fits.emit_burst("sgx.ocall", details[:2], 8, [0, 1])
        assert self._is_one_burst(fits, 2)  # 8 + 2 == capacity: exact fit
        assert len(fits) == 10
        # 8 + 3 would cross the bound mid-burst: emitted event by event,
        # so the trim lands exactly where the per-event loop puts it.
        crosses.emit_burst("sgx.ocall", details, 8, [0, 1, 2])
        for t in range(3):
            scalar.emit_shared(8 + t, "sgx.ocall", details[t])
        assert all(isinstance(entry, Event) for entry in crosses._entries)
        assert list(crosses) == list(scalar) and len(crosses) == len(scalar) == 6

    def test_fallback_path_keeps_trim_bookkeeping(self):
        log = EventLog(capacity=10)
        log.emit(0, "warm")
        log.emit_burst("sgx.ocall", [{"syscall": "read"}] * 9, 0, list(range(1, 10)))
        assert self._is_one_burst(log, 9) and len(log) == 10
        log.emit(10, "warm")  # trims the oldest half: "warm" + 4 of the burst
        assert len(log) == 6
        assert log.count("sgx.ocall") == 5
        assert log.count("warm") == 1
        assert [event.timestamp_ns for event in log] == [5, 6, 7, 8, 9, 10]
