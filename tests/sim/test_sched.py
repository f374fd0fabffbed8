"""EventScheduler ordering and idle cost."""

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
