"""Deterministic simulation kernel.

Every latency reported by this reproduction is *simulated* time accumulated
on a :class:`~repro.sim.clock.SimClock`, never wall-clock time.  The kernel
provides three services shared across all substrates:

* :class:`~repro.sim.clock.SimClock` — a monotonically advancing nanosecond
  counter with scoped measurement helpers,
* :class:`~repro.sim.rng.RngService` — seeded, namespaced random streams so
  that each subsystem draws from an independent deterministic stream,
* :class:`~repro.sim.events.EventLog` — a structured trace of simulation
  events used by the experiment harness and by tests.
"""
