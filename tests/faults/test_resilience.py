"""Circuit breaker state machine and retry backoff determinism."""

from repro.faults.resilience import CircuitBreaker
from repro.net.http import RETRY_JITTER, backoff_us
from repro.sim.rng import RngService

US = 1_000  # ns per us


def test_breaker_opens_after_threshold():
    breaker = CircuitBreaker(name="amf->ausf", failure_threshold=3)
    now = 0
    for _ in range(2):
        breaker.record_failure(now)
        assert not breaker.open
        assert breaker.try_acquire(now)
    breaker.record_failure(now)
    assert breaker.open
    assert breaker.times_opened == 1
    assert not breaker.try_acquire(now)
    assert breaker.fast_failures == 1


def test_breaker_half_open_probe_closes_on_success():
    breaker = CircuitBreaker(failure_threshold=1, cooldown_us=1_000.0)
    breaker.record_failure(0)
    assert not breaker.try_acquire(500 * US)  # still cooling down
    assert breaker.try_acquire(1_000 * US)  # half-open: single probe allowed
    breaker.record_success()
    assert not breaker.open
    assert breaker.try_acquire(1_001 * US)


def test_breaker_failed_probe_reopens_and_counts():
    breaker = CircuitBreaker(failure_threshold=1, cooldown_us=1_000.0)
    breaker.record_failure(0)
    assert breaker.try_acquire(1_000 * US)
    breaker.record_failure(1_000 * US)
    assert breaker.open
    # A failed probe is a new transition into the open state: E-AVAIL
    # counts each fail-fast episode, not just the first.
    assert breaker.times_opened == 2
    assert not breaker.try_acquire(1_500 * US)  # cooldown restarted


def test_single_probe_at_cooldown_boundary():
    """Regression: a storm of queued callers arriving the instant the
    cooldown expires must not flood the dead peer — exactly one caller
    wins the half-open probe, the rest fail fast."""
    breaker = CircuitBreaker(failure_threshold=1, cooldown_us=1_000.0)
    breaker.record_failure(0)
    boundary = 1_000 * US
    admitted = [breaker.try_acquire(boundary) for _ in range(10)]
    assert admitted.count(True) == 1
    assert admitted[0] is True  # first caller holds the probe slot
    assert breaker.fast_failures == 9
    # While the probe is in flight even later callers are shed.
    assert not breaker.try_acquire(boundary + 500 * US)
    assert breaker.fast_failures == 10

    # Probe fails: re-open (counted), cooldown restarts, then the next
    # boundary again admits exactly one of the concurrent callers.
    breaker.record_failure(boundary)
    assert breaker.times_opened == 2
    next_boundary = boundary + 1_000 * US
    admitted = [breaker.try_acquire(next_boundary) for _ in range(4)]
    assert admitted.count(True) == 1
    # Probe succeeds: breaker closes and everyone is admitted again.
    breaker.record_success()
    assert all(breaker.try_acquire(next_boundary + 1) for _ in range(4))


def test_success_resets_failure_streak():
    breaker = CircuitBreaker(failure_threshold=3)
    breaker.record_failure(0)
    breaker.record_failure(0)
    breaker.record_success()
    breaker.record_failure(0)
    assert not breaker.open


def test_backoff_grows_exponentially_and_caps():
    """Before jitter: 50 ms, doubling per retry, capped at 1.6 s."""
    bases = [50_000.0, 100_000.0, 200_000.0, 400_000.0, 800_000.0, 1_600_000.0]
    bases.append(1_600_000.0)  # capped, not 3.2 s
    rng, twin = RngService(seed=5), RngService(seed=5)
    for retry_index, base in enumerate(bases, start=1):
        assert backoff_us(retry_index, rng, "retry.amf") == twin.jitter(
            "retry.amf", base, RETRY_JITTER
        )


def test_backoff_schedule_is_deterministic_per_seed():
    schedules = []
    for _ in range(2):
        rng = RngService(seed=77)
        schedules.append(
            [backoff_us(i, rng, "retry.amf") for i in (1, 2, 1, 2)]
        )
    assert schedules[0] == schedules[1]
    # A different seed jitters differently, around the same base.
    other = [
        backoff_us(i, RngService(seed=78), "retry.amf")
        for i in (1, 2, 1, 2)
    ]
    assert other != schedules[0]


def test_backoff_jitter_does_not_touch_other_streams():
    rng = RngService(seed=5)
    baseline = RngService(seed=5).stream("sgx.aex").random()
    backoff_us(1, rng, "retry.udm")
    assert rng.stream("sgx.aex").random() == baseline
