"""Tests for the shared retry policy: backoff math, deterministic
jitter, error classification, attempt limits, and Retry-After
overrides.
Schedules must be pure functions of ``(policy, key, attempt)`` — no
RNG, no wall clock — so every assertion here is exact."""

import pytest

from repro.service.retry import (
    JITTER,
    RetryExhausted,
    RetryPolicy,
    call_with_retry,
    deterministic_jitter,
)


# ---------------------------------------------------------------------------
# Jitter
# ---------------------------------------------------------------------------

def test_jitter_is_a_stable_fraction():
    values = [deterministic_jitter("worker-1", attempt)
              for attempt in range(32)]
    assert all(0.0 <= value < 1.0 for value in values)
    # Replayable: the same (key, attempt) always gives the same value.
    assert values == [deterministic_jitter("worker-1", attempt)
                      for attempt in range(32)]


def test_jitter_spreads_different_keys():
    # Different workers must not back off in lockstep after a restart.
    spread = {deterministic_jitter(f"worker-{i}", 0)
              for i in range(16)}
    assert len(spread) == 16


# ---------------------------------------------------------------------------
# Policy math
# ---------------------------------------------------------------------------

def test_policy_delay_grows_exponentially_and_caps():
    policy = RetryPolicy(base_delay_s=1.0, max_delay_s=5.0)
    delays = [policy.delay_s(attempt) for attempt in range(5)]
    # 1, 2, 4 s, each spread by the jitter fraction ...
    for attempt, delay in enumerate(delays[:3]):
        assert (1 - JITTER) * 2 ** attempt <= delay \
            <= (1 + JITTER) * 2 ** attempt
    # ... then the 5 s cap, which the spread never crosses.
    assert all((1 - JITTER) * 5.0 <= delay <= 5.0 for delay in delays[3:])


def test_policy_jitter_stays_within_the_fraction():
    policy = RetryPolicy(base_delay_s=1.0, max_delay_s=1e9)
    for attempt in range(16):
        delay = policy.delay_s(attempt, key="k")
        assert (1 - JITTER) * 2 ** attempt <= delay \
            <= (1 + JITTER) * 2 ** attempt


def test_retry_after_hint_only_raises_the_delay():
    policy = RetryPolicy(base_delay_s=1.0)
    # A server asking for more patience wins ...
    assert policy.delay_s(0, retry_after_s=7.5) == 7.5
    # ... but a hint below the computed backoff changes nothing.
    assert policy.delay_s(0, retry_after_s=0.1) == policy.delay_s(0)


def test_policy_none_tries_exactly_once():
    assert RetryPolicy.none().max_attempts == 1


def test_policy_validates_its_fields():
    with pytest.raises(ValueError, match="max_attempts"):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError, match="non-negative"):
        RetryPolicy(base_delay_s=-1.0)


# ---------------------------------------------------------------------------
# call_with_retry
# ---------------------------------------------------------------------------

class Flaky:
    """Fails ``failures`` times, then returns ``value``."""

    def __init__(self, failures, exc=ConnectionError("down"),
                 value="ok"):
        self.failures = failures
        self.exc = exc
        self.value = value
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc
        return self.value


def _retry_all(exc):
    return 0.0


def test_retries_until_success_and_sleeps_the_schedule():
    slept = []
    fn = Flaky(failures=2)
    policy = RetryPolicy(max_attempts=5, base_delay_s=1.0)
    result = call_with_retry(fn, policy=policy, classify=_retry_all,
                             sleep=slept.append)
    assert result == "ok" and fn.calls == 3
    assert slept == [policy.delay_s(0), policy.delay_s(1)]


def test_exhaustion_raises_with_the_last_error_attached():
    fn = Flaky(failures=99)
    policy = RetryPolicy(max_attempts=3, base_delay_s=0.0)
    with pytest.raises(RetryExhausted) as exc_info:
        call_with_retry(fn, policy=policy, classify=_retry_all,
                        key="POST /lease", sleep=lambda s: None)
    assert fn.calls == 3
    assert exc_info.value.attempts == 3
    assert exc_info.value.last is fn.exc
    assert "POST /lease" in str(exc_info.value)


def test_non_retryable_errors_propagate_unwrapped():
    fn = Flaky(failures=99, exc=KeyError("fatal"))
    policy = RetryPolicy(max_attempts=5, base_delay_s=0.0)
    with pytest.raises(KeyError):
        call_with_retry(fn, policy=policy,
                        classify=lambda exc: None,
                        sleep=lambda s: None)
    assert fn.calls == 1   # gave up immediately


def test_classifier_retry_after_overrides_the_sleep():
    slept = []
    fn = Flaky(failures=1)
    policy = RetryPolicy(max_attempts=3, base_delay_s=0.1)
    call_with_retry(fn, policy=policy, classify=lambda exc: 4.0,
                    sleep=slept.append)
    assert slept == [4.0]


def test_schedules_replay_bit_identically():
    policy = RetryPolicy(max_attempts=6, base_delay_s=0.2)

    def schedule():
        slept = []
        fn = Flaky(failures=99)
        with pytest.raises(RetryExhausted):
            call_with_retry(fn, policy=policy, classify=_retry_all,
                            key="GET /healthz", sleep=slept.append)
        return slept

    assert schedule() == schedule()
