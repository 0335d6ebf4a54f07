"""Shared retry policy: exponential backoff with deterministic jitter.

Every component that talks across the network — the
:class:`~repro.service.client.ServiceClient`, the ``remote`` executor
backend, the worker loop — retries through one :class:`RetryPolicy`
instead of hand-rolled sleep loops.  The policy is pure data: given an
attempt number (and the caller's stable ``key``), the delay is a pure
function, so a retry schedule is reproducible run to run and in tests.

Design points:

* **Exponential backoff, capped.**  Attempt ``n`` waits
  ``base * 2**n`` (:data:`MULTIPLIER`), clamped to ``max_delay_s``.
* **Deterministic jitter.**  Real deployments need jitter so a fleet
  of workers does not reconnect in lockstep after a server restart;
  a reproducibility repo needs schedules that replay bit-identically.
  Both: the delay is spread by +/- :data:`JITTER` of itself, by a
  fraction derived from a BLAKE2b hash of ``(key, attempt)`` —
  different workers (different keys) spread out, the same worker
  replays the same schedule every time, and no global RNG state is
  touched (REP001 stays clean).
* **Server hints win.**  A 429/503 response carrying ``Retry-After``
  overrides the computed delay when it asks for *more* patience —
  backpressure is the server's call.
* **A bounded count.**  ``max_attempts`` bounds the tries; once they
  are spent the loop raises :class:`RetryExhausted` with the last
  error attached.

Idempotency is the other half of the contract and lives with the
callers: result submission is deduplicated by ``run_key`` content
identity and fleet submission by client-generated submission keys, so
retrying an *ambiguous* failure (request sent, response lost) is
always safe.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

__all__ = [
    "RetryPolicy",
    "RetryExhausted",
    "call_with_retry",
    "deterministic_jitter",
]

T = TypeVar("T")

#: What a classifier returns for a retryable error: the server's
#: Retry-After hint in seconds, or 0.0 when it gave none.  ``None``
#: means "not retryable" and the error propagates immediately.
Classifier = Callable[[BaseException], Optional[float]]

#: Growth factor of the backoff from one attempt to the next.
MULTIPLIER = 2.0

#: Spread of a delay around its exponential value, +/- this fraction.
JITTER = 0.25


def deterministic_jitter(key: str, attempt: int) -> float:
    """A stable jitter fraction in ``[0, 1)`` for ``(key, attempt)``.

    BLAKE2b of the pair, mapped to a fraction — no RNG state, no seam
    for wall-clock or process identity to leak into the schedule.
    """
    digest = hashlib.blake2b(f"{key}:{attempt}".encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


class RetryExhausted(Exception):
    """Every allowed attempt failed; the last error is the cause."""

    def __init__(self, attempts: int, key: str,
                 last: BaseException) -> None:
        super().__init__(
            f"{key or 'request'} failed after {attempts} attempt(s): "
            f"{type(last).__name__}: {last}")
        self.attempts = attempts
        self.last = last


@dataclass(frozen=True)
class RetryPolicy:
    """How one class of requests backs off and gives up.

    ``max_attempts=1`` means "try once, never retry" — the neutral
    policy a bare client defaults to.
    """

    max_attempts: int = 5
    base_delay_s: float = 0.2
    max_delay_s: float = 10.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")

    @classmethod
    def none(cls) -> "RetryPolicy":
        """Try exactly once; no backoff."""
        return cls(max_attempts=1)

    def delay_s(self, attempt: int, *, key: str = "",
                retry_after_s: float = 0.0) -> float:
        """Seconds to wait after failed attempt ``attempt`` (0-based).

        Exponential base delay, deterministic jitter spread around it,
        clamped to ``max_delay_s`` — then raised to the server's
        ``Retry-After`` hint when that asks for more.
        """
        base = min(self.base_delay_s * MULTIPLIER ** attempt,
                   self.max_delay_s)
        spread = 1.0 + JITTER * (
            2.0 * deterministic_jitter(key, attempt) - 1.0)
        return max(min(base * spread, self.max_delay_s),
                   float(retry_after_s))


def call_with_retry(fn: Callable[[], T], *,
                    policy: RetryPolicy,
                    classify: Classifier,
                    key: str = "",
                    sleep: Callable[[float], None] = time.sleep) -> T:
    """Run ``fn`` under ``policy``, retrying errors ``classify`` allows.

    ``classify(exc)`` returns the server's Retry-After hint in seconds
    (0.0 for "retryable, no hint") or ``None`` for "give up now" —
    non-retryable errors propagate unwrapped.  ``sleep`` is the test
    seam for the backoff.  Raises :class:`RetryExhausted` once the
    attempts run out; the last error is chained as the cause.
    """
    last: BaseException
    for attempt in range(policy.max_attempts):
        try:
            return fn()
        except BaseException as exc:
            retry_after = classify(exc)
            if retry_after is None:
                raise
            last = exc
            if attempt + 1 >= policy.max_attempts:
                break
            delay = policy.delay_s(attempt, key=key,
                                   retry_after_s=retry_after)
            if delay > 0:
                sleep(delay)
    raise RetryExhausted(policy.max_attempts, key, last) from last
