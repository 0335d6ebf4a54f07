"""Deterministic fault injection for the fleet service.

A *fault schedule* is a list of :class:`FaultSpec` rules compiled into
one callable (:class:`FaultSchedule`) that plugs into the ``fault_hook``
seams threaded through the service stack:

* :class:`~repro.service.client.ServiceClient` calls the hook once per
  request attempt with the op name (``"POST /lease"``); the returned
  verb simulates the network fault — ``drop-request`` (request lost
  before the server saw it), ``drop-response`` (server processed it,
  answer lost — the ambiguous case idempotency exists for), or
  ``duplicate`` (request delivered twice).
* :class:`~repro.service.broker.FleetBroker` calls it at named internal
  points (``"broker.ack"`` — after the journal append, before the HTTP
  ack); the ``crash`` action raises :class:`SimulatedCrash` there,
  modelling a server death in the exact window durability must cover.
* A worker loop is killed by the ``kill`` action, which raises
  :class:`WorkerKilled` out of whatever request the rule matches —
  e.g. ``FaultSpec(op="POST /lease", after=3, action="kill")`` is
  "kill the worker after three leases".
* ``delay`` sleeps ``delay_s`` before the attempt proceeds.

Two misbehaving HTTP clients play what the seams cannot, over a raw
socket against a live server: :func:`oversized_body` declares a body
past the server's cap, :func:`slow_client` stalls halfway through
one.  Both return whatever the server answered before it hung up.

Every rule fires by *count*, never by chance: ``after`` skips the
first N matching calls, ``times`` arms it for the next M (0 = forever).
Given the same components and schedule, the same calls fire the same
faults — chaos runs are replayable, which is what lets the suite
assert byte-identical records under every schedule.  The ``seed``
only feeds the data-corruption helpers (:func:`seeded_bytes`,
:func:`corrupt_cache_entry`); no global RNG state is touched.

The schedule is thread-safe (workers hit it concurrently) and counts
every decision in ``fired`` for post-hoc assertions.
"""

from __future__ import annotations

import hashlib
import socket
import time
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from threading import Lock
from typing import Optional, Sequence, Union
from urllib.parse import urlsplit

__all__ = [
    "ACTIONS",
    "FaultInjected",
    "FaultSchedule",
    "FaultSpec",
    "SimulatedCrash",
    "WorkerKilled",
    "corrupt_cache_entry",
    "oversized_body",
    "seeded_bytes",
    "slow_client",
]

#: Verbs the client seam interprets directly.
CLIENT_VERBS = ("drop-request", "drop-response", "duplicate")
#: Every recognised action.
ACTIONS = CLIENT_VERBS + ("delay", "kill", "crash")


class FaultInjected(Exception):
    """Base of every exception the harness raises on purpose."""


class WorkerKilled(FaultInjected):
    """The schedule killed a worker mid-session (``kill`` action)."""


class SimulatedCrash(FaultInjected):
    """The schedule crashed the server at an internal point
    (``crash`` action) — state already journaled, ack never sent."""


@dataclass(frozen=True)
class FaultSpec:
    """One rule: *when* (op pattern + counters) and *what* (action).

    ``op`` is an :func:`fnmatch.fnmatchcase` pattern against the hook's
    op name — ``"POST /lease"`` matches exactly, ``"POST *"`` matches
    every POST, ``"broker.*"`` the broker's internal points.  The rule
    skips its first ``after`` matches, then fires ``times`` times
    (``times=0`` = every time from there on).
    """

    op: str
    action: str
    after: int = 0
    times: int = 1
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; "
                f"expected one of {ACTIONS}")
        if self.after < 0 or self.times < 0:
            raise ValueError("after/times must be non-negative")
        if self.delay_s < 0:
            raise ValueError("delay_s must be non-negative")


class FaultSchedule:
    """A compiled schedule: callable as every ``fault_hook`` seam.

    Rules are consulted in order; the first *armed* match decides the
    call (one call, one fault — deterministic layering).  The same
    instance can back the server's broker hook and any number of
    client hooks at once.
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), *,
                 seed: int = 0,
                 sleep=time.sleep) -> None:
        self.specs = list(specs)
        self.seed = seed
        self._sleep = sleep
        self._lock = Lock()
        self._matches = [0] * len(self.specs)
        #: every fault that fired, as ``(op, action)`` in call order.
        self.fired: list[tuple[str, str]] = []

    @classmethod
    def parse(cls, rules: Sequence[Union[FaultSpec, dict]], *,
              seed: int = 0) -> "FaultSchedule":
        """Build a schedule from specs or plain dicts (JSON-friendly,
        so CI jobs and docs can write schedules as literals)."""
        specs = [rule if isinstance(rule, FaultSpec)
                 else FaultSpec(**rule) for rule in rules]
        return cls(specs, seed=seed)

    def _decide(self, op: str) -> Optional[FaultSpec]:
        with self._lock:
            for index, spec in enumerate(self.specs):
                if not fnmatchcase(op, spec.op):
                    continue
                count = self._matches[index]
                self._matches[index] = count + 1
                if count < spec.after:
                    continue
                if spec.times and count >= spec.after + spec.times:
                    continue
                self.fired.append((op, spec.action))
                return spec
            return None

    def __call__(self, op: str) -> Optional[str]:
        spec = self._decide(op)
        if spec is None:
            return None
        if spec.action == "delay":
            if spec.delay_s > 0:
                self._sleep(spec.delay_s)   # outside the lock
            return None
        if spec.action == "kill":
            raise WorkerKilled(f"fault schedule killed worker at {op}")
        if spec.action == "crash":
            raise SimulatedCrash(f"fault schedule crashed server "
                                 f"at {op}")
        return spec.action                  # a client verb

    def fired_actions(self, action: str) -> int:
        """How many times ``action`` fired so far."""
        with self._lock:
            return sum(1 for _, fired in self.fired if fired == action)


def seeded_bytes(seed: int, length: int, *, label: str = "") -> bytes:
    """``length`` deterministic garbage bytes from ``(seed, label)``.

    A BLAKE2b output stream — no RNG state, same bytes every run, so
    a "corruption" fault is as replayable as everything else.
    """
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += hashlib.blake2b(
            f"{seed}:{label}:{counter}".encode()).digest()
        counter += 1
    return bytes(out[:length])


def corrupt_cache_entry(cache_dir: Union[str, Path], key: str, *,
                        seed: int = 0) -> Path:
    """Deterministically corrupt one shared-cache object in place.

    Overwrites the entry for ``key`` with seeded garbage of the same
    length, modelling on-disk rot.  The cache's payload-digest check
    must then treat the entry as a miss (and recompute) rather than
    serve bad bytes — the chaos suite asserts exactly that.
    """
    # Deferred import: keep this module importable on bare worker
    # hosts that never install the fleet layer.
    from ..fleet.cache import ResultCache

    path = ResultCache(Path(cache_dir)).path_for(key)
    if not path.exists():
        raise FileNotFoundError(f"no cache object for {key!r} "
                                f"at {path}")
    size = max(1, path.stat().st_size)
    path.write_bytes(seeded_bytes(seed, size, label=key))
    return path


def oversized_body(url: str, path: str, *, limit: int,
                   timeout_s: float = 10.0) -> bytes:
    """The oversized-body fault: POST ``path`` declaring a body one
    byte past ``limit`` (the server's cap) and send none of it.
    Returns what the server answered before it hung up — a 413, and
    a closed connection, since the body was never read."""
    return _raw_post(url, path, declared=limit + 1, body=b"",
                     timeout_s=timeout_s)


def slow_client(url: str, path: str, *, timeout_s: float = 10.0) -> bytes:
    """The slow-client fault: POST ``path`` with half of the body its
    ``Content-Length`` declares, then stall.  Returns what the server
    answered before it hung up — nothing, once its handler timeout
    gave the connection's thread back.  Raises :class:`TimeoutError`
    when the server is still waiting after ``timeout_s``."""
    body = b'{"results": []}'
    return _raw_post(url, path, declared=len(body),
                     body=body[:len(body) // 2], timeout_s=timeout_s)


def _raw_post(url: str, path: str, *, declared: int, body: bytes,
              timeout_s: float) -> bytes:
    """Send a POST head declaring ``declared`` body bytes, then
    ``body``; read until the server closes the connection."""
    parts = urlsplit(url)
    host = parts.hostname or "127.0.0.1"
    with socket.create_connection((host, parts.port or 80),
                                  timeout=timeout_s) as conn:
        conn.sendall(f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
                     f"Content-Type: application/json\r\n"
                     f"Content-Length: {declared}\r\n\r\n".encode()
                     + body)
        answer = b""
        while chunk := conn.recv(65536):
            answer += chunk
        return answer
