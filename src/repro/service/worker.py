"""``python -m repro worker``: a remote executor process.

The worker is a small pull loop against one ``repro serve`` instance:
lease a build-key group (every pending run of a fleet that shares one
compiled world, in one round trip; packed, each base spec once, and
rebuilt with :func:`~repro.fleet.sweep.unpack_runs`, which checks every
run against its ``spec_key`` — a group that fails the check is reported
failed, run by run, and not evaluated), evaluate it through one
:class:`~repro.fleet.executors.BatchExecutor` ``map`` — so the runs
share the compiled world and its per-group block cache, and the
executor is kept for the whole session — post the records back,
repeat.  Results go back in batches: a group's first record alone (so
the first result a client waits for is not held back), then the rest
in one ``POST /results`` when the group ends, when a run fails, or
once half the lease TTL has passed since the last post (each post
renews the group's leases).  All requests ride one kept-alive
connection.  An idle lease request long-polls: the server holds it
until work arrives or ``poll_s`` passes, so there is no sleep between
requests.  Determinism needs no help here — a
:class:`~repro.fleet.sweep.RunRecord` is a pure function of
``(spec, seed, density)``, so *which* worker evaluates a run never
shows in the record.

Failure handling mirrors the broker's fault model: an evaluation
error is reported (the run re-queues immediately for another worker;
a worker whose whole group failed pauses before its next lease), and
a worker that dies silently just lets its leases expire: the runs
whose results were not acked yet return to the queue.  Every
request runs under the shared :class:`~repro.service.retry.RetryPolicy`
— transient connection errors, server restarts, and 429 backpressure
are absorbed by per-call backoff (idempotency makes blind retry safe),
so a worker outlives the server that feeds it.  A server that is
unreachable *at startup* raises :class:`ServiceUnavailable` after
``max_retries`` backed-off attempts — the CLI turns that into a clean
non-zero exit instead of a traceback.  The loop exits on its own when
the server stays down mid-session or — with ``max_idle_s`` — when the
queue stays empty long enough, so CI can run workers to completion
without process-management gymnastics.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Callable, Optional, Union

from ..fleet.compiled import COMPILED_DIR, CompiledScenarioCache
from ..fleet.executors import BatchExecutor
from ..fleet.sweep import unpack_runs
from .client import ServiceClient, ServiceError, ServiceUnavailable
from .contracts import LeaseGroup, ResultSubmission
from .retry import RetryPolicy

__all__ = ["run_worker"]

#: Consecutive exhausted-retry connection failures before a running
#: worker gives up (each one already spans ``max_retries`` attempts).
MAX_UNREACHABLE = 5

#: Most runs one lease may ask for; the broker further caps a grant
#: at the worker's fair share of the outstanding runs.
MAX_GROUP_RUNS = 256

#: Pause before asking again when the server is unreachable or
#: draining, or a leased group landed no result (all answer at once,
#: so the loop must not spin).
RETRY_PAUSE_S = 0.5


def run_worker(server: str, *, worker_id: str = "",
               poll_s: float = 5.0,
               max_idle_s: Optional[float] = None,
               max_runs: Optional[int] = None,
               max_retries: int = 5,
               retry: Optional[RetryPolicy] = None,
               cache_dir: Optional[Union[str, Path]] = None,
               log: Optional[Callable[[str], None]] = None,
               sleep: Callable[[float], None] = time.sleep,
               fault_hook: Optional[
                   Callable[[str], Optional[str]]] = None) -> int:
    """Drain runs from ``server`` until told (or left) to stop.

    Returns the number of runs this worker completed.  ``poll_s`` is
    how long one idle lease request waits at the server for work (a
    long poll, capped server-side); ``max_idle_s`` bounds how long an
    empty queue is polled before exiting; ``max_runs`` caps the
    session (and each lease); ``cache_dir`` adds a local on-disk
    compiled-scenario tier so repeated builds survive worker restarts.
    ``max_retries`` sizes the default retry policy (override the whole
    policy with ``retry=``); ``sleep``/``fault_hook`` are the test
    seams for backoff and fault injection.

    Raises :class:`ServiceUnavailable` when the server cannot be
    reached at startup even after the full retry schedule.
    """
    worker_id = worker_id or f"worker-{os.getpid()}"
    say = log if log is not None else lambda message: None
    policy = retry if retry is not None else RetryPolicy(
        max_attempts=max(1, max_retries), base_delay_s=0.2,
        max_delay_s=2.0)
    client = ServiceClient(server, retry=policy, sleep=sleep,
                           fault_hook=fault_hook)
    # Startup probe: surface an unreachable (or nonsense) server as
    # one clean error after the retry schedule, not a traceback from
    # deep inside the first lease.
    try:
        client.health()
    except ServiceUnavailable as exc:
        raise ServiceUnavailable(
            f"server {server} unreachable after "
            f"{policy.max_attempts} attempt(s): {exc}") from None
    compiled = (CompiledScenarioCache(Path(cache_dir) / COMPILED_DIR)
                if cache_dir is not None else None)
    executor = BatchExecutor(compiled=compiled)
    completed = 0
    unreachable = 0
    idle_since: Optional[float] = None
    try:
        while True:
            if max_runs is not None and completed >= max_runs:
                say(f"{worker_id}: max-runs reached, exiting")
                break
            asked = time.monotonic()
            wait_s = poll_s
            if max_idle_s is not None:
                idle_s = 0.0 if idle_since is None else asked - idle_since
                wait_s = max(0.0, min(poll_s, max_idle_s - idle_s))
            try:
                group = client.lease_runs(
                    worker_id, wait_s=wait_s,
                    max_runs=(MAX_GROUP_RUNS if max_runs is None else
                              min(MAX_GROUP_RUNS, max_runs - completed)))
            except ServiceUnavailable:
                unreachable += 1
                if unreachable >= MAX_UNREACHABLE:
                    say(f"{worker_id}: server unreachable, exiting")
                    break
                sleep(RETRY_PAUSE_S)
                continue
            except ServiceError as exc:
                if exc.status == 429:
                    # Backpressure outlasted the retry budget: wait
                    # out the server's hint and keep going.
                    sleep(exc.retry_after_s)
                    continue
                say(f"{worker_id}: lease rejected ({exc}), exiting")
                break
            unreachable = 0
            if not group.grants:
                if idle_since is None:
                    idle_since = asked
                if (max_idle_s is not None
                        and time.monotonic() - idle_since >= max_idle_s):
                    say(f"{worker_id}: idle for {max_idle_s:g} s, "
                        f"exiting")
                    break
                if group.draining:
                    sleep(RETRY_PAUSE_S)
                continue
            idle_since = None
            posted, lost = _work_group(client, executor, group,
                                       worker_id, say)
            completed += posted
            if lost:
                say(f"{worker_id}: server lost mid-result, exiting")
                break
            if not posted:
                # Every run failed (or the group did not unpack), and
                # the broker re-queues failures at once: pause, or a
                # group that fails every time is leased in a hot loop.
                sleep(RETRY_PAUSE_S)
    finally:
        executor.close()
        client.close()
    return completed


def _work_group(client: ServiceClient, executor: BatchExecutor,
                group: LeaseGroup, worker_id: str,
                say: Callable[[str], None]) -> tuple[int, bool]:
    """Evaluate one leased group through one ``map`` and post the
    results: the first alone, the rest batched (see the module doc).
    A group whose runs do not rebuild to their ``spec_key`` is not
    evaluated: each run is posted back as failed.  Returns how many
    results landed and whether the server was lost (the unposted rest
    of the group then simply waits out its leases)."""
    grants = group.grants
    run_ids = {grant.lease_id: grant.run.get("run_id") for grant in grants}
    # Posting this often keeps the group's leases renewed; the first
    # deadline is one TTL after the grant.
    post_every_s = grants[0].ttl_s / 2.0
    last_post = time.monotonic()
    held: list[ResultSubmission] = []
    posted = 0

    def post() -> bool:
        """Post what is held; ``False`` when the server is lost."""
        nonlocal last_post, posted
        batch = held[:]
        held.clear()
        last_post = time.monotonic()
        try:
            acks = client.post_results(batch)
        except ServiceError as exc:
            say(f"{worker_id}: {len(batch)} result(s) rejected ({exc})")
            return True
        except ServiceUnavailable:
            return False
        for submission, ack in zip(batch, acks):
            run_id = run_ids[submission.lease_id]
            if isinstance(ack, ServiceError):
                say(f"{worker_id}: result for {run_id} rejected ({ack})")
            elif not submission.error:
                posted += 1
                state = ("ok" if ack.accepted
                         else "duplicate" if ack.duplicate else "dropped")
                say(f"{worker_id}: {run_id} done in "
                    f"{submission.wall_s:.2f} s ({state})")
        return True

    try:
        runs = unpack_runs(group.packed())
    except (KeyError, TypeError, ValueError) as exc:
        say(f"{worker_id}: leased group does not unpack: {exc}")
        held.extend(ResultSubmission(
            lease_id=grant.lease_id,
            error=f"{type(exc).__name__}: {exc}") for grant in grants)
        return posted, not post()
    outcomes = executor.map(runs)
    for index, (grant, run) in enumerate(zip(grants, runs)):
        try:
            outcome = next(outcomes)
        except Exception as exc:   # report, requeue, keep serving
            say(f"{worker_id}: {run.run_id} failed: {exc}")
            held.append(ResultSubmission(
                lease_id=grant.lease_id,
                error=f"{type(exc).__name__}: {exc}"))
            # The failed map is spent: evaluate the rest afresh.
            outcomes = executor.map(runs[index + 1:])
            failed = True
        else:
            held.append(ResultSubmission(
                lease_id=grant.lease_id, record=outcome.record.to_dict(),
                wall_s=outcome.wall_s))
            failed = False
        if (posted == 0 or failed
                or time.monotonic() - last_post >= post_every_s):
            if not post():
                return posted, True
    if held and not post():
        return posted, True
    return posted, False
