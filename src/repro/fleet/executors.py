"""Pluggable execution backends: the seam distributed fleets plug into.

The :class:`Executor` protocol is deliberately tiny — ``map`` many
:class:`~repro.fleet.sweep.RunSpec` values for an ordered stream of
:class:`RunOutcome` values, ``close`` when done — so any backend that
can move a JSON-sized payload can implement it: the three shipped here
(the serial oracle, the build-key-group ``batch`` executor, and the
HTTP ``remote`` backend), wrapped by a result cache if wanted
(:class:`~repro.fleet.cache.CachingExecutor`).

Two units of work cross a process boundary, both top-level and
picklable: :func:`execute_group` (one build-key group, what
``batch --jobs N`` ships to its pool) and :func:`execute_run` /
:func:`run_one` (one run from scratch, the serial oracle).  Nothing
heavyweight crosses: workers receive plain ``RunSpec`` dicts and
return plain outcome dicts, while the compiled world and raw dataset
stay in the process that built them.

Determinism contract: a record is a function of ``(spec, seed,
density)`` alone (the scenario compiler draws every stochastic value
from per-seed named streams), so every backend yields bit-identical
records in expansion order; :mod:`tests.test_fleet_executors` pins
this.  Execution metadata (wall time, cache provenance) rides on the
:class:`RunOutcome` envelope, never on the record itself.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import (
    Any,
    Callable,
    Iterator,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from ..core.evaluation import InfrastructureEvaluation
from ..scenarios.spec import ScenarioSpec
from .compiled import CompiledScenarioCache
from .sweep import RunRecord, RunSpec, pack_runs, run_key

__all__ = [
    "BACKENDS",
    "BatchExecutor",
    "Executor",
    "RemoteExecutor",
    "RunOutcome",
    "SerialExecutor",
    "execute_group",
    "execute_run",
    "make_executor",
    "run_one",
]


def run_one(spec_json: str, seed: int, density: float = 6.0, *,
            run_id: str = "",
            variant: Sequence[tuple[str, Any]] = ()) -> RunRecord:
    """Evaluate one scenario at one seed; return its summary record.

    Top-level and argument-pure so it pickles into worker processes:
    the spec travels as JSON, the result as plain values.  The record
    is stamped with the :func:`~repro.fleet.sweep.run_key` digest of
    its inputs (``spec_key``) — the content identity that resume and
    cross-fleet comparison verify against; the fallback ``run_id``
    embeds its prefix so two variants that share a scenario name and
    seed (differing only in overrides) never collide.
    """
    spec = ScenarioSpec.from_json(spec_json)
    spec_key = run_key(spec, seed, density)
    if not run_id:
        run_id = f"{spec.name}-s{seed}-{spec_key[:8]}"
    result = InfrastructureEvaluation(
        seed=seed, mean_positions_per_cell=density, scenario=spec).run()
    return RunRecord(
        run_id=run_id,
        scenario=spec.name,
        seed=seed,
        density=density,
        variant=tuple(variant),
        summary=result.summary(),
        spec_key=spec_key,
    )


@dataclass(frozen=True)
class RunOutcome:
    """One finished run plus execution metadata.

    ``wall_s`` and ``cached`` describe *this* execution, so they live
    here on the envelope — the :class:`RunRecord` stays a pure function
    of ``(spec, seed, density)`` and compares bit-identical across
    backends, reruns, and cache hits.
    """

    record: RunRecord
    wall_s: float
    cached: bool = False


def execute_run(run_dict: Mapping[str, Any]) -> dict[str, Any]:
    """Serial entry point: RunSpec dict in, timed outcome dict out."""
    run = RunSpec.from_dict(run_dict)
    started = time.perf_counter()
    record = run_one(run.scenario.to_json(indent=0), run.seed,
                     run.density, run_id=run.run_id, variant=run.variant)
    return {"record": record.to_dict(),
            "wall_s": time.perf_counter() - started}


def _outcome(payload: Mapping[str, Any]) -> RunOutcome:
    return RunOutcome(record=RunRecord.from_dict(payload["record"]),
                      wall_s=payload["wall_s"],
                      cached=bool(payload.get("cached", False)))


def _evaluate_group(runs: Sequence[RunSpec], key: str,
                    compiled: CompiledScenarioCache) -> Iterator[RunOutcome]:
    """One build-key group through ``compiled``, outcomes in order.

    Members share one per-group block cache of per-cell draw tapes,
    so each cell is drawn once per distinct draw consumption, not once
    per run.  Each looks its world up
    separately so the cache counters tell the true story (1 build +
    N-1 reuses for an N-run group); all but the first are in-memory
    hits.
    """
    block_cache: dict[Any, Any] = {}
    for run in runs:
        world = compiled.get(run.scenario, run.seed, run.density, key=key)
        started = time.perf_counter()
        summary = world.evaluate(run.scenario, block_cache=block_cache,
                                 check_key=False)
        record = RunRecord(
            run_id=run.run_id,
            scenario=run.scenario.name,
            seed=run.seed,
            density=run.density,
            variant=run.variant,
            summary=summary,
            spec_key=run.spec_key(),
        )
        yield RunOutcome(record=record,
                         wall_s=time.perf_counter() - started)


def execute_group(run_dicts: Sequence[Mapping[str, Any]], key: str,
                  compiled_dir: Optional[str]) -> dict[str, Any]:
    """Pool entry point: one build-key group in, its outcome dicts out.

    The group's world is compiled once in this process (or loaded from
    the ``compiled_dir`` disk tier), and that cache's counters travel
    back with the outcomes, so the caller's build statistics count
    pool builds too.
    """
    compiled = CompiledScenarioCache(compiled_dir)
    runs = [RunSpec.from_dict(run_dict) for run_dict in run_dicts]
    outcomes = [{"record": outcome.record.to_dict(),
                 "wall_s": outcome.wall_s}
                for outcome in _evaluate_group(runs, key, compiled)]
    return {"outcomes": outcomes, "stats": asdict(compiled.stats)}


@runtime_checkable
class Executor(Protocol):
    """What :func:`~repro.fleet.runner.run_sweep` needs from a backend.

    ``map`` must yield outcomes in the order the runs were given —
    callers rely on expansion order for progress, persistence, and
    bit-identical record lists across backends.
    """

    name: str

    def map(self, runs: Sequence[RunSpec]) -> Iterator[RunOutcome]:
        """Execute every run, yielding outcomes in input order."""
        ...

    def close(self, *, cancel: bool = False) -> None:
        """Release workers; ``cancel`` drops runs not yet started."""
        ...


class SerialExecutor:
    """In-process, one run at a time, each built from scratch — the
    oracle every other backend's records must equal byte for byte."""

    name = "serial"

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = 1  # serial by definition; ``jobs`` accepted for symmetry

    def map(self, runs: Sequence[RunSpec]) -> Iterator[RunOutcome]:
        for run in runs:
            yield _outcome(execute_run(run.to_dict()))

    def close(self, *, cancel: bool = False) -> None:
        pass

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class BatchExecutor:
    """Build-key-group execution through the compiled-scenario cache.

    The default backend: runs are grouped by
    :meth:`~repro.fleet.sweep.RunSpec.build_key`, each group compiles
    its world once (or pulls it from the cache), and every member
    replays only the sampling phase — sharing each cell's random draws
    (its draw tape) through one per-group block cache.  A campaign-only
    sweep of any width performs exactly one build.

    With ``jobs > 1`` and at least two groups, every group but the
    first goes whole to a pool of ``jobs - 1`` processes
    (:func:`execute_group`), and this process is the ``jobs``-th
    worker: it evaluates the first group, streaming its outcomes, then
    walks the later groups in order and evaluates each one no pool
    process has started yet (its task still cancels).  With ``jobs ==
    1`` or a single group no pool is created.  Either way ``map``
    yields outcomes in input order, buffered until their turn, and
    records are bit-identical to :class:`SerialExecutor` output.

    The compiled cache may be shared — it is internally synchronized
    (see :class:`~repro.fleet.compiled.CompiledScenarioCache`), which
    is how the fleet service points many broker threads and the GC
    chore at one instance.  Pool processes compile through their own
    cache over the same disk tier and report its counters back here.
    """

    name = "batch"

    def __init__(self, jobs: int = 1, *,
                 compiled: Optional[CompiledScenarioCache] = None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.compiled = compiled if compiled is not None \
            else CompiledScenarioCache()
        self._pool: Optional[ProcessPoolExecutor] = None

    def _dispatch(self, runs: Sequence[RunSpec], order: Sequence[str],
                  members: Mapping[str, Sequence[int]],
                  ) -> dict[str, "Future[dict[str, Any]]"]:
        """Submit every group but the first to the pool, by key."""
        if self.jobs == 1 or len(order) < 2:
            return {}
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs - 1)
        directory = self.compiled.directory
        compiled_dir = None if directory is None else str(directory)
        return {key: self._pool.submit(
                    execute_group,
                    [runs[index].to_dict() for index in members[key]],
                    key, compiled_dir)
                for key in order[1:]}

    def map(self, runs: Sequence[RunSpec]) -> Iterator[RunOutcome]:
        runs = list(runs)
        # Group in first-encounter order; seeds iterate innermost in
        # sweep expansion, so groups interleave and outcomes must be
        # buffered to preserve input order.
        keys = [run.build_key() for run in runs]
        order: list[str] = []
        members: dict[str, list[int]] = {}
        for index, key in enumerate(keys):
            if key not in members:
                members[key] = []
                order.append(key)
            members[key].append(index)
        futures = self._dispatch(runs, order, members)
        pending: dict[int, RunOutcome] = {}
        next_index = 0

        def ready(*, block: bool) -> Iterator[RunOutcome]:
            # The done prefix, taking in the pool group that holds the
            # next index once it has finished (or, with ``block``,
            # waiting for it).
            nonlocal next_index
            while next_index < len(runs):
                if next_index in pending:
                    yield pending.pop(next_index)
                    next_index += 1
                    continue
                key = keys[next_index]
                future = futures.get(key)
                if future is None or not (block or future.done()):
                    return
                del futures[key]
                payload = future.result()
                self.compiled.add_stats(payload["stats"])
                for index, outcome in zip(members[key],
                                          payload["outcomes"]):
                    pending[index] = _outcome(outcome)

        dispatched = set(futures)
        for key in order:
            if key in dispatched:
                future = futures.get(key)
                if future is None or not future.cancel():
                    continue  # a pool process has run or started it
                del futures[key]
            group = [runs[index] for index in members[key]]
            for index, outcome in zip(members[key], _evaluate_group(
                    group, key, self.compiled)):
                pending[index] = outcome
                yield from ready(block=False)
        yield from ready(block=True)

    def close(self, *, cancel: bool = False) -> None:
        # Stop the pool and drop the live compiled worlds; the disk
        # tier (if any) stays.
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=cancel)
            self._pool = None
        self.compiled.clear()

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: Seconds one long poll of a fleet's records may wait at the server.
REMOTE_WAIT_S = 10.0

#: Socket timeout of one request to the server, on top of its long poll.
REMOTE_TIMEOUT_S = 60.0

#: The remote backend's :class:`~repro.service.retry.RetryPolicy`
#: fields: eight tries, about 16 s of backoff, ride out a server restart.
REMOTE_RETRY: dict[str, Any] = {
    "max_attempts": 8, "base_delay_s": 0.2, "max_delay_s": 5.0}


class RemoteExecutor:
    """Ship runs to a ``repro serve`` fleet service over HTTP.

    The distributed backend: ``map`` submits the expanded runs as one
    fleet (``POST /fleets`` with a compact run list: each base spec
    once plus per-run overrides, see
    :func:`~repro.fleet.sweep.pack_runs`), remote ``repro worker``
    processes lease and evaluate them a build-key group at a time,
    and outcomes stream back — in input order — through long polls of
    the fleet's record endpoint, each answered as soon as the next
    run in order is done (or after :data:`REMOTE_WAIT_S`).  Worker
    loss is invisible here: the broker re-queues expired leases and
    deduplicates results by content identity, so this side only ever
    sees each run finish once.  Records are bit-identical to local
    backends (the worker runs the same compiled/batch path), and the
    server's shared cache means a run any client ever submitted is
    returned without recompute.

    Fault tolerance: every request runs under the shared service
    retry policy (:data:`REMOTE_RETRY`), so a server restart or
    transient connection loss mid-campaign is absorbed by backoff
    instead of aborting the sweep — the submission carries an
    idempotency key (retrying it can never double-submit) and the
    polling loop picks up exactly where the recovered server's journal
    left the fleet.

    ``jobs`` is advisory — real parallelism is however many workers
    are attached to the server.
    """

    name = "remote"

    def __init__(self, jobs: int = 1, *, server: str = "") -> None:
        if not server:
            raise ValueError(
                "remote backend needs server='http://host:port' "
                "(a running `python -m repro serve`)")
        # Deferred import: repro.service imports the fleet layer, so
        # a module-level import here would be a cycle.
        from ..service.client import ServiceClient
        from ..service.retry import RetryPolicy

        self.jobs = max(1, jobs)
        self.server = server
        self._client = ServiceClient(server, timeout_s=REMOTE_TIMEOUT_S,
                                     retry=RetryPolicy(**REMOTE_RETRY))

    def map(self, runs: Sequence[RunSpec]) -> Iterator[RunOutcome]:
        runs = list(runs)
        if not runs:
            return
        ack = self._client.submit_runs(pack_runs(runs))
        next_index = 0
        while next_index < len(runs):
            slots, _ = self._client.slots(ack.fleet_id, since=next_index,
                                          wait_s=REMOTE_WAIT_S)
            for slot in slots:
                # Outcomes must stream in input order, so only the
                # done-prefix is consumed; later finishers wait.
                if slot["state"] != "done" or slot["record"] is None:
                    break
                yield RunOutcome(
                    record=RunRecord.from_dict(slot["record"]),
                    wall_s=float(slot["wall_s"]),
                    cached=bool(slot["cached"]))
                next_index += 1

    def close(self, *, cancel: bool = False) -> None:
        # Leases self-expire server-side; only the kept-alive
        # connection is released here.
        self._client.close()

    def __enter__(self) -> "RemoteExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: Backend registry keyed by CLI name
#: (``--backend serial|batch|remote``).
BACKENDS: dict[str, Callable[..., "Executor"]] = {
    SerialExecutor.name: SerialExecutor,
    BatchExecutor.name: BatchExecutor,
    RemoteExecutor.name: RemoteExecutor,
}


def make_executor(backend: str, *, jobs: int = 1,
                  **options: Any) -> "Executor":
    """Instantiate a registered backend by name.

    ``options`` pass through to the backend constructor — the
    ``remote`` backend needs ``server="http://host:port"``; the
    in-process backends take none.
    """
    try:
        factory = BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {sorted(BACKENDS)}"
        ) from None
    try:
        return factory(jobs=jobs, **options)
    except TypeError as exc:
        raise ValueError(
            f"bad options for backend {backend!r}: {exc}") from None
