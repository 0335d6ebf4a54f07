"""Fleet execution: expand a sweep and drive it through an executor.

:func:`run_sweep` is the orchestration loop: expand the
:class:`~repro.fleet.sweep.SweepSpec`, resolve an
:class:`~repro.fleet.executors.Executor` (by instance, by registered
backend name, or the ``batch`` default), optionally wrap it in a
:class:`~repro.fleet.cache.CachingExecutor`, then stream outcomes —
in expansion order — into the result, the progress callback, and the
on-disk store.  Records land on disk as they finish, so a sweep killed
halfway leaves a directory :func:`resume_sweep` (or
:meth:`~repro.fleet.store.FleetStore.resume`) completes by re-running
only the missing runs.

Determinism contract: a record is a function of ``(spec, seed,
density)`` alone, so every backend — and any mix of cold runs, cache
hits, and resumed records — produces bit-identical record lists;
:mod:`tests.test_fleet` and :mod:`tests.test_fleet_cache` pin this.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, Union

from .cache import CachingExecutor, ResultCache
from .compiled import COMPILED_DIR, CompiledScenarioCache
from .executors import (
    BatchExecutor,
    Executor,
    RunOutcome,
    make_executor,
)
from .store import FleetResult, FleetStore
from .sweep import RunRecord, RunSpec, SweepSpec

__all__ = ["ProgressFn", "resume_sweep", "run_sweep"]

#: Progress callback: ``(finished_count, total, record)``.
ProgressFn = Callable[[int, int, RunRecord], None]

#: What ``run_sweep`` accepts as an executor: a live instance, a
#: registered backend name, or ``None`` to derive one from ``jobs``.
ExecutorLike = Union[Executor, str, None]

#: What ``run_sweep`` accepts as a cache: a live store, a directory
#: path, or ``None`` for no caching.
CacheLike = Union[ResultCache, str, Path, None]


def _compiled_cache(cache: CacheLike) -> Optional[CompiledScenarioCache]:
    """A compiled-scenario cache living next to the result cache.

    Compiled worlds land under ``<cache>/compiled/`` so one ``--cache``
    directory carries both reuse tiers; without a cache directory the
    batch executor still shares builds in-process, just not across
    invocations."""
    if cache is None:
        return None
    directory = cache.directory if isinstance(cache, ResultCache) \
        else Path(cache)
    return CompiledScenarioCache(directory / COMPILED_DIR)


def _resolve_executor(executor: ExecutorLike, jobs: int,
                      cache: CacheLike) -> tuple[Executor, bool]:
    """The concrete (possibly cache-wrapped) executor, plus whether the
    caller owns it and must close it."""
    if executor is None or isinstance(executor, str):
        resolved = make_executor(executor or BatchExecutor.name, jobs=jobs)
        compiled = _compiled_cache(cache)
        if isinstance(resolved, BatchExecutor) and compiled is not None:
            resolved.compiled = compiled
        owned = True
    else:
        resolved = executor
        owned = False
    if cache is not None:
        resolved = CachingExecutor(resolved, cache)
    return resolved, owned


def _stats_snapshot(resolved: Executor) -> dict[str, int]:
    """Current counters of every reuse tier behind ``resolved``."""
    stats: dict[str, int] = {}
    inner = resolved.inner if isinstance(resolved, CachingExecutor) \
        else resolved
    if isinstance(resolved, CachingExecutor):
        stats["result_cache_hits"] = resolved.cache.stats.hits
        stats["result_cache_misses"] = resolved.cache.stats.misses
        # Corrupt entries detected (dropped + recomputed) — nonzero
        # means the cache healed itself; records stay bit-identical
        # either way, which the chaos suite pins.
        stats["result_cache_corrupt"] = resolved.cache.stats.corrupt
    if isinstance(inner, BatchExecutor):
        stats["builds_performed"] = inner.compiled.stats.builds
        stats["builds_reused"] = inner.compiled.stats.hits
    return stats


def _stats_delta(before: dict[str, int],
                 after: dict[str, int]) -> dict[str, int]:
    """What one sweep contributed (caches outlive sweeps)."""
    return {key: after[key] - before.get(key, 0)
            for key in sorted(after)}


def _execute(sweep: SweepSpec, runs: Sequence[RunSpec],
             store: Optional[FleetStore], *, jobs: int,
             executor: ExecutorLike, cache: CacheLike,
             progress: Optional[ProgressFn],
             reused: Mapping[str, RunOutcome],
             begin: bool) -> FleetResult:
    """The loop behind :func:`run_sweep` and :func:`resume_sweep`:
    execute the runs not in ``reused``, stream their records into
    ``store`` (skeleton manifest first when ``begin``) and ``progress``,
    and merge them with ``reused`` in expansion order."""
    missing = [run for run in runs if run.run_id not in reused]
    resolved, owned = _resolve_executor(executor, jobs, cache)
    jobs = getattr(resolved, "jobs", jobs)
    stats_before = _stats_snapshot(resolved)
    if store is not None and begin:
        store.begin(sweep, jobs=jobs, backend=resolved.name)

    fresh: dict[str, RunOutcome] = {}
    started = time.perf_counter()
    try:
        for index, outcome in enumerate(resolved.map(missing)):
            fresh[missing[index].run_id] = outcome
            if store is not None:
                store.write_record(outcome.record)
            if progress is not None:
                progress(len(fresh), len(missing), outcome.record)
    finally:
        if owned:
            # Don't let queued runs burn CPU after a failure surfaces.
            resolved.close(cancel=True)
    wall_s = time.perf_counter() - started

    outcomes = [fresh.get(run.run_id) or reused[run.run_id]
                for run in runs]
    result = FleetResult(sweep=sweep,
                         records=tuple(o.record for o in outcomes),
                         run_wall_s=tuple(o.wall_s for o in outcomes),
                         wall_s=wall_s, jobs=jobs, backend=resolved.name,
                         cached=tuple(o.cached for o in outcomes),
                         exec_stats=_stats_delta(stats_before,
                                                 _stats_snapshot(resolved)))
    if store is not None:
        # Records were streamed in via write_record (or never left
        # disk), so only the manifest + CSV need writing.
        store.save(result, rewrite_records=False)
    return result


def run_sweep(sweep: SweepSpec, *, jobs: int = 1,
              executor: ExecutorLike = None,
              cache: CacheLike = None,
              out: Optional[str] = None,
              progress: Optional[ProgressFn] = None) -> FleetResult:
    """Execute every run of ``sweep``; optionally persist to ``out``.

    ``executor`` selects the backend: a registered name (``"serial"``,
    ``"batch"``, ``"remote"``), a live :class:`Executor` instance (left
    open for reuse), or ``None`` for ``batch``.  ``jobs`` sizes the
    batch executor: its build-key groups spread over ``jobs``
    processes, this one included.  ``cache`` (a directory or
    :class:`ResultCache`) wraps the backend in a
    :class:`CachingExecutor` so already-computed runs return without
    recompute.  Results come back in expansion order either way.
    """
    return _execute(sweep, sweep.expand(),
                    FleetStore(out) if out else None, jobs=jobs,
                    executor=executor, cache=cache, progress=progress,
                    reused={}, begin=True)


def resume_sweep(directory: Union[str, Path], *, jobs: int = 1,
                 executor: ExecutorLike = None,
                 cache: CacheLike = None,
                 progress: Optional[ProgressFn] = None) -> FleetResult:
    """Complete a partially-written fleet directory.

    Re-expands the manifest's sweep, keeps every on-disk record whose
    content identity verifies against its expanded run
    (:meth:`~repro.fleet.store.FleetStore.matching_records`, which
    reads each record file once; flagged ``cached`` in the result,
    wall time carried over from the prior manifest where known),
    executes the rest, and rewrites the directory as a finished
    fleet.  A record whose ``spec_key`` disagrees with the manifest's
    current spec — say, an axis value edited since the original
    sweep — is stale and recomputed, never silently reused; so is a
    digest-less record from a fleet written before manifest schema
    v3.
    ``progress`` counts the re-run work: ``total`` is the number of
    missing runs.
    """
    store = FleetStore(directory)
    manifest = store.read_manifest()
    sweep = SweepSpec.from_dict(manifest["sweep"])
    runs = sweep.expand()
    prior_wall = {entry["run_id"]: entry.get("wall_s", 0.0)
                  for entry in manifest.get("runs", [])}
    matching = store.matching_records(runs)
    reused = {run.run_id: RunOutcome(
                  record=matching[run.run_id],
                  wall_s=prior_wall.get(run.run_id, 0.0), cached=True)
              for run in runs if run.run_id in matching}
    return _execute(sweep, runs, store, jobs=jobs, executor=executor,
                    cache=cache, progress=progress, reused=reused,
                    begin=False)
