"""Spans around the public functions of each layer, installed from outside.

The benchmark never edits the program: :func:`install` replaces a fixed
list of public functions and methods with thin wrappers that record a
span (name, start, end, parent, run id) per call and a few counters.
Spans stay in memory until the benchmark run ends.  Processes other
than the benchmark's own (process-pool children, the traced CLI and
worker launched through ``launcher.py``) append their spans to NDJSON
files in a spans directory, which the benchmark process merges.

Nothing here is imported unless ``--trace 1`` is given, so untraced
runs measure the program as users run it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Optional

#: Environment variable naming the directory child processes write
#: their spans to (inherited across fork, spawn and subprocess).
SPANS_ENV = "PERFBENCH_SPANS_DIR"
#: Environment variable giving a traced CLI process its run id.
RUN_ID_ENV = "PERFBENCH_RUN_ID"


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        # (name, start_s, end_s, parent index or -1, run id)
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.run_id = ""
        self.pid = os.getpid()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent,
                           self.run_id))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self._stack.pop()
        name, start, _, parent, run_id = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent,
                             run_id)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    def drain(self, since: int = 0) -> dict[str, Any]:
        """Spans recorded from index ``since`` on (parents renumbered
        within the chunk) plus all counters, as a JSON-able chunk;
        forgets both."""
        chunk = {"spans": [[name, start, end,
                            parent - since if parent >= since else -1,
                            run_id]
                           for name, start, end, parent, run_id
                           in self.spans[since:]],
                 "counters": dict(self.counters)}
        del self.spans[since:]
        self.counters.clear()
        return chunk


class Profile:
    """Per-layer totals over span chunks from any number of processes."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.busy_s: dict[str, float] = defaultdict(float)
        #: duration minus the time direct child spans cover
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)

    def add(self, chunk: dict[str, Any]) -> None:
        spans = chunk["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _, _), child_s in zip(spans, covered):
            self.calls[name] += 1
            self.busy_s[name] += end - start
            self.self_s[name] += end - start - child_s
        for key, value in chunk["counters"].items():
            self.counters[key] += value


TRACER = Tracer()
_INSTALLED = False


def _spanned(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = TRACER.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            TRACER.end(index)
    return wrapper


def _replace_everywhere(original: Any, replacement: Any) -> None:
    """Rebind every ``repro`` module global that names ``original``.

    Modules import functions by name (``from ..probes.kernel import
    sample_run``), so patching the defining module alone would miss
    those call sites.
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_function(module: Any, attr: str, name: str) -> None:
    original = getattr(module, attr)
    _replace_everywhere(original, _spanned(name, original))


def _wrap_method(cls: type, attr: str, name: str,
                 make: Optional[Callable[..., Any]] = None) -> None:
    original = cls.__dict__[attr]
    wrapped = (make or _spanned)(name, original)
    setattr(cls, attr, wrapped)


def _sample_wrapper(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    """``sample_run`` plus block-cache accounting: cells needed, and
    cells served from the shared ``block_cache`` (needed minus the
    entries the call added)."""
    @functools.wraps(fn)
    def wrapper(pre: Any, config: Any, stream_factory: Any,
                block_cache: Any = None) -> Any:
        before = len(block_cache) if block_cache is not None else 0
        index = TRACER.begin(name)
        try:
            return fn(pre, config, stream_factory, block_cache)
        finally:
            TRACER.end(index)
            needed = len(pre.blocks)
            TRACER.count("kernel.cells_needed", needed)
            if block_cache is not None:
                TRACER.count("kernel.cells_reused",
                             needed - (len(block_cache) - before))
    return wrapper


def _compiled_get_wrapper(name: str,
                          fn: Callable[..., Any]) -> Callable[..., Any]:
    """``CompiledScenarioCache.get`` plus the deltas of its public
    ``stats`` (builds and hits of either tier)."""
    @functools.wraps(fn)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        builds, hits = self.stats.builds, self.stats.hits
        index = TRACER.begin(name)
        try:
            return fn(self, *args, **kwargs)
        finally:
            TRACER.end(index)
            TRACER.count("fleet.compiled.builds", self.stats.builds - builds)
            TRACER.count("fleet.compiled.hits", self.stats.hits - hits)
    return wrapper


def _write_record_wrapper(name: str,
                          fn: Callable[..., Any]) -> Callable[..., Any]:
    """``FleetStore.write_record`` plus the bytes it put on disk."""
    @functools.wraps(fn)
    def wrapper(self: Any, record: Any) -> Any:
        index = TRACER.begin(name)
        try:
            path = fn(self, record)
        finally:
            TRACER.end(index)
        TRACER.count("fleet.store.bytes", Path(path).stat().st_size)
        TRACER.count("fleet.store.records")
        return path
    return wrapper


def _submit_wrapper(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    """``ServiceClient.submit_runs`` plus its request body size (the
    client's own encoding; the idempotency key is always 32 hex)."""
    @functools.wraps(fn)
    def wrapper(self: Any, runs: Any, **kwargs: Any) -> Any:
        TRACER.count("service.submit_bytes", len(json.dumps(
            {"runs": runs, "submission_key": "0" * 32}).encode()))
        index = TRACER.begin(name)
        try:
            return fn(self, runs, **kwargs)
        finally:
            TRACER.end(index)
    return wrapper


def _slots_wrapper(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    """``ServiceClient.slots`` plus the idle time the remote backend
    spends between a poll that found nothing new and the next one."""
    # When the last poll that found no new finished record returned.
    idle_since: list[float] = []

    @functools.wraps(fn)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        if idle_since:
            TRACER.count("service.poll.idle_s",
                         time.perf_counter() - idle_since.pop())
        index = TRACER.begin(name)
        try:
            slots, complete = fn(self, *args, **kwargs)
        finally:
            TRACER.end(index)
        if not slots or slots[0].get("state") != "done":
            idle_since.append(time.perf_counter())
        return slots, complete
    return wrapper


def _lease_wrapper(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    """``ServiceClient.lease``, which only the worker calls: the leased
    run's id labels the spans of its evaluation."""
    @functools.wraps(fn)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        grant = fn(self, *args, **kwargs)
        if grant is not None:
            TRACER.run_id = str(grant.run.get("run_id", ""))
        return grant
    return wrapper


def install() -> None:
    """Wrap every traced layer boundary in this process (idempotent).

    Imports the layers first, so lazily imported modules exist before
    their names are rebound.
    """
    global _INSTALLED
    if _INSTALLED:
        return
    _INSTALLED = True
    import repro.core.compiled as core_compiled
    import repro.core.evaluation as evaluation
    import repro.fleet.compiled as fleet_compiled
    import repro.fleet.executors as executors
    import repro.fleet.store as store
    import repro.fleet.sweep as sweep
    import repro.probes.kernel as kernel
    import repro.scenarios.identity as identity
    import repro.scenarios.spec as spec
    import repro.service.client as client
    import repro.service.worker  # noqa: F401  (binds names to rebind)

    # The package's ``build`` function shadows its ``build`` module.
    scenarios_build = importlib.import_module("repro.scenarios.build")
    _wrap_function(scenarios_build, "build", "scenarios.build")
    _wrap_function(identity, "build_key", "scenarios.build_key")
    _replace_everywhere(kernel.sample_run,
                        _sample_wrapper("kernel.sample", kernel.sample_run))
    # from_json is a classmethod: wrap the function under it.
    from_json = spec.ScenarioSpec.__dict__["from_json"].__func__
    spec.ScenarioSpec.from_json = classmethod(
        _spanned("scenarios.spec_json", from_json))
    _wrap_method(spec.ScenarioSpec, "to_json", "scenarios.spec_json")
    _wrap_method(kernel.CampaignKernel, "precompute", "kernel.precompute")
    _wrap_method(core_compiled.CompiledScenario, "__init__", "core.compile")
    _wrap_method(core_compiled.CompiledScenario, "evaluate",
                 "core.evaluate")
    _wrap_method(evaluation.InfrastructureEvaluation, "run",
                 "core.evaluation.run")
    _wrap_method(fleet_compiled.CompiledScenarioCache, "get",
                 "fleet.compiled.get", _compiled_get_wrapper)
    _wrap_method(sweep.SweepSpec, "expand", "fleet.expand")
    _wrap_method(store.FleetStore, "write_record", "fleet.store.write",
                 _write_record_wrapper)
    _wrap_method(store.FleetStore, "save", "fleet.store.write")
    _wrap_method(client.ServiceClient, "submit_runs", "service.submit",
                 _submit_wrapper)
    _wrap_method(client.ServiceClient, "slots", "service.poll",
                 _slots_wrapper)
    _wrap_method(client.ServiceClient, "lease", "service.lease",
                 _lease_wrapper)
    # Pool children run executors.execute_run: route them through a
    # top-level function (picklable by name) that ships their spans.
    _ORIGINAL["execute_run"] = executors.execute_run
    executors.execute_run = traced_execute_run


_ORIGINAL: dict[str, Callable[..., Any]] = {}


def traced_execute_run(run_dict: dict[str, Any]) -> dict[str, Any]:
    """Process-pool entry point: the program's ``execute_run`` with
    this run's spans appended to the spans directory."""
    install()   # no-op in a forked child, needed in a spawned one
    if TRACER.pid != os.getpid():
        # A forked child inherits the parent's spans and counters.
        TRACER.__init__()
    since = len(TRACER.spans)
    TRACER.run_id = str(run_dict.get("run_id", ""))
    try:
        return _ORIGINAL["execute_run"](run_dict)
    finally:
        flush(since)


def flush(since: int = 0) -> None:
    """Append this process's spans (from ``since``) and counters to its
    file in the spans directory."""
    directory = os.environ.get(SPANS_ENV)
    if not directory:
        return
    chunk = TRACER.drain(since)
    path = Path(directory) / f"{os.getpid()}.ndjson"
    with path.open("a") as handle:
        handle.write(json.dumps(chunk) + "\n")


def collect(directory: Path, profile: Profile) -> None:
    """Add, then remove, every span file under ``directory``."""
    for path in sorted(directory.glob("*.ndjson")):
        for line in path.read_text().splitlines():
            profile.add(json.loads(line))
        path.unlink()
