"""Content-addressed cache of compiled scenarios.

The fleet analogue of :class:`~repro.fleet.cache.ResultCache`, one
level up the reuse ladder: where the result cache skips a run whose
*full* identity (``run_key``) was seen before, this cache skips the
*build* of a run whose build layers (``build_key``) were — so a sweep
over sampling-only knobs compiles its world once and replays only the
sampling phase per variant.

Two tiers:

* an in-process LRU of live :class:`~repro.core.compiled
  .CompiledScenario` objects (compiles are ~35x a sampling phase, but
  live objects hold the whole precompute — :data:`MEMORY_CAPACITY`
  keeps a small working set, enough for a multi-scenario sweep);
* an optional on-disk store next to the result cache, so *sequential*
  fleet invocations (cold CLI calls, CI re-runs) skip the build too.

Disk entries are self-verifying: a JSON header line carrying the
schema version, build key, and the SHA-256 of the pickle blob that
follows.  Any mismatch — truncation, corruption, a stale schema — is
treated as a miss: the entry is deleted, counted, and rebuilt.  Like
the result cache, writes go through
:func:`~repro.fleet.store.write_atomic`, so concurrent fleets never
observe partial entries.

The cache is shared between broker threads and the server's GC chore,
so the memory tier and the stats counters are ``guarded_by`` an
internal :class:`~repro.sim.sync.WatchedLock`.  Disk I/O and
compilation deliberately happen *outside* the lock: two threads
missing on the same key build it twice, which is benign (the compiled
scenario is a pure function of the key) and keeps the lock from ever
waiting on a 100ms+ build or a disk read (REP102).
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping, Optional

from ..core.compiled import CompiledScenario
from ..scenarios.identity import build_key as spec_build_key
from ..scenarios.spec import ScenarioSpec
from ..sim.sync import WatchedLock, guarded_by
from .store import write_atomic

__all__ = ["COMPILED_DIR", "CompiledCacheStats", "CompiledScenarioCache"]

#: subdirectory of a fleet cache directory holding compiled scenarios
COMPILED_DIR = "compiled"

_HEADER_SCHEMA = 1

#: Compiled scenarios the in-process tier keeps, least recently used
#: evicted first.
MEMORY_CAPACITY = 4


@dataclass
class CompiledCacheStats:
    """Counters of one cache's lifetime (process-local)."""

    builds: int = 0        #: scenarios compiled from scratch
    memory_hits: int = 0   #: served from the in-process LRU
    disk_hits: int = 0     #: unpickled from the on-disk store
    stores: int = 0        #: entries written to disk
    corrupt: int = 0       #: disk entries rejected and deleted

    @property
    def hits(self) -> int:
        """Builds avoided, either tier."""
        return self.memory_hits + self.disk_hits


class CompiledScenarioCache:
    """Two-tier (memory + disk) cache of :class:`CompiledScenario`.

    ``directory=None`` disables the disk tier.  Thread-safe: the
    memory LRU and stats are lock-guarded; builds and disk I/O run
    unlocked (duplicate work on a racing miss is benign, the value is
    a pure function of the key).
    """

    _memory: dict[str, CompiledScenario] = guarded_by("_lock")
    stats: CompiledCacheStats = guarded_by("_lock", writes_only=True)

    def __init__(self, directory: Optional[Path | str] = None):
        self.directory = Path(directory) if directory is not None else None
        self._lock = WatchedLock("compiled-cache")
        self.stats = CompiledCacheStats()
        self._memory = {}

    # -- lookup ---------------------------------------------------------

    def get(self, spec: ScenarioSpec, seed: int, density: float, *,
            key: Optional[str] = None) -> CompiledScenario:
        """The compiled scenario for ``(spec build layers, seed, density)``.

        Checks memory, then disk, then compiles (and back-fills both
        tiers).  ``key`` skips re-hashing when the caller already
        computed the build key.
        """
        if key is None:
            key = spec_build_key(spec, seed, density)
        with self._lock:
            hit = self._memory.pop(key, None)
            if hit is not None:
                self._memory[key] = hit  # re-insert: most recently used
                self.stats.memory_hits += 1
                return hit
        loaded = self._load(key)
        if loaded is not None:
            with self._lock:
                self.stats.disk_hits += 1
                self._remember(key, loaded)
            return loaded
        compiled = CompiledScenario(spec, seed=seed, density=density)
        with self._lock:
            self.stats.builds += 1
            self._remember(key, compiled)
        self._store(key, compiled)
        return compiled

    def _remember(self, key: str,  # lint: holds(_lock)
                  compiled: CompiledScenario) -> None:
        self._memory[key] = compiled
        while len(self._memory) > MEMORY_CAPACITY:
            self._memory.pop(next(iter(self._memory)))

    def add_stats(self, counts: Mapping[str, int]) -> None:
        """Add another cache's counters (a pool process's) to these."""
        with self._lock:
            for field in fields(CompiledCacheStats):
                setattr(self.stats, field.name,
                        getattr(self.stats, field.name) + counts[field.name])

    def clear(self) -> None:
        """Drop the in-process tier (disk entries stay)."""
        with self._lock:
            self._memory.clear()

    # -- disk tier ------------------------------------------------------

    def _path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / key[:2] / f"{key}.pkl"

    def _load(self, key: str) -> Optional[CompiledScenario]:
        if self.directory is None:
            return None
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            head, _, blob = raw.partition(b"\n")
            header = json.loads(head)
            if (header.get("schema") != _HEADER_SCHEMA
                    or header.get("build_key") != key
                    or header.get("blob_sha256")
                    != hashlib.sha256(blob).hexdigest()):
                raise ValueError("compiled entry failed verification")
            compiled = pickle.loads(blob)
            if not isinstance(compiled, CompiledScenario) \
                    or compiled.schema != CompiledScenario.SCHEMA \
                    or compiled.build_key != key:
                raise ValueError("compiled entry failed verification")
        except Exception:
            # Corrupt, truncated, stale-schema, or unpicklable: drop
            # the entry and let the caller recompile.
            with self._lock:
                self.stats.corrupt += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        return compiled

    def _store(self, key: str, compiled: CompiledScenario) -> None:
        if self.directory is None:
            return
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = pickle.dumps(compiled, protocol=pickle.HIGHEST_PROTOCOL)
        header = json.dumps({
            "schema": _HEADER_SCHEMA,
            "build_key": key,
            "blob_sha256": hashlib.sha256(blob).hexdigest(),
        }, sort_keys=True, separators=(",", ":")).encode()
        try:
            write_atomic(path, header + b"\n" + blob)
        except OSError:
            return
        with self._lock:
            self.stats.stores += 1
