"""Content-addressed result cache + the caching executor wrapper.

A :class:`~repro.fleet.sweep.RunRecord` is a pure function of
``(spec, seed, density)``, so those inputs *are* the cache key:
:func:`run_key` hashes their canonical JSON (sorted keys, compact
separators — see :func:`canonical_dumps`) into a SHA-256 digest, and
:class:`ResultCache` stores one record per digest on disk::

    <cache>/
      objects/
        <key[:2]>/
          <key>.json   # {"key", "payload_sha256", "record"}

Each entry carries a second digest over the record payload itself, so
a corrupted or half-written entry is detected on read, dropped, and
transparently recomputed; so is an entry whose record's ``spec_key``
is not the key it is stored under (digest-less records included).
Entries are written through :func:`~repro.fleet.store.write_atomic`;
the staging file a crashed writer leaves behind is swept by
:func:`~repro.fleet.gc.run_gc` (``repro cache gc`` and the fleet
service's start-up and periodic chores), never by a write.
:class:`CachingExecutor` wraps any
:class:`~repro.fleet.executors.Executor` with read-through/write-back
semantics: hits return in zero compute, misses flow to the inner
backend and are stored on the way out.  Because the key ignores
sweep-local metadata (``run_id``, variant labels), records cached by
one sweep serve any other sweep that reaches the same
``(spec, seed, density)``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterator, Mapping, Optional, Sequence, Union

from ..sim.sync import WatchedLock, guarded_by
from .executors import Executor, RunOutcome
from .store import write_atomic
# run_key lives in .sweep (it defines run identity, not just cache
# addressing), canonical_dumps in repro.scenarios.spec; both are
# re-exported here for compatibility.
from .sweep import RunRecord, RunSpec, canonical_dumps, run_key

__all__ = [
    "CacheStats",
    "CachingExecutor",
    "ResultCache",
    "canonical_dumps",
    "rebind_record",
    "run_key",
]

OBJECTS_DIR = "objects"


def _payload_sha256(record_dict: Mapping[str, Any]) -> str:
    return hashlib.sha256(canonical_dumps(record_dict).encode()).hexdigest()


def rebind_record(record: RunRecord, run: RunSpec) -> RunRecord:
    """A cached record re-labelled for one sweep's bookkeeping.

    The summary is content-addressed; ``run_id`` and variant labels
    are sweep-local metadata, so a record cached by one sweep slots
    into any other that reaches the same key.
    """
    if record.run_id == run.run_id and record.variant == run.variant:
        return record
    return replace(record, run_id=run.run_id, variant=run.variant)


@dataclass
class CacheStats:
    """Live counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0

    def to_dict(self) -> dict[str, int]:
        """Plain counters — what the service's ``/healthz`` embeds."""
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "corrupt": self.corrupt}


class ResultCache:
    """One on-disk content-addressed store of run records.

    Thread-safe: every entry is written via a unique staging file and
    an atomic rename (:func:`~repro.fleet.store.write_atomic`), so
    readers on other threads (or processes) see whole entries or
    nothing; the in-process stats counters are the only shared
    mutable state and are lock-guarded (external readers may read them
    lock-free — ``writes_only`` — a racy stats snapshot is by design).
    """

    stats: CacheStats = guarded_by("_lock", writes_only=True)

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self._lock = WatchedLock("result-cache")
        self.stats = CacheStats()

    def path_for(self, key: str) -> Path:
        return self.directory / OBJECTS_DIR / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[RunRecord]:
        """The cached record, or ``None`` on miss *or* corruption.

        A corrupt entry (unparseable, wrong shape, payload digest
        mismatch, or a record whose ``spec_key`` is not ``key``) is
        deleted so the caller's recompute can overwrite it cleanly.
        """
        path = self.path_for(key)
        try:
            entry = json.loads(path.read_text())
            if _payload_sha256(entry["record"]) != entry["payload_sha256"]:
                raise ValueError("payload digest mismatch")
            record = RunRecord.from_dict(entry["record"])
            if record.spec_key != key:
                raise ValueError("record answers another key")
        except FileNotFoundError:
            with self._lock:
                self.stats.misses += 1
            return None
        except (KeyError, TypeError, ValueError):
            with self._lock:
                self.stats.corrupt += 1
                self.stats.misses += 1
            path.unlink(missing_ok=True)
            return None
        with self._lock:
            self.stats.hits += 1
        return record

    def put(self, key: str, record: RunRecord) -> Path:
        """Store one record under its key; atomic against readers (see
        :func:`~repro.fleet.store.write_atomic`), so concurrent
        processes sharing one cache never see a partial entry."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        record_dict = record.to_dict()
        entry = {"key": key,
                 "payload_sha256": _payload_sha256(record_dict),
                 "record": record_dict}
        write_atomic(path, json.dumps(entry, indent=2) + "\n")
        with self._lock:
            self.stats.stores += 1
        return path

    def iter_records(self) -> Iterator[RunRecord]:
        """Every intact record in the store, in digest order.

        Corrupt entries are skipped (not deleted — unlike :meth:`get`,
        iteration has no recompute to hand them to).
        """
        objects = self.directory / OBJECTS_DIR
        if not objects.is_dir():
            return
        for path in sorted(objects.glob("*/*.json")):
            try:
                entry = json.loads(path.read_text())
                if _payload_sha256(entry["record"]) != \
                        entry["payload_sha256"]:
                    continue
                yield RunRecord.from_dict(entry["record"])
            except (KeyError, OSError, TypeError, ValueError):
                continue

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        objects = self.directory / OBJECTS_DIR
        if not objects.is_dir():
            return 0
        return sum(1 for _ in objects.glob("*/*.json"))


class CachingExecutor:
    """Read-through, write-back cache over any executor backend."""

    def __init__(self, inner: Executor,
                 cache: Union[ResultCache, str, Path]) -> None:
        self.inner = inner
        self.cache = (cache if isinstance(cache, ResultCache)
                      else ResultCache(cache))

    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def jobs(self) -> int:
        return getattr(self.inner, "jobs", 1)

    def map(self, runs: Sequence[RunSpec]) -> Iterator[RunOutcome]:
        runs = list(runs)
        keys = [run.spec_key() for run in runs]
        hits: dict[int, RunRecord] = {}
        miss_indices: list[int] = []
        for index, key in enumerate(keys):
            record = self.cache.get(key)
            if record is None:
                miss_indices.append(index)
            else:
                hits[index] = record
        fresh = (self.inner.map([runs[i] for i in miss_indices])
                 if miss_indices else iter(()))
        # Miss indices are increasing and the inner backend yields in
        # submission order, so one forward walk streams both sources
        # back into expansion order.
        for index, run in enumerate(runs):
            if index in hits:
                yield RunOutcome(
                    record=rebind_record(hits[index], run),
                    wall_s=0.0, cached=True)
            else:
                outcome = next(fresh)
                self.cache.put(keys[index], outcome.record)
                yield outcome

    def close(self, *, cancel: bool = False) -> None:
        self.inner.close(cancel=cancel)

    def __enter__(self) -> "CachingExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
