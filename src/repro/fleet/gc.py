"""Cache lifecycle management: usage stats + LRU-by-atime eviction.

A shared, long-lived cache directory (the fleet service's backing
store) accumulates two tiers of entries — result records under
``objects/`` (:class:`~repro.fleet.cache.ResultCache`) and compiled
scenarios under ``compiled/``
(:class:`~repro.fleet.compiled.CompiledScenarioCache`) — plus the
occasional staging file abandoned by a crashed writer.  This module is
their janitor:

* :func:`cache_usage` reports per-tier entry counts and byte totals
  (``python -m repro cache stats``);
* :func:`run_gc` sweeps orphaned ``.tmp`` files, expires entries older
  than ``max_age_s``, and then evicts least-recently-*used* entries
  (by ``st_atime``, ties broken by path for determinism) until the
  combined tiers fit ``max_bytes`` (``python -m repro cache gc``).

Both caches are content-addressed and self-verifying, so eviction is
always safe: a future request for a deleted key simply recomputes and
re-stores it.  The fleet service calls :func:`run_gc` on startup and
on a configurable period.  :func:`run_gc` is the only orphan sweeper:
a cache write never lists its shard for stale staging files.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Union

from .cache import OBJECTS_DIR
from .compiled import COMPILED_DIR

__all__ = [
    "CacheEntry",
    "CacheUsage",
    "GcReport",
    "TierUsage",
    "cache_usage",
    "run_gc",
]

#: Staging files older than this are taken as abandoned by a crashed
#: writer and swept by :func:`run_gc`.
ORPHAN_TMP_TTL_S = 3600.0

#: tier name -> (subdirectory, entry glob)
TIERS: dict[str, tuple[str, str]] = {
    "results": (OBJECTS_DIR, "*/*.json"),
    "compiled": (COMPILED_DIR, "*/*.pkl"),
}


@dataclass(frozen=True)
class CacheEntry:
    """One evictable cache file."""

    tier: str
    path: Path
    size: int
    atime: float

    def to_dict(self) -> dict[str, Any]:
        return {"tier": self.tier, "path": str(self.path),
                "size": self.size, "atime": self.atime}


@dataclass(frozen=True)
class TierUsage:
    """Entry count and byte total of one cache tier."""

    tier: str
    entries: int
    size: int

    def to_dict(self) -> dict[str, Any]:
        return {"tier": self.tier, "entries": self.entries,
                "size": self.size}


@dataclass(frozen=True)
class CacheUsage:
    """What one cache directory currently holds, per tier."""

    directory: str
    tiers: tuple[TierUsage, ...]
    staging: int        #: ``.tmp`` files present (of any age)

    @property
    def entries(self) -> int:
        return sum(tier.entries for tier in self.tiers)

    @property
    def size(self) -> int:
        return sum(tier.size for tier in self.tiers)

    def tier(self, name: str) -> TierUsage:
        for tier in self.tiers:
            if tier.tier == name:
                return tier
        raise KeyError(f"unknown cache tier {name!r}")

    def to_dict(self) -> dict[str, Any]:
        return {"directory": self.directory,
                "tiers": [tier.to_dict() for tier in self.tiers],
                "entries": self.entries, "size": self.size,
                "staging": self.staging}

    def summary(self) -> str:
        parts = [f"{tier.entries} {tier.tier} ({tier.size} bytes)"
                 for tier in self.tiers]
        text = (f"cache {self.directory}: " + " + ".join(parts)
                + f" = {self.entries} entries, {self.size} bytes")
        if self.staging:
            text += f"; {self.staging} staging file(s)"
        return text


@dataclass(frozen=True)
class GcReport:
    """What one :func:`run_gc` pass removed and what survived."""

    directory: str
    orphans_removed: int
    expired: tuple[CacheEntry, ...]     #: removed by ``max_age_s``
    evicted: tuple[CacheEntry, ...]     #: removed (LRU) for ``max_bytes``
    kept_entries: int
    kept_size: int

    @property
    def removed_entries(self) -> int:
        return len(self.expired) + len(self.evicted)

    @property
    def removed_size(self) -> int:
        return (sum(entry.size for entry in self.expired)
                + sum(entry.size for entry in self.evicted))

    def to_dict(self) -> dict[str, Any]:
        return {"directory": self.directory,
                "orphans_removed": self.orphans_removed,
                "expired": [entry.to_dict() for entry in self.expired],
                "evicted": [entry.to_dict() for entry in self.evicted],
                "removed_entries": self.removed_entries,
                "removed_size": self.removed_size,
                "kept_entries": self.kept_entries,
                "kept_size": self.kept_size}

    def summary(self) -> str:
        return (f"gc {self.directory}: swept {self.orphans_removed} "
                f"orphan(s), expired {len(self.expired)}, evicted "
                f"{len(self.evicted)} LRU entries "
                f"({self.removed_size} bytes freed); kept "
                f"{self.kept_entries} entries, {self.kept_size} bytes")


def _scan(directory: Path) -> list[CacheEntry]:
    """Every cache entry with its size and last-use time, path-sorted.

    A file that vanishes mid-scan (a concurrent GC or a corrupt-entry
    deletion) is simply skipped.
    """
    entries: list[CacheEntry] = []
    for tier, (subdir, pattern) in sorted(TIERS.items()):
        root = directory / subdir
        if not root.is_dir():
            continue
        for path in sorted(root.glob(pattern)):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append(CacheEntry(tier=tier, path=path,
                                      size=stat.st_size,
                                      atime=stat.st_atime))
    return entries


def _count_staging(directory: Path) -> int:
    return sum(1 for _ in directory.rglob("*.tmp"))


def cache_usage(directory: Union[str, Path]) -> CacheUsage:
    """Per-tier entry counts and byte totals for one cache directory."""
    root = Path(directory)
    entries = _scan(root)
    tiers = tuple(
        TierUsage(tier=tier,
                  entries=sum(1 for e in entries if e.tier == tier),
                  size=sum(e.size for e in entries if e.tier == tier))
        for tier in sorted(TIERS))
    staging = _count_staging(root) if root.is_dir() else 0
    return CacheUsage(directory=str(root), tiers=tiers, staging=staging)


def _sweep_staging(root: Path) -> int:
    """Delete the staging files under ``root`` older than
    :data:`ORPHAN_TMP_TTL_S`; returns the count removed.  Races with
    live writers are harmless: a file that vanished is skipped."""
    now = time.time()
    removed = 0
    for staging in root.rglob("*.tmp"):
        try:
            if now - staging.stat().st_mtime >= ORPHAN_TMP_TTL_S:
                staging.unlink()
                removed += 1
        except OSError:
            continue
    return removed


def _remove(entry: CacheEntry) -> bool:
    try:
        entry.path.unlink()
    except OSError:
        return False
    # Content-addressed shards: drop a now-empty <key[:2]>/ directory
    # so eviction doesn't leave a skeleton tree behind.
    try:
        entry.path.parent.rmdir()
    except OSError:
        pass
    return True


def run_gc(directory: Union[str, Path], *,
           max_bytes: Optional[int] = None,
           max_age_s: Optional[float] = None,
           now: Optional[float] = None) -> GcReport:
    """One GC pass over both cache tiers; returns what was removed.

    Order of operations: orphaned ``.tmp`` staging files older than
    :data:`ORPHAN_TMP_TTL_S` go first (the whole tree, both tiers),
    then every entry whose last use is older than ``max_age_s``, then
    — oldest ``st_atime`` first — however many more entries it takes
    to bring the combined tiers under ``max_bytes``.  Ties in last-use
    time break by path, so two GC passes over identical trees always
    evict identically.
    """
    root = Path(directory)
    orphans = _sweep_staging(root) if root.is_dir() else 0
    entries = _scan(root)
    if now is None:
        now = time.time()

    expired: list[CacheEntry] = []
    survivors: list[CacheEntry] = []
    for entry in entries:
        if max_age_s is not None and now - entry.atime > max_age_s:
            if _remove(entry):
                expired.append(entry)
        else:
            survivors.append(entry)

    evicted: list[CacheEntry] = []
    if max_bytes is not None:
        total = sum(entry.size for entry in survivors)
        # Least recently used first; deterministic under atime ties.
        queue = sorted(survivors, key=lambda e: (e.atime, str(e.path)))
        while total > max_bytes and queue:
            entry = queue.pop(0)
            if _remove(entry):
                evicted.append(entry)
                survivors.remove(entry)
                total -= entry.size

    return GcReport(directory=str(root), orphans_removed=orphans,
                    expired=tuple(expired), evicted=tuple(evicted),
                    kept_entries=len(survivors),
                    kept_size=sum(entry.size for entry in survivors))
