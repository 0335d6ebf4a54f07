"""On-disk fleet persistence + in-memory aggregation.

A fleet directory is self-describing::

    <out>/
      manifest.json      # schema version + sweep spec + bookkeeping
      runs/
        <run_id>.json    # one RunRecord per run

``manifest.json`` carries everything needed to re-expand (or resume) a
sweep — the :class:`~repro.fleet.sweep.SweepSpec` itself round-trips
through it — while each run file is an independent, portable record.
The manifest is versioned (``schema``); the runner writes a skeleton
manifest *before* the first run lands (:meth:`FleetStore.begin`) and
streams records in as they finish, so an interrupted sweep leaves a
directory :meth:`FleetStore.resume` can complete by re-running only
the missing runs.  :class:`FleetResult` is the aggregation surface
over a set of records: group by axis, per-variant summary rows across
seeds, flat CSV export.
"""

from __future__ import annotations

import csv
import json
import os
import statistics as pystats
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Optional, Sequence

from .sweep import RunRecord, RunSpec, SweepSpec, record_matches_spec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .runner import CacheLike, ExecutorLike, ProgressFn

__all__ = ["FleetResult", "FleetStore", "SCHEMA_VERSION", "write_atomic"]

MANIFEST_NAME = "manifest.json"
RUNS_DIR = "runs"

#: Manifest format version.  v1 (implicit, no ``schema`` field) lacked
#: the backend name, per-run cache flags, and the ``complete`` marker;
#: v3 adds the per-run ``spec_key`` content digest (mirrored from the
#: record) so run identity is verifiable without re-hashing specs.
#: Older manifests — and their digest-less records — still load and
#: compare, but a digest-less record answers no run: resume recomputes
#: it.
SCHEMA_VERSION = 3


def write_atomic(path: Path, data: str | bytes) -> Path:
    """Write ``data`` to ``path`` through a staging file and one
    :func:`os.replace`, so a reader on another thread or process sees
    the old file or the whole new one, never a part.

    The staging name (``.<name>.<pid>-<random>.tmp``, beside ``path``)
    is unique per writer, so concurrent writers never share one; the
    last rename wins with a whole file either way.  A failed write
    removes its staging file; one a crashed writer leaves in a cache
    directory is swept by :func:`repro.fleet.gc.run_gc`.
    """
    staging = path.parent / (
        f".{path.name}.{os.getpid()}-{uuid.uuid4().hex[:8]}.tmp")
    try:
        staging.write_bytes(data.encode() if isinstance(data, str)
                            else data)
        os.replace(staging, path)
    except OSError:
        staging.unlink(missing_ok=True)
        raise
    return path


@dataclass(frozen=True)
class FleetResult:
    """A completed (or reloaded) fleet: the sweep plus all records."""

    sweep: SweepSpec
    records: tuple[RunRecord, ...]
    run_wall_s: tuple[float, ...] = ()
    wall_s: float = 0.0
    jobs: int = 1
    backend: str = "serial"
    #: Per-record flag: ``True`` when the record was reused (cache hit
    #: or resumed from disk) rather than computed by this execution.
    cached: tuple[bool, ...] = ()
    #: Reuse-tier counters this execution contributed (e.g. ``builds_
    #: performed``/``builds_reused`` from the compiled-scenario cache,
    #: ``result_cache_hits``/``result_cache_misses`` from the result
    #: cache).  Execution metadata like ``wall_s`` — describes one
    #: machine's run, so it stays out of the persisted manifest.
    exec_stats: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
        object.__setattr__(self, "run_wall_s", tuple(self.run_wall_s))
        object.__setattr__(self, "cached",
                           tuple(bool(flag) for flag in self.cached))
        # Empty metadata tuples mean "unknown" and are padded downstream;
        # a non-empty but wrong-length one would silently zip-truncate
        # the manifest, so it is an error here.
        for name in ("run_wall_s", "cached"):
            values = getattr(self, name)
            if values and len(values) != len(self.records):
                raise ValueError(
                    f"{name} has {len(values)} entries for "
                    f"{len(self.records)} records")

    def __len__(self) -> int:
        return len(self.records)

    @property
    def cached_count(self) -> int:
        """How many records were reused without recompute."""
        return sum(self.cached)

    # -- aggregation ------------------------------------------------------

    def group_by(self, key: str) -> dict[Any, tuple[RunRecord, ...]]:
        """Records bucketed by one axis label (or ``scenario``/``seed``),
        in first-seen order."""
        groups: dict[Any, list[RunRecord]] = {}
        for record in self.records:
            groups.setdefault(record.axis_value(key), []).append(record)
        return {value: tuple(records)
                for value, records in groups.items()}

    def variants(self) -> dict[tuple[tuple[str, Any], ...],
                               tuple[RunRecord, ...]]:
        """Records grouped per variant (all seeds together), keyed by
        :meth:`~repro.fleet.sweep.RunRecord.variant_key`."""
        groups: dict[tuple[tuple[str, Any], ...], list[RunRecord]] = {}
        for record in self.records:
            groups.setdefault(record.variant_key(), []).append(record)
        return {key: tuple(records) for key, records in groups.items()}

    def summary_rows(self) -> tuple[list[str], list[list[Any]]]:
        """``(header, rows)`` of the per-variant digest across seeds.

        Means are averaged across the variant's seeds; ``spread`` is
        the across-seed standard deviation of the mobile mean (0 for a
        single seed).
        """
        header = ["scenario"]
        header += [axis.label for axis in self.sweep.axes]
        header += ["seeds", "mobile mean (ms)", "seed spread (ms)",
                   "x wired", "exceedance (%)", "detour (km)"]
        rows: list[list[Any]] = []
        for key, records in self.variants().items():
            values = dict(key)
            means = [r.summary.gap.mobile_mean_s * 1e3 for r in records]
            row: list[Any] = [values.get("scenario", records[0].scenario)]
            row += [values.get(axis.label) for axis in self.sweep.axes]
            row += [
                len(records),
                pystats.fmean(means),
                pystats.stdev(means) if len(means) > 1 else 0.0,
                pystats.fmean(r.summary.gap.mobile_wired_factor
                              for r in records),
                pystats.fmean(r.summary.gap.exceedance_percent
                              for r in records),
                pystats.fmean(r.summary.detour_km for r in records),
            ]
            rows.append(row)
        return header, rows

    def to_csv(self, path: str | Path) -> str:
        """Flat per-run CSV (one row per record); returns the path."""
        header = ["run_id", "scenario", "seed", "density"]
        header += [axis.label for axis in self.sweep.axes]
        header += ["samples", "mobile_mean_ms", "wired_mean_ms",
                   "mobile_wired_factor", "exceedance_percent",
                   "max_cell", "max_cell_mean_ms", "detour_km"]
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            for record in self.records:
                gap = record.summary.gap
                row: list[Any] = [record.run_id, record.scenario,
                                  record.seed, record.density]
                row += [record.axis_value(axis.label)
                        for axis in self.sweep.axes]
                row += [record.summary.sample_count,
                        f"{gap.mobile_mean_s * 1e3:.6f}",
                        f"{gap.wired_mean_s * 1e3:.6f}",
                        f"{gap.mobile_wired_factor:.6f}",
                        f"{gap.exceedance_percent:.3f}",
                        gap.max_cell_label,
                        f"{gap.max_cell_mean_s * 1e3:.6f}",
                        f"{record.summary.detour_km:.3f}"]
                writer.writerow(row)
        return str(target)


class FleetStore:
    """Reads and writes one fleet directory.

    Manifests and records are written through :func:`write_atomic`, so
    a reader on another thread or process (the service's progress
    endpoints, a resumed sweep) never observes a half-written one.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def read_manifest(self) -> dict[str, Any]:
        """The raw manifest dict, schema-checked."""
        if not self.manifest_path.exists():
            raise FileNotFoundError(
                f"no fleet manifest at {self.manifest_path}")
        manifest = json.loads(self.manifest_path.read_text())
        schema = manifest.get("schema", 1)
        if schema > SCHEMA_VERSION:
            raise ValueError(
                f"fleet manifest schema {schema} is newer than the "
                f"supported {SCHEMA_VERSION}")
        return manifest

    def begin(self, sweep: SweepSpec, *, jobs: int = 1,
              backend: str = "serial") -> Path:
        """Write the resumable skeleton manifest before any run lands.

        An interrupted sweep then leaves the sweep spec plus whatever
        run files made it to disk — exactly what :meth:`resume` needs.
        """
        (self.directory / RUNS_DIR).mkdir(parents=True, exist_ok=True)
        manifest = {"schema": SCHEMA_VERSION,
                    "sweep": sweep.to_dict(),
                    "jobs": jobs,
                    "backend": backend,
                    "wall_s": 0.0,
                    "complete": False,
                    "runs": []}
        return write_atomic(
            self.manifest_path, json.dumps(manifest, indent=2) + "\n")

    def write_record(self, record: RunRecord) -> Path:
        """Persist one run record; idempotent per ``run_id``."""
        path = self.directory / RUNS_DIR / f"{record.run_id}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        return write_atomic(path, record.to_json() + "\n")

    def read_record(self, run_id: str) -> RunRecord:
        """The stored record of ``run_id``; ``OSError`` when there is
        none, ``ValueError`` when it does not parse."""
        path = self.directory / RUNS_DIR / f"{run_id}.json"
        return RunRecord.from_json(path.read_text())

    def existing_records(self) -> dict[str, RunRecord]:
        """Parseable run records already on disk, keyed by run id.

        Corrupt or half-written files are skipped — :meth:`resume`
        recomputes and overwrites them.
        """
        runs_dir = self.directory / RUNS_DIR
        records: dict[str, RunRecord] = {}
        if not runs_dir.is_dir():
            return records
        for path in sorted(runs_dir.glob("*.json")):
            try:
                record = RunRecord.from_json(path.read_text())
            except (KeyError, TypeError, ValueError):
                continue
            records[record.run_id] = record
        return records

    def save(self, result: FleetResult, *,
             rewrite_records: bool = True) -> dict[str, str]:
        """Persist the manifest, every run record, and the flat CSV;
        returns ``{name: path}`` for everything written.

        ``rewrite_records=False`` skips the per-run files — for the
        runner, which already streamed each one via
        :meth:`write_record` as it finished.
        """
        paths: dict[str, str] = {}
        wall = list(result.run_wall_s) or [0.0] * len(result.records)
        flags = list(result.cached) or [False] * len(result.records)
        entries: list[dict[str, Any]] = []
        for record, wall_s, cached in zip(result.records, wall, flags):
            relative = f"{RUNS_DIR}/{record.run_id}.json"
            if rewrite_records:
                self.write_record(record)
            paths[record.run_id] = str(self.directory / relative)
            entries.append({"run_id": record.run_id,
                            "scenario": record.scenario,
                            "seed": record.seed,
                            "spec_key": record.spec_key,
                            "variant": [list(p) for p in record.variant],
                            "file": relative,
                            "wall_s": wall_s,
                            "cached": cached})
        manifest = {"schema": SCHEMA_VERSION,
                    "sweep": result.sweep.to_dict(),
                    "jobs": result.jobs,
                    "backend": result.backend,
                    "wall_s": result.wall_s,
                    "complete": True,
                    "runs": entries}
        write_atomic(
            self.manifest_path, json.dumps(manifest, indent=2) + "\n")
        paths["manifest"] = str(self.manifest_path)
        paths["summary.csv"] = result.to_csv(
            self.directory / "summary.csv")
        return paths

    def load(self) -> FleetResult:
        """Reconstruct a :class:`FleetResult` from the directory.

        Reads both manifest schemas: v1 entries simply lack the
        backend name and cache flags.
        """
        manifest = self.read_manifest()
        records: list[RunRecord] = []
        run_wall_s: list[float] = []
        cached: list[bool] = []
        for entry in manifest["runs"]:
            text = (self.directory / entry["file"]).read_text()
            records.append(RunRecord.from_json(text))
            run_wall_s.append(entry.get("wall_s", 0.0))
            cached.append(entry.get("cached", False))
        return FleetResult(
            sweep=SweepSpec.from_dict(manifest["sweep"]),
            records=tuple(records),
            run_wall_s=tuple(run_wall_s),
            wall_s=manifest.get("wall_s", 0.0),
            jobs=manifest.get("jobs", 1),
            backend=manifest.get("backend", "serial"),
            cached=tuple(cached),
        )

    def matching_records(self, runs: Sequence[RunSpec]
                         ) -> dict[str, RunRecord]:
        """The records on disk that answer one of ``runs``, keyed by
        run id; each file is parsed once.

        A record counts only if its ``spec_key`` verifies against its
        run — a record left by an earlier sweep whose manifest spec has
        since been edited is stale, not present, and so is a
        digest-less one.
        """
        existing = self.existing_records()
        return {run.run_id: existing[run.run_id] for run in runs
                if run.run_id in existing
                and record_matches_spec(existing[run.run_id], run)}

    def missing_runs(self) -> tuple[RunSpec, ...]:
        """The expansion's runs with no matching record on disk (see
        :meth:`matching_records`)."""
        runs = SweepSpec.from_dict(self.read_manifest()["sweep"]).expand()
        present = self.matching_records(runs)
        return tuple(run for run in runs if run.run_id not in present)

    def resume(self, *, jobs: int = 1, executor: "ExecutorLike" = None,
               cache: "CacheLike" = None,
               progress: "Optional[ProgressFn]" = None) -> FleetResult:
        """Complete a partially-written fleet directory.

        Re-expands the manifest's sweep, keeps every record already on
        disk (flagged ``cached`` in the result), executes only the
        missing :class:`RunSpec`\\ s, and rewrites the directory as a
        finished fleet.
        """
        from .runner import resume_sweep  # deferred: runner imports us
        return resume_sweep(self.directory, jobs=jobs, executor=executor,
                            cache=cache, progress=progress)
