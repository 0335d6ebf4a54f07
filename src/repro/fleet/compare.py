"""Cross-fleet comparison: align record sets by content identity.

Two fleets answering the same questions should agree; when they don't,
the disagreement *is* the result — an implementation change shifted
the numbers, a base spec was edited between campaigns, or the variant
grids themselves drifted apart.  This module loads two or more record
sets (fleet directories or content-addressed result caches), aligns
them run-by-run on content identity (the ``spec_key`` digest), and
reduces the differences to a per-variant delta report over the
headline metrics: mobile mean, mobile/wired factor, exceedance, detour.

Alignment is two-stage, mirroring the sweep's own decomposition:
variants pair first by their grid coordinates (scenario + axis/value
pairs), then — for variants one side renamed — by the content identity
of their member runs, so a relabelled axis compares clean instead of
reading as a grid change.  Within a paired variant, runs match by
seed and their identities are verified; ``identical_runs`` counts the
pairs whose inputs are provably the same, i.e. whose digests are equal.
Digest-less records (written before manifest schema v3) still pair by
grid coordinates and seed, but never count as identical and never
rescue a renamed variant.  Variants with coordinates (and content) on
only one side are reported as added/removed.

:meth:`FleetComparison.failures` turns the report into a CI gate:
grid drift always fails, and ``(metric, pct)`` thresholds fail any
common variant whose metric moved by more than ``pct`` percent —
``python -m repro compare A B --fail-on mobile_mean_ms:2`` exits
nonzero on regression.
"""

from __future__ import annotations

import csv
import json
import statistics as pystats
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, Union

from .cache import OBJECTS_DIR, ResultCache
from .store import MANIFEST_NAME, RUNS_DIR, FleetStore
from .sweep import RunRecord

__all__ = [
    "COMPARE_METRICS",
    "FleetComparison",
    "MetricDelta",
    "RecordSet",
    "VariantDelta",
    "compare_paths",
    "compare_record_sets",
    "parse_fail_on",
    "variant_label",
]

#: The comparable headline metrics: name -> extractor over one record.
COMPARE_METRICS: dict[str, Callable[[RunRecord], float]] = {
    "mobile_mean_ms": lambda r: r.summary.gap.mobile_mean_s * 1e3,
    "mobile_wired_factor": lambda r: r.summary.gap.mobile_wired_factor,
    "exceedance_percent": lambda r: r.summary.gap.exceedance_percent,
    "detour_km": lambda r: r.summary.detour_km,
}

VariantKey = tuple[tuple[str, Any], ...]


def variant_label(key: VariantKey) -> str:
    """One-line human form of a variant key: ``a=1, b=2``."""
    return ", ".join(f"{name}={value}" for name, value in key)


def _same_inputs(a: RunRecord, b: RunRecord) -> bool:
    """Whether two records were provably computed from identical
    inputs: both carry the same ``spec_key`` digest."""
    return bool(a.spec_key) and a.spec_key == b.spec_key


@dataclass(frozen=True)
class RecordSet:
    """A labelled bag of run records — one side of a comparison."""

    label: str
    records: tuple[RunRecord, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))

    def __len__(self) -> int:
        return len(self.records)

    def variants(self) -> dict[VariantKey, tuple[RunRecord, ...]]:
        """Records grouped by grid coordinates
        (:meth:`~repro.fleet.sweep.RunRecord.variant_key` — variant
        pairs + scenario + density), in first-seen order."""
        groups: dict[VariantKey, list[RunRecord]] = {}
        for record in self.records:
            groups.setdefault(record.variant_key(), []).append(record)
        return {key: tuple(records) for key, records in groups.items()}

    @classmethod
    def from_path(cls, path: Union[str, Path], *,
                  label: str = "") -> "RecordSet":
        """Load a fleet directory (``manifest.json`` or ``runs/``) or a
        result cache (``objects/``) as one record set.

        A fleet without a complete manifest contributes the records in
        ``runs/``: an interrupted sweep (skeleton manifest, not yet
        marked ``complete``) the ones streamed before the crash, a
        run-list fleet (``runs/`` and no manifest, as the service
        writes for ``sweep --backend remote``) all of its records.
        """
        root = Path(path)
        store = FleetStore(root)
        has_manifest = store.manifest_path.exists()
        if has_manifest and store.read_manifest().get("complete", True):
            records = store.load().records
        elif has_manifest or (root / RUNS_DIR).is_dir():
            records = tuple(store.existing_records().values())
        elif (root / OBJECTS_DIR).is_dir():
            records = tuple(ResultCache(root).iter_records())
        else:
            raise FileNotFoundError(
                f"{root} is neither a fleet directory ({MANIFEST_NAME} "
                f"or {RUNS_DIR}/) nor a result cache ({OBJECTS_DIR}/)")
        return cls(label=label or root.name or str(root),
                   records=records)


@dataclass(frozen=True)
class MetricDelta:
    """One metric's movement between baseline and candidate."""

    metric: str
    baseline: float
    candidate: float

    @property
    def delta(self) -> float:
        return self.candidate - self.baseline

    @property
    def pct(self) -> Optional[float]:
        """Percent change against the baseline; ``None`` when the
        baseline is zero and the values differ (unbounded change)."""
        if self.baseline == 0.0:
            return 0.0 if self.delta == 0.0 else None
        return 100.0 * self.delta / abs(self.baseline)

    def trips(self, threshold_pct: float) -> bool:
        """Whether this delta violates a ``pct`` gate (either
        direction; an unbounded change always trips)."""
        return self.pct is None or abs(self.pct) > threshold_pct

    def to_dict(self) -> dict[str, Any]:
        return {"metric": self.metric, "baseline": self.baseline,
                "candidate": self.candidate, "delta": self.delta,
                "pct": self.pct}


@dataclass(frozen=True)
class VariantDelta:
    """One common variant's full delta row set against the baseline."""

    fleet: str                       #: candidate set label
    variant: VariantKey              #: candidate-side coordinates
    baseline_variant: VariantKey     #: baseline-side coordinates
    baseline_seeds: tuple[int, ...]
    candidate_seeds: tuple[int, ...]
    common_seeds: tuple[int, ...]
    #: Seed-paired runs whose content identities match exactly.
    identical_runs: int
    metrics: tuple[MetricDelta, ...]

    @property
    def label(self) -> str:
        return variant_label(self.variant)

    @property
    def renamed(self) -> bool:
        """Whether content matching paired differently-labelled
        variants (e.g. an axis renamed between sweeps)."""
        return self.variant != self.baseline_variant

    def to_dict(self) -> dict[str, Any]:
        return {
            "fleet": self.fleet,
            "variant": [list(p) for p in self.variant],
            "baseline_variant": [list(p) for p in self.baseline_variant],
            "baseline_seeds": list(self.baseline_seeds),
            "candidate_seeds": list(self.candidate_seeds),
            "common_seeds": list(self.common_seeds),
            "identical_runs": self.identical_runs,
            "metrics": [m.to_dict() for m in self.metrics],
        }


@dataclass(frozen=True)
class FleetComparison:
    """The aligned delta report across one baseline and N candidates."""

    baseline: str
    candidates: tuple[str, ...]
    deltas: tuple[VariantDelta, ...]
    #: ``(fleet, variant)`` present in a candidate but not the baseline.
    added: tuple[tuple[str, VariantKey], ...]
    #: ``(fleet, variant)`` present in the baseline but not a candidate.
    removed: tuple[tuple[str, VariantKey], ...]

    @property
    def identical_runs(self) -> int:
        return sum(d.identical_runs for d in self.deltas)

    @property
    def paired_runs(self) -> int:
        return sum(len(d.common_seeds) for d in self.deltas)

    def failures(self, gates: Sequence[tuple[str, float]] = ()
                 ) -> tuple[str, ...]:
        """Every gate violation, human-readable.

        Grid drift (added/removed variants) always counts — a
        regression gate comparing mismatched grids is vacuous — and
        each ``(metric, pct)`` gate trips on any common variant whose
        metric moved more than ``pct`` percent in either direction.
        """
        messages: list[str] = []
        for fleet, key in self.removed:
            messages.append(f"{fleet}: baseline variant "
                            f"[{variant_label(key)}] has no counterpart")
        for fleet, key in self.added:
            messages.append(f"{fleet}: variant [{variant_label(key)}] "
                            f"not in baseline")
        for delta in self.deltas:
            for metric_delta in delta.metrics:
                for metric, threshold in gates:
                    if metric_delta.metric != metric:
                        continue
                    if metric_delta.trips(threshold):
                        pct = metric_delta.pct
                        moved = ("unbounded" if pct is None
                                 else f"{pct:+.3f}%")
                        messages.append(
                            f"{delta.fleet}: [{delta.label}] {metric} "
                            f"moved {moved} "
                            f"({metric_delta.baseline:g} -> "
                            f"{metric_delta.candidate:g}), "
                            f"gate {threshold:g}%")
        return tuple(messages)

    # -- serialisation ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "baseline": self.baseline,
            "candidates": list(self.candidates),
            "deltas": [d.to_dict() for d in self.deltas],
            "added": [{"fleet": fleet,
                       "variant": [list(p) for p in key]}
                      for fleet, key in self.added],
            "removed": [{"fleet": fleet,
                         "variant": [list(p) for p in key]}
                        for fleet, key in self.removed],
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def to_csv(self, path: Union[str, Path]) -> str:
        """Flat delta rows (plus added/removed markers); returns the
        written path."""
        header = ["fleet", "status", "variant", "metric",
                  "baseline", "candidate", "delta", "delta_pct"]
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            for delta in self.deltas:
                for m in delta.metrics:
                    writer.writerow([
                        delta.fleet, "common", delta.label, m.metric,
                        f"{m.baseline:.6f}", f"{m.candidate:.6f}",
                        f"{m.delta:.6f}",
                        "" if m.pct is None else f"{m.pct:.6f}"])
            for fleet, key in self.added:
                writer.writerow([fleet, "added", variant_label(key),
                                 "", "", "", "", ""])
            for fleet, key in self.removed:
                writer.writerow([fleet, "removed", variant_label(key),
                                 "", "", "", "", ""])
        return str(target)


def _digest_owners(base_variants: dict[VariantKey, tuple[RunRecord, ...]],
                   keys: Sequence[VariantKey]) -> dict[str, VariantKey]:
    """Baseline run digests -> owning variant key, built once per
    candidate set so label-drift rescue stays linear in record count.
    Digest-less records own nothing."""
    owners: dict[str, VariantKey] = {}
    for key in keys:
        for record in base_variants[key]:
            if record.spec_key:
                owners.setdefault(record.spec_key, key)
    return owners


def _content_match(owners: dict[str, VariantKey],
                   unmatched_base: Sequence[VariantKey],
                   cand_records: Sequence[RunRecord]
                   ) -> Optional[VariantKey]:
    """The base variant holding this candidate variant's runs, if any.

    Rescues variants whose labels drifted (a renamed axis) but whose
    content did not: a majority of the candidate's runs must match a
    single still-unclaimed base variant's runs by content identity.
    """
    votes: dict[VariantKey, int] = {}
    for record in cand_records:
        key = owners.get(record.spec_key)
        if key is not None and key in unmatched_base:
            votes[key] = votes.get(key, 0) + 1
    if not votes:
        return None
    best = max(votes, key=lambda key: votes[key])
    return best if votes[best] * 2 > len(cand_records) else None


def compare_record_sets(baseline: RecordSet,
                        candidates: Sequence[RecordSet]
                        ) -> FleetComparison:
    """Align every candidate set against the baseline.

    Variants pair by grid coordinates first, then by run content
    identity for coordinate keys only one side has (label drift);
    whatever still pairs nowhere is reported added (candidate-only) or
    removed (baseline-only).  Within a pair, metrics are averaged over
    the seeds both sides ran.
    """
    base_variants = baseline.variants()
    deltas: list[VariantDelta] = []
    added: list[tuple[str, VariantKey]] = []
    removed: list[tuple[str, VariantKey]] = []

    for candidate in candidates:
        cand_variants = candidate.variants()
        pairs: list[tuple[VariantKey, VariantKey]] = []
        unmatched_base = [key for key in base_variants
                          if key not in cand_variants]
        owners = _digest_owners(base_variants, unmatched_base)
        for key in cand_variants:
            if key in base_variants:
                pairs.append((key, key))
        for key in cand_variants:
            if key in base_variants:
                continue
            match = _content_match(owners, unmatched_base,
                                   cand_variants[key])
            if match is not None:
                pairs.append((key, match))
                unmatched_base.remove(match)
            else:
                added.append((candidate.label, key))
        removed.extend((candidate.label, key)
                       for key in unmatched_base)

        for cand_key, base_key in pairs:
            base_by_seed = {r.seed: r for r in base_variants[base_key]}
            cand_by_seed = {r.seed: r for r in cand_variants[cand_key]}
            common = tuple(sorted(set(base_by_seed) & set(cand_by_seed)))
            # Seed-paired records when the seed sets overlap; each
            # side's full population otherwise (still comparable as
            # across-seed means, just not run-by-run).
            base_side = ([base_by_seed[s] for s in common]
                         or list(base_variants[base_key]))
            cand_side = ([cand_by_seed[s] for s in common]
                         or list(cand_variants[cand_key]))
            metrics = tuple(
                MetricDelta(
                    metric=name,
                    baseline=pystats.fmean(fn(r) for r in base_side),
                    candidate=pystats.fmean(fn(r) for r in cand_side))
                for name, fn in COMPARE_METRICS.items())
            deltas.append(VariantDelta(
                fleet=candidate.label,
                variant=cand_key,
                baseline_variant=base_key,
                baseline_seeds=tuple(sorted(base_by_seed)),
                candidate_seeds=tuple(sorted(cand_by_seed)),
                common_seeds=common,
                identical_runs=sum(
                    1 for s in common
                    if _same_inputs(base_by_seed[s], cand_by_seed[s])),
                metrics=metrics))

    return FleetComparison(
        baseline=baseline.label,
        candidates=tuple(c.label for c in candidates),
        deltas=tuple(deltas),
        added=tuple(added),
        removed=tuple(removed))


def compare_paths(paths: Sequence[Union[str, Path]], *,
                  baseline: Optional[str] = None) -> FleetComparison:
    """Load and compare two or more fleet/cache directories.

    ``baseline`` names the reference set by path or label (directory
    basename); the first path is the default.  Duplicate labels — the
    same directory twice, or same-named directories under different
    parents — are disambiguated with a ``#N`` suffix.
    """
    if len(paths) < 2:
        raise ValueError("compare needs at least two directories")
    sets: list[tuple[str, RecordSet]] = []
    seen: dict[str, int] = {}
    for path in paths:
        loaded = RecordSet.from_path(path)
        count = seen.get(loaded.label, 0) + 1
        seen[loaded.label] = count
        if count > 1:
            loaded = RecordSet(label=f"{loaded.label}#{count}",
                               records=loaded.records)
        sets.append((str(path), loaded))

    index = 0
    if baseline is not None:
        for i, (raw, loaded) in enumerate(sets):
            if baseline in (raw, loaded.label):
                index = i
                break
        else:
            raise ValueError(
                f"baseline {baseline!r} is not among the compared "
                f"paths {[raw for raw, _ in sets]}")
    ordered = [loaded for _, loaded in sets]
    chosen = ordered.pop(index)
    return compare_record_sets(chosen, ordered)


def parse_fail_on(text: str) -> tuple[str, float]:
    """Parse one ``metric:pct`` gate (e.g. ``mobile_mean_ms:2``)."""
    metric, sep, threshold = text.partition(":")
    metric = metric.strip()
    if not sep or metric not in COMPARE_METRICS:
        raise ValueError(
            f"--fail-on wants METRIC:PCT with METRIC one of "
            f"{sorted(COMPARE_METRICS)}, got {text!r}")
    try:
        value = float(threshold)
    except ValueError:
        raise ValueError(
            f"--fail-on threshold must be a number, got "
            f"{threshold!r}") from None
    if value < 0:
        raise ValueError(f"--fail-on threshold must be >= 0, got {value}")
    return metric, value
