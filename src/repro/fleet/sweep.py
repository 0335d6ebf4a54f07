"""Sweep declarations: a fleet of runs as one serializable value.

A :class:`SweepSpec` is to a campaign what a
:class:`~repro.scenarios.spec.ScenarioSpec` is to a city: plain data.
It composes base scenario specs, named override axes, and a seed list
into a grid of runs, mirroring the two-stage decomposition of
stochastic programs — the first stage fixes the shared world (base
spec + per-variant overrides), the second stage resolves each variant
under every seed.  ``expand()`` flattens the sweep into concrete
:class:`RunSpec` values; each finished run reduces to a
:class:`RunRecord`, the portable result that crosses process
boundaries and lands in the on-disk store.

Run identity is *content-addressed*: :func:`run_key` hashes a run's
complete inputs — canonical ``(spec JSON, seed, density)`` — into a
SHA-256 digest, every finished :class:`RunRecord` is stamped with that
digest (``spec_key``), and :func:`record_matches_spec` verifies a
stored record against the :class:`RunSpec` it claims to answer.  The
positional ``run_id`` (``name-v012-s42``) is display metadata only;
resume, caching, and cross-fleet comparison all align on content.

:func:`pack_runs` / :func:`unpack_runs` carry a run list compactly —
each distinct base spec once, every run as the dotted-path overrides
that patch it out of its base, checked against its declared
``spec_key`` on the way back in.  The fleet service sends and
journals run lists in that form.

Every class here round-trips losslessly through ``to_dict``/``from_dict``
and JSON, like the scenario layers they build on.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Mapping, Sequence

from ..core.evaluation import EvaluationSummary
from ..scenarios.identity import build_key as spec_build_key
from ..scenarios.spec import FULL_FORM, ScenarioSpec, canonical_dumps

__all__ = [
    "RunRecord",
    "RunSpec",
    "SweepAxis",
    "SweepSpec",
    "canonical_dumps",
    "pack_runs",
    "record_matches_spec",
    "run_key",
    "unpack_runs",
]


def run_key(spec: ScenarioSpec, seed: int, density: float) -> str:
    """SHA-256 content address of one run's complete inputs: the
    digest of ``canonical_dumps({"spec": spec.to_dict(), "seed": seed,
    "density": density})``, its text assembled from the spec layers'
    canonical texts (:class:`~repro.scenarios.spec.CanonicalForm`)."""
    text = (f'{{"density":{canonical_dumps(float(density))},'
            f'"seed":{canonical_dumps(int(seed))},'
            f'"spec":{FULL_FORM.text(spec)}}}')
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class SweepAxis:
    """One named dimension of a sweep: a dotted override path and the
    values it takes."""

    path: str                  #: dotted path for ``with_overrides``
    values: tuple[Any, ...]    #: plain JSON values, one per variant
    name: str = ""             #: display name; defaults to ``path``

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("axis path must be non-empty")
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError(f"axis {self.label!r} has no values")

    @property
    def label(self) -> str:
        return self.name or self.path

    def to_dict(self) -> dict[str, Any]:
        return {"path": self.path, "values": list(self.values),
                "name": self.name}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepAxis":
        return cls(**data)


@dataclass(frozen=True)
class SweepSpec:
    """A fleet declaration: base specs x override axes x seeds.

    ``mode="cartesian"`` crosses every axis with every other;
    ``mode="zip"`` walks all axes in lockstep (they must share one
    length).  Multiple base specs multiply the variant grid across
    cities.  ``density`` is the drive-test sampling density
    (``mean_positions_per_cell``) shared by every run.
    """

    bases: tuple[ScenarioSpec, ...]
    axes: tuple[SweepAxis, ...] = ()
    seeds: tuple[int, ...] = (42,)
    mode: str = "cartesian"
    density: float = 6.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "bases", tuple(
            b if isinstance(b, ScenarioSpec) else ScenarioSpec.from_dict(b)
            for b in self.bases))
        object.__setattr__(self, "axes", tuple(
            a if isinstance(a, SweepAxis) else SweepAxis.from_dict(a)
            for a in self.axes))
        object.__setattr__(self, "seeds",
                           tuple(int(s) for s in self.seeds))
        if not self.bases:
            raise ValueError("sweep needs at least one base scenario")
        names = [b.name for b in self.bases]
        if len(set(names)) != len(names):
            raise ValueError(f"base scenario names must be unique: {names}")
        labels = [a.label for a in self.axes]
        if len(set(labels)) != len(labels):
            raise ValueError(f"axis labels must be unique: {labels}")
        if not self.seeds:
            raise ValueError("sweep needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(
                f"seeds must be unique (run ids collide): {self.seeds}")
        if self.mode not in ("cartesian", "zip"):
            raise ValueError(f"unknown sweep mode {self.mode!r}")
        if self.mode == "zip":
            lengths = {len(a.values) for a in self.axes}
            if len(lengths) > 1:
                raise ValueError(
                    f"zipped axes must share one length, got {sorted(lengths)}")
        if self.density <= 0:
            raise ValueError("density must be positive")

    # -- expansion --------------------------------------------------------

    def combos(self) -> list[tuple[tuple[SweepAxis, Any], ...]]:
        """Per-variant ``(axis, value)`` combinations, in sweep order."""
        if not self.axes:
            return [()]
        if self.mode == "zip":
            return [tuple(zip(self.axes, values))
                    for values in zip(*(a.values for a in self.axes))]
        return [tuple(zip(self.axes, values))
                for values in itertools.product(
                    *(a.values for a in self.axes))]

    @property
    def variant_count(self) -> int:
        """``len(combos())`` per base, without materialising them."""
        lengths = [len(axis.values) for axis in self.axes]
        per_base = (min(lengths, default=1) if self.mode == "zip"
                    else math.prod(lengths))
        return len(self.bases) * per_base

    @property
    def run_count(self) -> int:
        return self.variant_count * len(self.seeds)

    def expand(self) -> tuple["RunSpec", ...]:
        """Flatten into concrete runs: every base x variant x seed."""
        runs: list[RunSpec] = []
        for base in self.bases:
            for index, combo in enumerate(self.combos()):
                patched = base.with_overrides(
                    {axis.path: value for axis, value in combo})
                variant = ((("scenario", base.name),)
                           if len(self.bases) > 1 else ())
                variant += tuple((axis.label, value)
                                 for axis, value in combo)
                for seed in self.seeds:
                    runs.append(RunSpec(
                        run_id=f"{base.name}-v{index:03d}-s{seed}",
                        scenario=patched, seed=seed,
                        density=self.density, variant=variant))
        return tuple(runs)

    # -- serialisation ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "bases": [b.to_dict() for b in self.bases],
            "axes": [a.to_dict() for a in self.axes],
            "seeds": list(self.seeds),
            "mode": self.mode,
            "density": self.density,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        return cls(**data)

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        return cls.from_dict(json.loads(text))


def _variant_pairs(variant: Sequence[Any]) -> tuple[tuple[str, Any], ...]:
    return tuple((str(k), v) for k, v in variant)


@dataclass(frozen=True)
class RunSpec:
    """One concrete unit of fleet work: a patched spec at one seed."""

    run_id: str
    scenario: ScenarioSpec
    seed: int
    density: float = 6.0
    variant: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.run_id:
            raise ValueError("run id must be non-empty")
        if not isinstance(self.scenario, ScenarioSpec):
            object.__setattr__(self, "scenario",
                               ScenarioSpec.from_dict(self.scenario))
        object.__setattr__(self, "variant", _variant_pairs(self.variant))

    def spec_key(self) -> str:
        """The run's content identity: :func:`run_key` over its inputs."""
        return self._spec_key

    @functools.cached_property
    def _spec_key(self) -> str:
        # Hashed once per run: the service verifies, prefills, acks
        # and caches under this key.
        return run_key(self.scenario, self.seed, self.density)

    def build_key(self) -> str:
        """The run's *build* identity: runs sharing it differ only in
        sampling-layer fields and can evaluate against one compiled
        scenario (see :mod:`repro.scenarios.identity`)."""
        return self._build_key

    @functools.cached_property
    def _build_key(self) -> str:
        return spec_build_key(self.scenario, self.seed, self.density)

    def to_dict(self) -> dict[str, Any]:
        return {"run_id": self.run_id,
                "scenario": self.scenario.to_dict(),
                "seed": self.seed, "density": self.density,
                "variant": [list(p) for p in self.variant]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        return cls(**data)


def _plain(value: Any) -> Any:
    """A spec value as the JSON its layer serialises it to."""
    if is_dataclass(value):
        return value.to_dict()  # type: ignore[attr-defined]
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


def _spec_diff(old: Any, new: Any, path: str, out: dict[str, Any]) -> bool:
    """Add to ``out`` the ``with_overrides`` paths that turn ``old``
    into ``new`` exactly.

    Shared sub-layers (``old is new``, as ``with_overrides`` leaves
    every unpatched layer) cost nothing.  A leaf that an override
    cannot reproduce exactly (an int where the base holds a float,
    ``None`` over a value) makes the enclosing layer or tuple go whole;
    ``False`` means even ``old`` itself would have to (the root).
    """
    if old is new:
        return True
    if is_dataclass(old) and type(new) is type(old):
        children = [(f.name, getattr(old, f.name), getattr(new, f.name))
                    for f in fields(old)]
    elif (isinstance(old, tuple) and isinstance(new, tuple)
            and len(old) == len(new)):
        if old == new and FULL_FORM.text(old) == FULL_FORM.text(new):
            return True        # equal down to the serialised bytes
        children = [(str(index), a, b)
                    for index, (a, b) in enumerate(zip(old, new))]
    elif type(old) is type(new) and old == new:
        return True
    elif old is not None and type(old) is not type(new):
        return False
    else:
        children = None
    if children is not None:
        patches: dict[str, Any] = {}
        if all(_spec_diff(a, b, f"{path}.{name}" if path else name,
                          patches)
               for name, a, b in children):
            out.update(patches)
            return True
    if not path:
        return False
    out[path] = _plain(new)
    return True


def pack_runs(runs: Sequence[RunSpec]) -> dict[str, Any]:
    """``runs`` as ``{"bases": [spec], "runs": [compact run]}``.

    Runs sharing a scenario name are written as overrides of the first
    of them, so every base is the spec of the first run that names it
    (with empty overrides); each compact run carries ``run_id``, ``base``
    (an index into ``bases``), ``overrides``, ``seed``, ``density``,
    ``variant`` and its ``spec_key``.  :func:`unpack_runs` reverses it.
    """
    bases: list[ScenarioSpec] = []
    by_name: dict[str, int] = {}
    packed: list[dict[str, Any]] = []
    for run in runs:
        spec = run.scenario
        base = by_name.get(spec.name)
        overrides: dict[str, Any] = {}
        if base is None or not _spec_diff(bases[base], spec, "",
                                          overrides):
            base = len(bases)
            bases.append(spec)
            by_name.setdefault(spec.name, base)
            overrides = {}
        packed.append({"run_id": run.run_id, "base": base,
                       "overrides": overrides, "seed": run.seed,
                       "density": run.density,
                       "variant": [list(p) for p in run.variant],
                       "spec_key": run.spec_key()})
    return {"bases": [b.to_dict() for b in bases], "runs": packed}


def unpack_runs(payload: Mapping[str, Any]) -> list[RunSpec]:
    """The runs of a :func:`pack_runs` payload, each rebuilt as
    ``base.with_overrides(overrides)`` (so runs share their base's
    unpatched layers) and checked against its declared ``spec_key``.

    Full :class:`RunSpec` dicts (the form before compact run lists)
    are read as they are.  Raises :class:`ValueError` for a run whose
    rebuilt spec does not hash to its ``spec_key``, and ``KeyError``
    or ``TypeError`` for a malformed payload.
    """
    bases = [ScenarioSpec.from_dict(base)
             for base in payload.get("bases") or ()]
    runs: list[RunSpec] = []
    for data in payload["runs"]:
        if "scenario" in data:
            runs.append(RunSpec.from_dict(data))
            continue
        index = data["base"]
        if not (isinstance(index, int) and 0 <= index < len(bases)):
            raise ValueError(f"run {data['run_id']!r}: no base {index!r}")
        run = RunSpec(
            run_id=data["run_id"],
            scenario=bases[index].with_overrides(dict(data["overrides"])),
            seed=data["seed"], density=data["density"],
            variant=data["variant"])
        if run.spec_key() != data["spec_key"]:
            raise ValueError(
                f"run {run.run_id!r}: rebuilt spec does not match its "
                f"spec_key")
        runs.append(run)
    return runs


@dataclass(frozen=True)
class RunRecord:
    """The portable result of one run: metadata + the summary record.

    A pure function of ``(scenario, seed, density)`` — wall-clock
    timing deliberately lives in the manifest, not here, so serial and
    parallel executions of the same sweep produce bit-identical
    records.  ``spec_key`` is the :func:`run_key` digest of the inputs
    the record was computed from and the record's only identity.
    Records written before manifest schema v3 lack it (empty string):
    they still load and serialise back to their original bytes, but
    they answer no run (see :func:`record_matches_spec`).
    """

    run_id: str
    scenario: str
    seed: int
    density: float
    variant: tuple[tuple[str, Any], ...]
    summary: EvaluationSummary
    spec_key: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "variant", _variant_pairs(self.variant))
        if isinstance(self.summary, Mapping):
            object.__setattr__(self, "summary",
                               EvaluationSummary.from_dict(self.summary))

    def variant_key(self) -> tuple[tuple[str, Any], ...]:
        """The record's grid coordinates, shared across seeds: the
        variant pairs with the scenario prepended (when not already an
        axis) and the sampling density appended — the grouping key for
        per-variant aggregation and cross-fleet alignment."""
        key = self.variant
        if not any(name == "scenario" for name, _ in key):
            key = (("scenario", self.scenario),) + key
        return key + (("density", self.density),)

    def axis_value(self, key: str, default: Any = None) -> Any:
        """The run's value on one axis; ``scenario``/``seed`` always
        resolve."""
        for name, value in self.variant:
            if name == key:
                return value
        if key == "scenario":
            return self.scenario
        if key == "seed":
            return self.seed
        return default

    def to_dict(self) -> dict[str, Any]:
        data = {"run_id": self.run_id, "scenario": self.scenario,
                "seed": self.seed, "density": self.density,
                "variant": [list(p) for p in self.variant],
                "summary": self.summary.to_dict()}
        if self.spec_key:
            # Omitted when absent so v2 (digest-less) records
            # round-trip to their original payload bytes.
            data["spec_key"] = self.spec_key
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        return cls(**data)

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        return cls.from_dict(json.loads(text))


def record_matches_spec(record: RunRecord, run: RunSpec) -> bool:
    """Whether ``record`` was computed from exactly ``run``'s inputs:
    its ``spec_key`` equals the run's :func:`run_key` digest.

    The stale-record guard behind resume, recovery and the service's
    result check: matching on ``run_id`` alone would silently reuse
    records computed under an edited spec.  A digest-less (pre-v3)
    record matches no run (a run's digest is never empty), since its
    metadata cannot show which spec it was computed from.
    """
    return record.spec_key == run.spec_key()
