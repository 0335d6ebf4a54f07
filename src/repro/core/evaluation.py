"""One-call orchestration of the full Section IV evaluation.

:class:`InfrastructureEvaluation` is the facade an end user (and every
figure bench) goes through: build the scenario, run the drive test,
aggregate per cell, compute the gap report, and render the figures.
Any world works — pass a registered scenario name (``"klagenfurt"``,
``"skopje"``, ...) or a :class:`~repro.scenarios.spec.ScenarioSpec`,
such as a :meth:`~repro.scenarios.spec.ScenarioSpec.with_overrides`
what-if variant.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Union

import numpy as np

from ..probes.results import MeasurementDataset
from ..probes.stats import CellStatistics
from ..scenarios import build as compile_spec
from ..scenarios import get as get_spec
from ..scenarios.build import BuiltScenario
from ..scenarios.spec import ScenarioSpec, canonical_dumps
from .gap import GapAnalysis, GapReport
from .report import render_grid_heatmap

__all__ = ["EvaluationResult", "EvaluationSummary",
           "InfrastructureEvaluation"]


def _matrix(value, cast: Callable = float) -> tuple[tuple, ...]:
    # Coerce cells to plain Python scalars: stray numpy floats would
    # serialize differently (or not at all) and break digest stability.
    return tuple(tuple(cast(cell) for cell in row) for row in value)


@dataclass(frozen=True)
class EvaluationSummary:
    """The lightweight record of one evaluation run.

    Holds only plain values — per-cell matrices as nested tuples, the
    gap headline numbers, the detour length — so it pickles cheaply
    across process boundaries and round-trips losslessly through JSON.
    The heavyweight compiled world and raw dataset stay behind on
    :class:`EvaluationResult`.
    """

    scenario: str
    seed: int
    mean_positions_per_cell: float
    sample_count: int
    mean_matrix_ms: tuple[tuple[float, ...], ...]
    std_matrix_ms: tuple[tuple[float, ...], ...]
    count_matrix: tuple[tuple[int, ...], ...]
    gap: GapReport
    detour_km: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean_matrix_ms",
                           _matrix(self.mean_matrix_ms))
        object.__setattr__(self, "std_matrix_ms",
                           _matrix(self.std_matrix_ms))
        object.__setattr__(self, "count_matrix",
                           _matrix(self.count_matrix, cast=int))
        if isinstance(self.gap, Mapping):
            object.__setattr__(self, "gap", GapReport(**self.gap))

    @classmethod
    def of_run(cls, scenario: str, seed: int, density: float,
               sample_count: int, stats: CellStatistics, gap: GapReport,
               detour_km: float) -> "EvaluationSummary":
        """The summary of one run from its per-cell statistics; the
        full pipeline and the compiled replay both build it here."""
        return cls(
            scenario=scenario,
            seed=seed,
            mean_positions_per_cell=density,
            sample_count=sample_count,
            mean_matrix_ms=stats.mean_matrix_ms().tolist(),
            std_matrix_ms=stats.std_matrix_ms().tolist(),
            count_matrix=stats.count_matrix().tolist(),
            gap=gap,
            detour_km=detour_km,
        )

    @property
    def mobile_mean_s(self) -> float:
        return self.gap.mobile_mean_s

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "mean_positions_per_cell": self.mean_positions_per_cell,
            "sample_count": self.sample_count,
            "mean_matrix_ms": [list(r) for r in self.mean_matrix_ms],
            "std_matrix_ms": [list(r) for r in self.std_matrix_ms],
            "count_matrix": [list(r) for r in self.count_matrix],
            "gap": asdict(self.gap),
            "detour_km": self.detour_km,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EvaluationSummary":
        return cls(**data)

    def canonical_json(self) -> str:
        """Digest-stable serialization: sorted keys, compact separators
        (:func:`~repro.scenarios.spec.canonical_dumps`, which also
        hashes the record payloads embedding this dict).

        Structurally equal summaries always produce identical bytes.
        """
        return canonical_dumps(self.to_dict())


@dataclass
class EvaluationResult:
    """Everything Section IV produces."""

    scenario: BuiltScenario
    dataset: MeasurementDataset
    statistics: CellStatistics
    wired_rtts_s: np.ndarray
    gap: GapReport
    mean_positions_per_cell: float = 6.0

    def summary(self) -> EvaluationSummary:
        """The run reduced to its portable summary record."""
        return EvaluationSummary.of_run(
            self.scenario.spec.name, self.scenario.seed,
            self.mean_positions_per_cell, len(self.dataset),
            self.statistics, self.gap, self.figure4_km())

    def figure2(self) -> str:
        """Fig. 2: urban mean round-trip time latency heatmap."""
        return render_grid_heatmap(
            self.scenario.grid, self.statistics.mean_matrix_ms(),
            title="Urban Mean Round-trip Time Latency")

    def figure3(self) -> str:
        """Fig. 3: per-cell standard deviation heatmap."""
        return render_grid_heatmap(
            self.scenario.grid, self.statistics.std_matrix_ms(),
            title="Standard Deviation Latency")

    def table1(self) -> str:
        """Table I: the hop chain of the local service request."""
        return self.scenario.reference_trace().render_table(
            title="NETWORKING HOPS FOR LOCAL SERVICE REQUEST")

    def figure4_km(self) -> float:
        """Fig. 4: the geographic detour length (paper: 2544 km)."""
        return self.scenario.detour_route_km()

    def save_artifacts(self, directory) -> dict[str, str]:
        """Write every Section IV artifact to ``directory``.

        Files: ``figure2.txt``, ``figure3.txt``, ``table1.txt``,
        ``gap_summary.txt``, ``campaign.csv`` (the raw dataset) and
        ``wired_baseline.csv``.  Returns ``{artifact: path}``.
        """
        out = Path(directory)
        out.mkdir(parents=True, exist_ok=True)
        paths: dict[str, str] = {}

        def write(name: str, text: str) -> None:
            path = out / name
            path.write_text(text + "\n")
            paths[name] = str(path)

        write("figure2.txt", self.figure2())
        write("figure3.txt", self.figure3())
        write("table1.txt", self.table1())
        write("gap_summary.txt",
              self.gap.summary()
              + f"\nfig4 detour: {self.figure4_km():.0f} km")
        self.dataset.save_csv(out / "campaign.csv")
        paths["campaign.csv"] = str(out / "campaign.csv")
        wired_lines = ["rtt_ms"] + [f"{v * 1e3:.3f}"
                                    for v in self.wired_rtts_s]
        write("wired_baseline.csv", "\n".join(wired_lines))
        return paths


class InfrastructureEvaluation:
    """Builds and runs the whole Section IV pipeline for any scenario.

    Parameters
    ----------
    seed:
        Root seed of every stochastic component.
    mean_positions_per_cell:
        Drive-test sampling density.
    scenario:
        Which world to evaluate: a registered scenario name or a
        :class:`ScenarioSpec`.  Defaults to Klagenfurt, preserving the
        paper's Section IV pipeline exactly.
    """

    def __init__(self, seed: int = 42,
                 mean_positions_per_cell: float = 6.0,
                 scenario: Union[str, ScenarioSpec] = "klagenfurt"):
        if mean_positions_per_cell <= 0:
            raise ValueError("positions per cell must be positive")
        self.seed = seed
        self.mean_positions_per_cell = mean_positions_per_cell
        self.scenario = scenario

    def build_scenario(self) -> BuiltScenario:
        """Compile the configured spec (or look up the named one)."""
        spec = self.scenario if isinstance(self.scenario, ScenarioSpec) \
            else get_spec(self.scenario)
        return compile_spec(spec, seed=self.seed)

    def run(self) -> EvaluationResult:
        """Build the world, execute the campaign, derive all artifacts."""
        sc = self.build_scenario()
        dataset = sc.run_campaign(self.mean_positions_per_cell)
        stats = sc.statistics(dataset)
        wired = sc.wired_baseline()
        gap = GapAnalysis().report(stats, wired)
        return EvaluationResult(
            scenario=sc,
            dataset=dataset,
            statistics=stats,
            wired_rtts_s=wired,
            gap=gap,
            mean_positions_per_cell=self.mean_positions_per_cell,
        )
