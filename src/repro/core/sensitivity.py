"""Sensitivity analysis of the calibration (reviewer's due diligence).

The reproduction calibrates a handful of physical knobs to the paper's
anchor values.  A fair question is how much the headline numbers lean
on each knob: if a ±20 % perturbation of one parameter moves the 270 %
exceedance by 200 points, the reproduction is a curve fit; if the
response is proportionate and monotone, the mechanisms carry the
result.

:class:`SensitivityAnalysis` perturbs one knob at a time and reports
elasticities of the headline metrics (mean RTL, mobile/wired factor,
max-cell mean).  Each question is one run list that the fleet's batch
executor evaluates in one pass, so knobs that keep the baseline's
build replay its compiled world and draw tapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..fleet.sweep import RunSpec
from ..scenarios.klagenfurt import klagenfurt
from ..scenarios.spec import ScenarioSpec

__all__ = ["KnobResult", "SensitivityAnalysis"]


@dataclass(frozen=True)
class KnobResult:
    """Headline metrics under one perturbation of one knob."""

    knob: str
    scale: float              #: multiplicative perturbation applied
    mobile_mean_s: float
    mobile_wired_factor: float
    max_cell_mean_s: float

    def elasticity(self, baseline: "KnobResult") -> float:
        """d(mean)/mean over d(knob)/knob — unitless sensitivity."""
        d_metric = (self.mobile_mean_s - baseline.mobile_mean_s) \
            / baseline.mobile_mean_s
        d_knob = self.scale - 1.0
        if d_knob == 0.0:
            raise ValueError("baseline has no perturbation")
        return d_metric / d_knob


class SensitivityAnalysis:
    """One-at-a-time perturbation of the calibrated knobs.

    Each perturbation is a spec variant of :func:`klagenfurt`
    (:meth:`spec_for`); :meth:`evaluate` runs a list of cases as one
    run list (:meth:`plan`) through the fleet's batch executor.
    """

    KNOBS = ("buffer_service", "cgnat_load", "cell_load", "peer_load",
             "handover_interruption")
    #: the case whose spec is the unperturbed :func:`klagenfurt`
    BASELINE = ("cell_load", 1.0)

    def __init__(self, seed: int = 42,
                 mean_positions_per_cell: float = 3.0):
        self.seed = seed
        self.positions = mean_positions_per_cell

    def spec_for(self, knob: str, scale: float) -> ScenarioSpec:
        """The Klagenfurt spec with one knob scaled by ``scale``.

        ``cell_load`` scales the range of the seeded per-cell draws and
        the anchors; the two load knobs are capped below saturation.
        """
        spec = klagenfurt()
        camp = spec.campaign
        if knob == "buffer_service":
            patch = {"radio.buffer_service_s":
                     spec.radio.buffer_service_s * scale}
        elif knob == "cgnat_load":
            index = next(i for i, gateway in enumerate(camp.gateways)
                         if gateway.name == "vienna")
            patch = {f"campaign.gateways.{index}.load":
                     min(camp.gateways[index].load * scale, 0.97)}
        elif knob == "cell_load":
            lo, hi = camp.extra_load_range
            patch = {"campaign.extra_load_range": (lo * scale, hi * scale),
                     "campaign.extra_load_anchors": tuple(
                         (label, extra * scale)
                         for label, extra in camp.extra_load_anchors)}
        elif knob == "peer_load":
            patch = {f"campaign.peers.{i}.air_load":
                     min(peer.air_load * scale, 0.92)
                     for i, peer in enumerate(camp.peers)}
        elif knob == "handover_interruption":
            patch = {"campaign.handover_interruption_s":
                     camp.handover_interruption_s * scale}
        else:
            raise KeyError(f"unknown knob {knob!r}")
        return spec.with_overrides(patch)

    # -- runs -----------------------------------------------------------------

    def plan(self, cases: Sequence[tuple[str, float]]) -> list[RunSpec]:
        """One run per ``(knob, scale)`` case; ids carry the position,
        so they stay unique even if a case repeats."""
        return [RunSpec(f"c{index:02d}-{knob}-x{scale:g}",
                        self.spec_for(knob, scale), self.seed,
                        self.positions, (("knob", knob), ("scale", scale)))
                for index, (knob, scale) in enumerate(cases)]

    def evaluate(self, cases: Sequence[tuple[str, float]]
                 ) -> list[KnobResult]:
        """The headline metrics of every case, in order."""
        from ..fleet.executors import BatchExecutor  # it imports core

        with BatchExecutor() as executor:
            gaps = [outcome.record.summary.gap
                    for outcome in executor.map(self.plan(cases))]
        return [KnobResult(knob, scale, gap.mobile_mean_s,
                           gap.mobile_wired_factor, gap.max_cell_mean_s)
                for (knob, scale), gap in zip(cases, gaps)]

    def run_knob(self, knob: str, scale: float) -> KnobResult:
        """The campaign with one knob scaled by ``scale``."""
        return self.evaluate([(knob, scale)])[0]

    def baseline(self) -> KnobResult:
        """The unperturbed campaign's headline metrics."""
        return self.run_knob(*self.BASELINE)

    def sweep(self, scales: tuple[float, ...] = (0.8, 1.2)
              ) -> dict[str, list[KnobResult]]:
        """All knobs at every scale; key = knob name."""
        results = self.evaluate([(knob, scale) for scale in scales
                                 for knob in self.KNOBS])
        return {knob: results[index::len(self.KNOBS)]
                for index, knob in enumerate(self.KNOBS)}

    def elasticities(self, scale: float = 1.2) -> dict[str, float]:
        """One-sided elasticity of the mean RTL per knob."""
        base, *results = self.evaluate(
            [self.BASELINE] + [(knob, scale) for knob in self.KNOBS])
        return {result.knob: result.elasticity(base)
                for result in results}
