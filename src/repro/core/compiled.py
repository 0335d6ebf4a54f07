"""Compiled scenarios: the build half of a run, reusable across runs.

:class:`~repro.core.evaluation.InfrastructureEvaluation` rebuilds the
whole world for every run even when a sweep only perturbs sampling
knobs — handover probabilities, congestion anchors, peer radio
situations.  A :class:`CompiledScenario` snapshots everything the build
layers produce (the kernel precompute, the wired baseline, the detour
length, the base campaign config, the seeded extra-load draws) under
its :func:`~repro.scenarios.identity.build_key`, and
:meth:`CompiledScenario.evaluate` replays only the sampling phase for
any spec sharing that key — bit-identical to a from-scratch
``InfrastructureEvaluation(...).run().summary()`` because

* every sampling draw comes from fresh named streams of a fresh
  :class:`~repro.sim.rng.RngRegistry` rooted at the same seed, exactly
  the streams a fresh build would hand the campaign;
* the wired baseline and the route walk live on their own named
  streams, so hoisting them to compile time is invisible;
* sampling-layer config is reconstructed from the *variant* spec on
  top of the compiled draws by
  :func:`~repro.scenarios.build.with_sampling_layer`, the helper the
  build itself uses (anchors overwrite the seeded draws without
  consuming any stream).

The object is deliberately lean — no topology, no routing graphs, no
generators — so it pickles quickly into the on-disk compiled store
(:class:`repro.fleet.compiled.CompiledScenarioCache`).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from ..geo.grid import CellId, Grid
from ..probes.campaign import CampaignConfig
from ..probes.kernel import CampaignKernel, KernelPrecompute, sample_run
from ..probes.stats import CellStatistics
from ..scenarios.build import build, with_sampling_layer
from ..scenarios.identity import build_key
from ..scenarios.spec import ScenarioSpec
from ..sim.rng import RngRegistry
from .evaluation import EvaluationSummary
from .gap import GapAnalysis

__all__ = ["CompiledScenario"]


class CompiledScenario:
    """One build's precomputed state, ready to sample any variant.

    Compiling runs the full scenario build plus the kernel precompute
    once; :meth:`evaluate` then costs only the sampling phase.  All
    runs must share this object's ``(build layers, seed, density)`` —
    guarded by the ``build_key`` check.
    """

    #: bump when the pickled layout changes; the on-disk store treats
    #: a mismatch as a miss and recompiles
    SCHEMA = 4

    def __init__(self, spec: ScenarioSpec, seed: int = 42,
                 density: float = 6.0):
        self.schema = self.SCHEMA
        self.seed = int(seed)
        self.density = float(density)
        self.build_key = build_key(spec, seed, density)
        scenario = build(spec, seed=seed)
        kernel = CampaignKernel(scenario.campaign(density))
        self.precompute: KernelPrecompute = kernel.precompute()
        self.wired_rtts_s: np.ndarray = scenario.wired_baseline()
        self.detour_km: float = scenario.detour_route_km()
        self._grid: Grid = scenario.grid
        self._base_config: CampaignConfig = scenario.campaign_config
        self._extra_load_draws: dict[CellId, float] = \
            scenario.extra_load_draws
        self._site_count = len(self.precompute.gnb_names)

    def _variant_config(self, spec: ScenarioSpec) -> CampaignConfig:
        """The sampling-layer config of ``spec`` over the shared build;
        build-layer fields come verbatim from the base config (the
        ``build_key`` check guarantees they match)."""
        camp = spec.campaign
        # Same guard DriveTestCampaign.__init__ applies, since no
        # campaign object exists on this path.
        if camp.peer_site_index >= self._site_count:
            raise ValueError(
                f"peer site index {camp.peer_site_index} out of range: "
                f"radio network has {self._site_count} sites")
        return with_sampling_layer(self._base_config, camp,
                                   self._extra_load_draws)

    def evaluate(self, spec: ScenarioSpec, *,
                 block_cache: Optional[dict[Any, np.ndarray]] = None,
                 check_key: bool = True) -> EvaluationSummary:
        """Run ``spec``'s sampling phase against the shared build.

        Returns the :class:`EvaluationSummary` a full
        ``InfrastructureEvaluation(seed, density, spec).run().summary()``
        would, bit for bit.  Pass one ``block_cache`` dict across calls
        to share each cell's random draws (its draw tape, see
        :mod:`repro.probes.kernel`) between runs: a run redraws only
        the cells whose draw consumption differs from every earlier
        run's, and computes its own RTTs from the shared tapes.
        ``check_key=False`` skips the identity check when the caller
        already grouped specs by build key.
        """
        if check_key and \
                build_key(spec, self.seed, self.density) != self.build_key:
            raise ValueError(
                f"spec {spec.name!r} does not share this compiled "
                f"scenario's build key")
        config = self._variant_config(spec)
        dataset = sample_run(self.precompute, config,
                             RngRegistry(self.seed).streams, block_cache)
        stats = CellStatistics(self._grid, dataset)
        gap = GapAnalysis().report(stats, self.wired_rtts_s)
        return EvaluationSummary.of_run(
            spec.name, self.seed, self.density, len(dataset), stats, gap,
            self.detour_km)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"CompiledScenario(key={self.build_key[:12]}..., "
                f"seed={self.seed}, density={self.density})")
