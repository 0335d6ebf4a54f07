"""Future-work studies (Section VI outlook, built on the same substrate).

The paper's conclusion names four directions; each gets an executable
study here:

* :class:`SixGUpgradeStudy` — "expand ... and validate the proposed
  recommendations": the full drive-test campaign over upgrade arms
  (5G baseline, 5G + edge breakout, 6G, 6G + edge breakout), as one
  run list through the fleet's batch executor.
* :class:`FederatedEdgeStudy` — "federated learning at the edge": FL
  round times under 5G-cloud / 5G-edge / 6G-edge deployments.
* :class:`PredictiveSlicingStudy` — "intelligent network slicing":
  reactive versus predictive slice scaling over a diurnal load trace
  (the hypervisor-placement literature "typically operate[s] in a
  reactive rather than predictive manner").
* energy-efficient management lives in :mod:`repro.ran.energy`; the
  trade-off bench combines it with the latency model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .. import units
from ..apps.federated import FederatedConfig, FederatedRoundModel
from ..fleet.sweep import RunSpec
from ..ran.spectrum import RadioConfig
from ..scenarios.klagenfurt import klagenfurt
from ..scenarios.spec import ScenarioSpec
from .gap import GapReport

__all__ = ["UpgradeArm", "SixGUpgradeStudy", "FederatedEdgeStudy",
           "PredictiveSlicingStudy"]


# ---------------------------------------------------------------------------
# 6G upgrade of the measured footprint
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UpgradeArm:
    """One deployment arm of the upgrade study."""

    name: str
    sixg: bool            #: 6G radio on the same sites (else deployed 5G)
    edge_breakout: bool


class SixGUpgradeStudy:
    """The whole Section IV campaign under each upgrade arm."""

    ARMS: tuple[UpgradeArm, ...] = (
        UpgradeArm("5G (measured)", False, False),
        UpgradeArm("5G + edge breakout", False, True),
        UpgradeArm("6G radio, core unchanged", True, False),
        UpgradeArm("6G + edge breakout", True, True),
    )

    def __init__(self, seed: int = 42,
                 mean_positions_per_cell: float = 4.0):
        self.seed = seed
        self.mean_positions_per_cell = mean_positions_per_cell

    def arm_spec(self, arm: UpgradeArm) -> ScenarioSpec:
        """The Klagenfurt world as deployed under ``arm``."""
        return klagenfurt(
            radio_config=RadioConfig.nr_6g() if arm.sixg else None,
            edge_breakout=arm.edge_breakout)

    def plan(self) -> list[RunSpec]:
        """One run per arm, in :attr:`ARMS` order."""
        return [RunSpec(f"arm{index}", self.arm_spec(arm), self.seed,
                        self.mean_positions_per_cell, (("arm", arm.name),))
                for index, arm in enumerate(self.ARMS)]

    def run(self) -> dict[str, GapReport]:
        """All arms; key = arm name."""
        from ..fleet.executors import BatchExecutor  # it imports core

        with BatchExecutor() as executor:
            outcomes = list(executor.map(self.plan()))
        return {arm.name: outcome.record.summary.gap
                for arm, outcome in zip(self.ARMS, outcomes)}

    @staticmethod
    def meets_requirement(report: GapReport,
                          budget_s: float = units.ms(20.0)) -> bool:
        """Does the arm's *worst cell* meet the AR budget?"""
        return report.max_cell_mean_s <= budget_s


# ---------------------------------------------------------------------------
# Federated learning at the edge
# ---------------------------------------------------------------------------

class FederatedEdgeStudy:
    """FL round times across network deployments.

    Deployments differ in access RTT, aggregator distance and cell
    capacity.  The 5G access RTT is a fixed ~35 ms application-layer
    figure (the one ``bench_phy_distribution.py`` cites), not a campaign
    output; 6G comes from the radio model, cloud RTT from the UPF
    placement study's distances.
    """

    def __init__(self, config: Optional[FederatedConfig] = None):
        self.config = config if config is not None else FederatedConfig()

    def deployments(self) -> dict[str, FederatedRoundModel]:
        """The three FL network deployments (see class docstring)."""
        cfg = self.config
        return {
            # 5G with cloud aggregation: the fixed ~35 ms application-
            # layer access RTT, Frankfurt-distance aggregator.
            "5G + cloud aggregation": FederatedRoundModel(
                cfg,
                cell_uplink_bps=units.mbps(100.0),
                cell_downlink_bps=units.mbps(400.0),
                access_rtt_s=units.ms(35.0),
                aggregator_rtt_s=units.ms(16.0)),
            # 5G with the aggregator at the edge UPF site.
            "5G + edge aggregation": FederatedRoundModel(
                cfg,
                cell_uplink_bps=units.mbps(100.0),
                cell_downlink_bps=units.mbps(400.0),
                access_rtt_s=units.ms(8.0),
                aggregator_rtt_s=0.0),
            # 6G edge: terabit-class cell, 100 us air.
            "6G + edge aggregation": FederatedRoundModel(
                cfg,
                cell_uplink_bps=units.gbps(10.0),
                cell_downlink_bps=units.gbps(40.0),
                access_rtt_s=units.ms(0.3),
                aggregator_rtt_s=0.0),
        }

    def compare(self) -> dict[str, dict[str, float]]:
        """Deployment -> {round_time_s, rounds_per_hour, network_share}."""
        out = {}
        for name, model in self.deployments().items():
            out[name] = {
                "round_time_s": model.round_time_s(),
                "rounds_per_hour": model.rounds_per_hour(),
                "network_share": model.network_share(),
            }
        return out


# ---------------------------------------------------------------------------
# Intelligent (predictive) network slicing
# ---------------------------------------------------------------------------

class PredictiveSlicingStudy:
    """Reactive vs predictive slice scaling over a diurnal load trace.

    A slice needs its reservation to track demand.  The *reactive*
    controller resizes after observing a breach (one control-interval
    lag); the *predictive* controller resizes ahead using a one-step
    forecast.  Score: how many intervals the slice runs above its
    safe-utilisation bound (where queueing, and thus latency, blows up).
    """

    def __init__(self, *, capacity_bps: float = units.gbps(10.0),
                 safe_utilisation: float = 0.7,
                 headroom: float = 1.25):
        if capacity_bps <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 < safe_utilisation < 1.0:
            raise ValueError("safe utilisation must be in (0, 1)")
        if headroom < 1.0:
            raise ValueError("headroom must be >= 1")
        self.capacity_bps = capacity_bps
        self.safe_utilisation = safe_utilisation
        self.headroom = headroom

    def _required_fraction(self, demand_bps: float) -> float:
        """Reservation needed to keep utilisation at the safe bound."""
        return min(1.0, demand_bps
                   / (self.safe_utilisation * self.capacity_bps))

    def run(self, demand_trace_bps: Sequence[float]) -> dict[str, int]:
        """Breach counts for both controllers over the trace."""
        demand = np.asarray(demand_trace_bps, dtype=np.float64)
        if demand.ndim != 1 or demand.size < 3:
            raise ValueError("demand trace must have at least 3 points")
        if demand.min() < 0:
            raise ValueError("demand must be non-negative")
        reactive_breaches = 0
        predictive_breaches = 0
        # Reactive: provision for *yesterday's* observation (lag 1).
        # Predictive: provision for a linear one-step-ahead forecast.
        reactive_frac = self._required_fraction(float(demand[0]))
        predictive_frac = self._required_fraction(float(demand[0]))
        for t in range(1, demand.size):
            need = self._required_fraction(float(demand[t]))
            if need > reactive_frac:
                reactive_breaches += 1
            if need > predictive_frac:
                predictive_breaches += 1
            # Controllers update for the next interval.
            reactive_frac = min(
                1.0, self._required_fraction(float(demand[t]))
                * self.headroom)
            forecast = demand[t] + (demand[t] - demand[t - 1])
            predictive_frac = min(
                1.0, self._required_fraction(float(max(forecast, 0.0)))
                * self.headroom)
        return {"reactive": reactive_breaches,
                "predictive": predictive_breaches}

    @staticmethod
    def diurnal_demand(peak_bps: float, points: int = 96) -> np.ndarray:
        """A smooth diurnal demand trace (15-minute resolution)."""
        if peak_bps <= 0 or points < 4:
            raise ValueError("need positive peak and >= 4 points")
        t = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
        # Double-hump day: morning and evening peaks.
        shape = 0.55 - 0.35 * np.cos(t) + 0.25 * np.sin(2 * t - 0.8)
        shape = np.clip(shape, 0.05, None)
        return peak_bps * shape / shape.max()
