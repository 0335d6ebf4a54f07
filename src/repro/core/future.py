"""The 6G upgrade study (Section VI outlook, on the measured pipeline).

:class:`SixGUpgradeStudy` follows the paper's call to "expand ... and
validate the proposed recommendations": the full drive-test campaign
over four upgrade arms (5G baseline, 5G + edge breakout, 6G, 6G + edge
breakout), as one run list through the fleet's batch executor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import units
from ..fleet.sweep import RunSpec
from ..ran.spectrum import RadioConfig
from ..scenarios.klagenfurt import klagenfurt
from ..scenarios.spec import ScenarioSpec
from .gap import GapReport

__all__ = ["UpgradeArm", "SixGUpgradeStudy"]


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
