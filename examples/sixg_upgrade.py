#!/usr/bin/env python
"""The 6G upgrade of the measured footprint (Section VI outlook).

Re-runs the complete Section IV drive test over four deployment arms
and prints per-arm Fig. 2-style heatmaps — the experiment the paper's
future work promises ("validate the proposed recommendations").

The study's run list (one run per arm) goes through the fleet's batch
executor, and each heatmap is drawn from its run's record.

The story the numbers tell: edge breakout alone fixes the wired detour
but not the loaded 5G air interface; the 6G radio alone fixes the air
interface but still pays the Vienna hairpin; together they bring every
cell under the 20 ms AR budget, below even the wired baseline.

Run:  python examples/sixg_upgrade.py
"""

from repro import units
from repro.core import (
    SixGUpgradeStudy,
    render_comparison_table,
    render_grid_heatmap,
)
from repro.fleet import BatchExecutor


def main() -> None:
    study = SixGUpgradeStudy()
    plan = study.plan()
    with BatchExecutor() as executor:
        outcomes = list(executor.map(plan))
    rows = []
    heatmaps = {}
    for arm, run, outcome in zip(study.ARMS, plan, outcomes):
        summary = outcome.record.summary
        gap = summary.gap
        rows.append([
            arm.name,
            units.to_ms(gap.mobile_mean_s),
            units.to_ms(gap.max_cell_mean_s),
            gap.mobile_wired_factor,
            "yes" if SixGUpgradeStudy.meets_requirement(gap) else "no",
        ])
        heatmaps[arm.name] = render_grid_heatmap(
            run.scenario.grid.build(), summary.mean_matrix_ms,
            title=f"Mean RTL — {arm.name}")

    print(render_comparison_table(
        ["deployment arm", "mean RTL (ms)", "worst cell (ms)",
         "vs wired", "meets 20 ms"],
        rows, title="6G upgrade study (full campaign per arm)"))
    print()
    print(heatmaps["5G (measured)"])
    print()
    print(heatmaps["6G + edge breakout"])


if __name__ == "__main__":
    main()
