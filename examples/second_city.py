#!/usr/bin/env python
"""A second-city campaign built from the declarative scenario API.

The paper's future work: "expand the geographical scope of the
evaluation to include diverse regions".  This example used to hand-wire
~100 lines of grid, population, radio, AS-graph, and campaign objects;
the ``repro.scenarios`` spec API reduces it to *data*: take the
registered Skopje-like spec, apply overrides, and evaluate it — the
Klagenfurt scenario is an *instance*, not a hard-coded special case.

The second city differs deliberately: a smaller 5x5 grid, a single
regional breakout in Sofia (no Frankfurt pool), flatter congestion —
and its campaign still exhibits the paper's qualitative structure
(mobile RTL far above the 20 ms budget).

Run:  python examples/second_city.py
"""

from repro import units
from repro.core import InfrastructureEvaluation, render_grid_heatmap
from repro.scenarios import skopje


def evaluate_city(seed: int = 7):
    # Spec-level what-if: densify the urban core and quieten the
    # congestion field — overrides are dotted-path data, no object
    # wiring.
    spec = skopje().with_overrides({
        "population.core_density": 6000.0,
        "campaign.extra_load_range": (0.02, 0.14),
    })
    return InfrastructureEvaluation(seed, 6.0, scenario=spec).run()


def main() -> None:
    result = evaluate_city()
    stats = result.statistics
    gap = result.gap

    print(render_grid_heatmap(result.scenario.grid, stats.mean_matrix_ms(),
                              title="Skopje-like city: mean RTL"))
    print()
    print(f"samples: {len(result.dataset)}, measured cells: "
          f"{len(stats.measured_cells())}")
    print(f"mobile mean: {units.to_ms(gap.mobile_mean_s):.1f} ms — "
          f"the 20 ms budget is exceeded by "
          f"{gap.exceedance_percent:.0f}% here too")
    print("\nSame structure, different geography: the framework is an")
    print("instance factory, not a Klagenfurt special case.")


if __name__ == "__main__":
    main()
