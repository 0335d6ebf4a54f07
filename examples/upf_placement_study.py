#!/usr/bin/env python
"""UPF integration study (Section V-B): placement tiers.

Compares the service RTT through edge / regional-core / central-cloud
UPF deployments under the URLLC radio profile, and demonstrates dynamic
UPF selection over a mixed flow population.

Run:  python examples/upf_placement_study.py
"""

from repro import units
from repro.core import (
    DynamicUpfSelector,
    UpfPlacementStudy,
    render_comparison_table,
)


def placement_table(study: UpfPlacementStudy) -> None:
    rows = []
    for deployment in study.deployments():
        rtt = study.mean_rtt_s(deployment)
        rows.append([
            deployment.name,
            deployment.upf.tier.value,
            units.to_km(deployment.backhaul_m),
            units.to_ms(rtt),
            100.0 * study.reduction_vs_measured(units.ms(62.0))
            if deployment.name == "edge" else float("nan"),
        ])
    print(render_comparison_table(
        ["deployment", "tier", "backhaul (km)", "service RTT (ms)",
         "reduction vs 62 ms (%)"],
        rows, title="UPF placement (URLLC radio profile)"))


def dynamic_selection(study: UpfPlacementStudy) -> None:
    selector = DynamicUpfSelector(study, edge_capacity_flows=50)
    flows = [("AR gaming", 0.006)] * 30 + [("video upload", 0.500)] * 70
    anchored = {"edge": 0, "central-cloud": 0}
    for _, budget in flows:
        anchored[selector.select(budget).name] += 1
    print("\nDynamic UPF selection over 100 flows "
          "(30 AR @ 6 ms, 70 bulk @ 500 ms):")
    print(f"  edge-anchored:  {anchored['edge']}")
    print(f"  cloud-anchored: {anchored['central-cloud']}")


def main() -> None:
    study = UpfPlacementStudy()
    placement_table(study)
    dynamic_selection(study)


if __name__ == "__main__":
    main()
