#!/usr/bin/env python
"""Local peering optimization (Section V-A) end to end.

Shows the Table I trace before the fix, applies the Klagenfurt IXP
peering (plus local user-plane breakout), and traces again — the
Vienna-Prague-Bucharest-Vienna loop collapses to a metro hop and the
RTT approaches the ~1 ms the paper cites from [3].

Run:  python examples/peering_study.py
"""

from repro import units
from repro.core import LocalPeeringExperiment
from repro.net import traceroute
from repro.scenarios import build, klagenfurt


def main() -> None:
    scenario = build(klagenfurt(), seed=42)
    experiment = LocalPeeringExperiment(scenario)

    print("BEFORE — the measured reality (Table I):\n")
    print(experiment.baseline_trace().render_table(
        title="NETWORKING HOPS FOR LOCAL SERVICE REQUEST"))
    print()

    outcome = experiment.run()

    print("AFTER — Klagenfurt IXP peering + local breakout:\n")
    after_route = scenario.routes.route("ue-c2", "probe-uni")
    print(traceroute(scenario.topology, after_route).render_table(
        title="NETWORKING HOPS AFTER LOCAL PEERING"))
    print()
    print(f"AS path: {outcome.before_as_path} -> {outcome.after_as_path}")
    print(f"geographic route: {outcome.before_path_km:.0f} km -> "
          f"{outcome.after_path_km:.1f} km")
    print(f"RTT: {units.to_ms(outcome.before_rtt_s):.1f} ms -> "
          f"{units.to_ms(outcome.after_rtt_s):.2f} ms "
          f"({outcome.rtt_reduction_factor:.0f}x)")
    print(f"detour eliminated: {outcome.detour_eliminated}")


if __name__ == "__main__":
    main()
