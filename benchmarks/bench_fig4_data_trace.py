"""Fig. 4 — the geographic data trace of the local service request.

Paper values reproduced:

* the route leaves Austria: Vienna -> Prague -> Bucharest -> Vienna;
* total geographic loop of **~2544 km** for endpoints < 5 km apart;
* the detour is a *policy* artifact: with Gao-Rexford routing disabled
  (pure shortest-latency paths over the same physical links), the
  loop shrinks — quantifying how much of the path is economics, not
  physics.

Timed work: the geographic route derivation from the trace.
"""

import pytest

from repro import units


def test_fig4_detour_distance(benchmark, scenario):
    km = benchmark(scenario.detour_route_km)
    assert km == pytest.approx(2544.0, rel=0.02)
    print(f"\npaper:    2544 km (Klagenfurt-Vienna-Prague-Bucharest-Vienna)")
    print(f"measured: {km:.0f} km")


def test_fig4_route_crosses_three_countries(scenario):
    trace = scenario.reference_trace()
    lats = [scenario.topology.node(h.node_name).location.lat
            for h in trace.hops]
    lons = [scenario.topology.node(h.node_name).location.lon
            for h in trace.hops]
    assert max(lats) > 49.5      # Prague
    assert max(lons) > 25.0      # Bucharest


def test_fig4_policy_vs_shortest_path_ablation(scenario):
    """The detour exists only under policy routing: the latency-shortest
    path over the same graph never leaves the Vienna corridor."""
    topo = scenario.topology
    policy_path = list(scenario.routes.route("ue-c2", "probe-uni").path)
    shortest = topo.shortest_path("ue-c2", "probe-uni")
    policy_km = units.to_km(topo.geographic_path_length(policy_path))
    shortest_km = units.to_km(topo.geographic_path_length(shortest))
    # The physical graph offers no Klagenfurt shortcut (that is the
    # point of Sec. V-A), but pure shortest-path still avoids the
    # Bucharest loop.
    assert shortest_km < policy_km
    print(f"\npolicy-routed path: {policy_km:.0f} km of cable; "
          f"latency-shortest path: {shortest_km:.0f} km")
