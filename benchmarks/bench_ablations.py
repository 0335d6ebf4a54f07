"""Ablations of the DESIGN.md design choices.

Quantifies how much each modelled mechanism contributes to the
reproduced phenomenology:

1. **Policy routing** — Gao-Rexford vs pure shortest path: the Fig. 4
   detour is economics, not topology.
2. **RAN bufferbloat** — the buffer-service quantum vs slot-level
   queueing: where the per-cell latency spread comes from.
3. **Gateway breakout** — Vienna vs Frankfurt CGNAT assignment: the
   deterministic mean shift behind B3.
4. **Handover interruptions** — with/without: the heavy tail behind
   E5's sigma.
5. **QoS rule cache** — lookup latency vs rule-table size.
"""

import numpy as np
import pytest

from repro import units
from repro.cn import ContextAwareRuleEngine, QosFlow, UserPlaneFunction
from repro.geo import VIENNA
from repro.geo.grid import CellId
from repro.ran import AirInterface, ChannelModel, RadioConfig


def test_ablation_policy_routing(scenario):
    """Detour km under policy routing vs latency-shortest paths."""
    topo = scenario.topology
    policy = list(scenario.routes.route("gw-vie", "probe-uni").path)
    shortest = topo.shortest_path("gw-vie", "probe-uni")
    policy_km = units.to_km(topo.geographic_path_length(policy))
    shortest_km = units.to_km(topo.geographic_path_length(shortest))
    assert policy_km > 2.0 * shortest_km
    print(f"\npolicy {policy_km:.0f} km vs shortest-path "
          f"{shortest_km:.0f} km ({policy_km / shortest_km:.1f}x)")


def test_ablation_ran_bufferbloat(benchmark):
    """Air RTT at drive-test load, with and without the buffer term."""
    bloated = RadioConfig.nr_5g()
    slotted = RadioConfig.nr_5g(buffer_service_s=bloated.slot_s)
    channel = ChannelModel(bloated.carrier_frequency_hz,
                           antenna_gain_db=25.0)

    def mean_rtts():
        return (AirInterface(bloated, channel).mean_rtt(load=0.8),
                AirInterface(slotted, channel).mean_rtt(load=0.8))

    with_buffer, without = benchmark(mean_rtts)
    # The buffer term carries the loaded-cell latency: without it a
    # loaded cell looks almost idle.
    assert with_buffer > 3.0 * without
    print(f"\nair RTT at 80% load: {units.to_ms(with_buffer):.1f} ms "
          f"with bufferbloat vs {units.to_ms(without):.1f} ms slot-level")


def test_ablation_gateway_breakout(scenario):
    """B3's Frankfurt breakout vs the default Vienna gateway."""
    campaign = scenario.campaign(2.0)
    b3 = CellId.from_label("B3")
    position = scenario.grid.cell_center(b3)
    frankfurt = np.mean([campaign.sample_rtt(position, b3, "probe-uni")
                         for _ in range(40)])
    # Re-assign B3 to the Vienna gateway and re-measure.
    object.__setattr__  # (config is a plain dataclass; mutate the map)
    campaign.config.gateway_by_cell = {}
    vienna = np.mean([campaign.sample_rtt(position, b3, "probe-uni")
                      for _ in range(40)])
    # Frankfurt adds deterministic kilometres; Vienna adds CGNAT
    # queueing.  The means differ by the tunnel propagation minus the
    # CGNAT difference.
    assert frankfurt != pytest.approx(vienna, rel=0.02)
    print(f"\nB3 -> probe: via Frankfurt {frankfurt * 1e3:.1f} ms, "
          f"via Vienna {vienna * 1e3:.1f} ms")


def test_ablation_handover_interruptions(scenario):
    """E5's sigma with and without handover interruptions."""
    campaign = scenario.campaign(2.0)
    e5 = CellId.from_label("E5")
    position = scenario.grid.cell_center(e5)
    with_ho = np.array([campaign.sample_rtt(position, e5, "peer-1")
                        for _ in range(200)])
    saved = dict(campaign.config.handover_prob)
    campaign.config.handover_prob = {}
    without_ho = np.array([campaign.sample_rtt(position, e5, "peer-1")
                           for _ in range(200)])
    campaign.config.handover_prob = saved
    assert with_ho.std(ddof=1) > 1.5 * without_ho.std(ddof=1)
    print(f"\nE5 sigma: {with_ho.std(ddof=1) * 1e3:.1f} ms with "
          f"handovers vs {without_ho.std(ddof=1) * 1e3:.1f} ms without")


def test_ablation_qos_cache_vs_table_size(benchmark):
    """Lookup latency growth with rule count, cached vs scanned."""
    def measure():
        out = {}
        for rules in (1_000, 10_000, 100_000):
            upf = UserPlaneFunction(name="u", location=VIENNA,
                                    rule_count=rules)
            engine = ContextAwareRuleEngine(upf, capacity=8)
            flow = QosFlow("f", "ue", 80)
            miss = engine.lookup(flow)    # cold
            hit = engine.lookup(flow)     # cached
            out[rules] = (miss, hit)
        return out

    results = benchmark(measure)
    misses = [results[r][0] for r in sorted(results)]
    hits = [results[r][1] for r in sorted(results)]
    assert misses[-1] > 50 * misses[0]      # scan cost grows with table
    assert hits[0] == hits[-1]              # cache cost does not
