"""Section V-B — UPF integration and placement.

Paper claims reproduced:

* edge UPF integration achieves **5-6.2 ms** service RTT (Barrachina
  [30], Goshi [31]);
* that is a **~90 % reduction** against the measured >62 ms through
  the regional core;
* placement ordering: edge < regional core < central cloud;
* dynamic UPF selection keeps latency-critical flows at the edge and
  offloads bulk to the cloud;
* rule-table growth hurts linear-scan lookup, not the cached path.

Timed work: the three-tier placement comparison and per-packet
processing through the host data plane.
"""

import pytest

from repro import units
from repro.cn import UserPlaneFunction
from repro.core import DynamicUpfSelector, UpfPlacementStudy
from repro.geo import VIENNA
from repro.sim import RngRegistry


@pytest.fixture
def host_upf():
    return UserPlaneFunction(name="upf-host", location=VIENNA,
                             rule_count=30_000, load=0.4)


def test_upf_placement_tiers(benchmark):
    study = UpfPlacementStudy()
    rtts = benchmark(study.compare)

    assert units.ms(5.0) <= rtts["edge"] <= units.ms(6.2)
    assert rtts["edge"] < rtts["regional-core"] < rtts["central-cloud"]
    reduction = study.reduction_vs_measured(units.ms(62.0))
    assert reduction >= 0.90

    print(f"\npaper:    edge UPF 5-6.2 ms; up to 90% below the measured "
          f">62 ms")
    print("measured: "
          + ", ".join(f"{k} {units.to_ms(v):.2f} ms"
                      for k, v in rtts.items())
          + f"; reduction {reduction * 100:.0f}%")


def test_dynamic_upf_selection(benchmark):
    def run_selection():
        study = UpfPlacementStudy()
        selector = DynamicUpfSelector(study, edge_capacity_flows=50)
        anchored = {"edge": 0, "central-cloud": 0}
        # Per-stage AR budget: the 20 ms motion-to-photon budget
        # spread over a three-stage pipeline plus processing
        # leaves ~6 ms per service round trip.
        budgets = [0.006] * 30 + [0.500] * 70
        for budget in budgets:
            anchored[selector.select(budget).name] += 1
        return anchored

    anchored = benchmark(run_selection)
    assert anchored["edge"] == 30          # every AR flow at the edge
    assert anchored["central-cloud"] == 70  # all bulk offloaded


def test_host_path_packet_processing(benchmark, host_upf):
    rng = RngRegistry(3).stream("nic.host")
    latency = benchmark(host_upf.sample_latency_s, rng)
    assert latency > 0


def test_rule_count_sensitivity(host_upf):
    """Linear-scan lookup suffers with table growth; the cached path
    does not."""
    small, big = host_upf.with_rules(1_000), host_upf.with_rules(100_000)
    assert big.lookup_s() > 50 * small.lookup_s()
    assert big.lookup_s(cached=True) == small.lookup_s(cached=True)
