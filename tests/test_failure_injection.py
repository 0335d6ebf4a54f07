"""Failure-injection tests: the models under broken infrastructure.

A reproduction substrate is only trustworthy if it degrades the way the
real systems do: a dead macro site shifts users to worse servers, a cut
peering falls back to the transit detour, an overloaded CGNAT melts
latency.  Each test injects one failure and checks the *direction and
mechanism* of the response.
"""

import numpy as np
import pytest

from repro import units
from repro.core import LocalPeeringExperiment
from repro.geo.grid import CellId
from repro.net import ASGraph, AutonomousSystem
from repro.ran import GNodeB, RadioConfig
from repro.scenarios import build, klagenfurt
from repro.scenarios.klagenfurt import AS_EYEBALL, AS_MOBILE


@pytest.fixture
def scenario():
    return build(klagenfurt(), seed=42)


# ---------------------------------------------------------------------------
# Radio failures
# ---------------------------------------------------------------------------

def test_gnb_outage_degrades_sinr(scenario):
    """Killing a site: nearby UEs re-select a farther server at lower
    SINR (coverage hole), exactly what a real outage does."""
    position = scenario.grid.cell_center(CellId.from_label("D2"))
    before_gnb, before_sinr = scenario.radio.serving(position)
    assert before_gnb.name == "gnb-d2"
    # Outage: remove the serving site from the network.
    scenario.radio._gnbs.pop("gnb-d2")
    after_gnb, after_sinr = scenario.radio.serving(position)
    assert after_gnb.name != "gnb-d2"
    assert after_sinr < before_sinr


def test_gnb_outage_raises_campaign_latency(scenario):
    """The campaign still runs through the outage; mean RTL rises in
    the orphaned cell (HARQ at the degraded SINR)."""
    cell = CellId.from_label("D2")
    position = scenario.grid.cell_center(cell)
    campaign = scenario.campaign(2.0)
    before = np.mean([campaign.sample_rtt(position, cell, "peer-1")
                      for _ in range(60)])
    scenario.radio._gnbs.pop("gnb-d2")
    after = np.mean([campaign.sample_rtt(position, cell, "peer-1")
                     for _ in range(60)])
    assert after > before


def test_overloaded_gnb_rejected():
    with pytest.raises(ValueError):
        GNodeB("sick", location=None or
               __import__("repro.geo", fromlist=["KLAGENFURT"]).KLAGENFURT,
               config=RadioConfig.nr_5g(), load=1.0)


# ---------------------------------------------------------------------------
# Routing failures
# ---------------------------------------------------------------------------

def test_cut_transit_link_breaks_reachability(scenario):
    """Cutting the only Prague peering link: BGP still *selects* the AS
    path, but the stitcher reports the missing border honestly instead
    of silently rerouting."""
    scenario.topology.remove_link("cdn77-vie", "zet-prg")
    scenario.routes.invalidate()
    with pytest.raises(LookupError, match="no border|no intra"):
        scenario.routes.route("ue-c2", "probe-uni")


def test_depeering_reintroduces_detour(scenario):
    """Local peering applied, then torn down (the paper's 'conflicting
    business interests'): the detour comes back."""
    experiment = LocalPeeringExperiment(scenario)
    outcome = experiment.run()
    assert outcome.detour_eliminated
    # The eyeball de-peers the mobile operator.
    scenario.asgraph.remove_peering(AS_MOBILE, AS_EYEBALL)
    scenario.routes.invalidate()
    route = scenario.routes.route("ue-c2", "probe-uni")
    assert len(route.as_path) == 6     # the Table I chain again


def test_redundant_border_survives_single_cut():
    """With two border links between a pair of ASes, cutting one leaves
    connectivity through the other (hot-potato picks the survivor)."""
    from repro.geo import GeoPoint, KLAGENFURT, VIENNA
    from repro.net import Node, NodeKind, RouteComputer, Topology
    topo = Topology()
    asg = ASGraph()
    asg.add(AutonomousSystem(1, "src-as"))
    asg.add(AutonomousSystem(2, "dst-as"))
    asg.set_customer_of(1, 2)
    a = topo.add_node(Node("a", NodeKind.ROUTER, KLAGENFURT, asn=1))
    b1 = topo.add_node(Node("b1", NodeKind.ROUTER, VIENNA, asn=1))
    b2 = topo.add_node(Node("b2", NodeKind.ROUTER,
                            GeoPoint(47.0, 15.4), asn=1))
    c1 = topo.add_node(Node("c1", NodeKind.ROUTER,
                            GeoPoint(48.21, 16.38), asn=2))
    c2 = topo.add_node(Node("c2", NodeKind.ROUTER,
                            GeoPoint(47.01, 15.41), asn=2))
    dst = topo.add_node(Node("dst", NodeKind.SERVER,
                             GeoPoint(47.5, 16.0), asn=2))
    topo.connect(a, b1)
    topo.connect(a, b2)
    topo.connect(b1, c1)     # border 1 (Vienna)
    topo.connect(b2, c2)     # border 2 (Graz)
    topo.connect(c1, dst)
    topo.connect(c2, dst)
    routes = RouteComputer(topo, asg)
    primary = routes.route("a", "dst")
    assert "b2" in primary.path          # Graz egress is nearer
    topo.remove_link("b2", "c2")
    routes.invalidate()
    fallback = routes.route("a", "dst")
    assert "b1" in fallback.path         # survivor carries the traffic


# ---------------------------------------------------------------------------
# Core failures
# ---------------------------------------------------------------------------

def test_cgnat_overload_melts_latency(scenario):
    """Pushing the Vienna CGNAT towards saturation: the campaign's
    sampled RTTs through it inflate sharply (M/M/1 blow-up)."""
    cell = CellId.from_label("C2")
    position = scenario.grid.cell_center(cell)
    campaign = scenario.campaign(2.0)
    before = np.mean([campaign.sample_rtt(position, cell, "probe-uni")
                      for _ in range(60)])
    vienna = campaign.config.gateways["vienna"]
    overloaded = vienna.upf.with_load(0.97)
    campaign.config.gateways["vienna"] = type(vienna)(
        vienna.name, vienna.node_name, overloaded)
    after = np.mean([campaign.sample_rtt(position, cell, "probe-uni")
                     for _ in range(60)])
    assert after > before + units.ms(20.0)
