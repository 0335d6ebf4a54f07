"""Tests for interdomain stitching, IXPs and traceroute.

Builds a miniature central-Europe internet exhibiting the paper's detour
mechanism: two Klagenfurt ASes with no local interconnect whose traffic
must climb to Vienna transits.
"""

import pytest

from repro.geo import GeoPoint, KLAGENFURT, PRAGUE, VIENNA
from repro.net import (
    ASGraph,
    ASKind,
    AutonomousSystem,
    InternetExchange,
    Node,
    NodeKind,
    RouteComputer,
    Topology,
    traceroute,
)
from repro.sim import RngRegistry


def offset(point, dlat, dlon):
    return GeoPoint(point.lat + dlat, point.lon + dlon)


@pytest.fixture
def europe():
    """Mini-internet:

    AS 100 (mobile ISP): UE gateway in Klagenfurt, core router in Vienna.
    AS 200 (transit): routers in Vienna and Prague.
    AS 300 (eyeball ISP): router in Klagenfurt hosting the probe.
    Relationships: 100 -> c2p -> 200 <- c2p <- 300.
    All Klagenfurt-local traffic therefore hairpins through Vienna.
    """
    topo = Topology("mini-europe")
    asg = ASGraph()
    asg.add(AutonomousSystem(100, "mobile", kind=ASKind.MOBILE_ISP))
    asg.add(AutonomousSystem(200, "transit", kind=ASKind.TRANSIT))
    asg.add(AutonomousSystem(300, "eyeball", kind=ASKind.ACCESS_ISP))
    asg.set_customer_of(100, 200)
    asg.set_customer_of(300, 200)

    ue = topo.add_node(Node("ue", NodeKind.UE, KLAGENFURT, asn=100))
    gw = topo.add_node(Node("gw-kla", NodeKind.GATEWAY,
                            offset(KLAGENFURT, 0.01, 0.0), asn=100))
    mob_vie = topo.add_node(Node("mob-vie", NodeKind.ROUTER, VIENNA, asn=100))
    tr_vie = topo.add_node(Node("tr-vie", NodeKind.ROUTER,
                                offset(VIENNA, 0.01, 0.0), asn=200))
    tr_prg = topo.add_node(Node("tr-prg", NodeKind.ROUTER, PRAGUE, asn=200))
    eye_kla = topo.add_node(Node("eye-kla", NodeKind.ROUTER,
                                 offset(KLAGENFURT, -0.01, 0.0), asn=300))
    probe = topo.add_node(Node("probe", NodeKind.PROBE,
                               offset(KLAGENFURT, -0.02, 0.0), asn=300))

    topo.connect(ue, gw)
    topo.connect(gw, mob_vie)
    topo.connect(mob_vie, tr_vie)     # 100 <-> 200 border (Vienna)
    topo.connect(tr_vie, tr_prg)
    topo.connect(tr_vie, eye_kla)     # 200 <-> 300 border
    topo.connect(eye_kla, probe)
    return topo, asg


def test_intra_as_route(europe):
    topo, asg = europe
    rc = RouteComputer(topo, asg)
    result = rc.route("ue", "mob-vie")
    assert result.path == ("ue", "gw-kla", "mob-vie")
    assert result.as_path == (100,)
    assert result.route is None


def test_interdomain_route_hairpins_through_vienna(europe):
    topo, asg = europe
    rc = RouteComputer(topo, asg)
    result = rc.route("ue", "probe")
    assert result.as_path == (100, 200, 300)
    assert result.path == ("ue", "gw-kla", "mob-vie", "tr-vie",
                           "eye-kla", "probe")
    # Geographic path is a Vienna round trip for a local destination.
    assert topo.geographic_path_length(list(result.path)) > 400e3


def test_route_cache_and_invalidate(europe):
    topo, asg = europe
    rc = RouteComputer(topo, asg)
    first = rc.route("ue", "probe")
    assert rc.route("ue", "probe") is first    # cached object
    rc.invalidate()
    assert rc.route("ue", "probe") is not first


def test_route_requires_asn(europe):
    topo, asg = europe
    stray = topo.add_node(Node("stray", NodeKind.SERVER, VIENNA, asn=None))
    rc = RouteComputer(topo, asg)
    with pytest.raises(ValueError):
        rc.route("ue", "stray")


def test_route_unreachable_when_no_policy_path(europe):
    topo, asg = europe
    # AS 400 exists in the graph but has no relationships.
    asg.add(AutonomousSystem(400, "island"))
    topo.add_node(Node("island-r", NodeKind.ROUTER, PRAGUE, asn=400))
    rc = RouteComputer(topo, asg)
    with pytest.raises(LookupError):
        rc.route("ue", "island-r")


def test_missing_border_link_detected(europe):
    topo, asg = europe
    # Policy says 100->200 exists, but remove the physical border link.
    topo.remove_link("mob-vie", "tr-vie")
    rc = RouteComputer(topo, asg)
    with pytest.raises(LookupError, match="no border|no intra"):
        rc.route("ue", "probe")


def test_hot_potato_picks_nearest_egress(europe):
    topo, asg = europe
    # Add a second 100<->200 border in Prague, much farther from the UE.
    mob_prg = topo.add_node(Node("mob-prg", NodeKind.ROUTER,
                                 offset(PRAGUE, 0.02, 0.0), asn=100))
    topo.connect("mob-vie", "mob-prg")
    topo.connect("mob-prg", "tr-prg")
    rc = RouteComputer(topo, asg)
    result = rc.route("ue", "probe")
    assert "mob-prg" not in result.path   # Vienna egress is closer


def test_ixp_peering_localises_route(europe):
    """The Sec. V-A remedy: a Klagenfurt IXP peering removes the Vienna
    hairpin entirely."""
    topo, asg = europe
    rc = RouteComputer(topo, asg)
    before = rc.route("ue", "probe")
    before_km = topo.geographic_path_length(list(before.path))

    ix = InternetExchange("kla-ix", KLAGENFURT)
    ix.join(100, topo.node("gw-kla"))
    ix.join(300, topo.node("eye-kla"))
    ix.peer(topo, asg, 100, 300)
    rc.invalidate()

    after = rc.route("ue", "probe")
    assert after.as_path == (100, 300)
    after_km = topo.geographic_path_length(list(after.path))
    assert after_km < before_km / 20   # hundreds of km -> a few km


def test_ixp_membership_rules(europe):
    topo, asg = europe
    ix = InternetExchange("kla-ix", KLAGENFURT)
    with pytest.raises(ValueError):    # router from the wrong AS
        ix.join(100, topo.node("eye-kla"))
    with pytest.raises(ValueError):    # too far away for local membership
        ix.join(200, topo.node("tr-prg"))
    ix.join_remote(200, topo.node("tr-prg"))   # explicit remote peering ok
    ix.join(100, topo.node("gw-kla"))
    with pytest.raises(ValueError):    # duplicate membership
        ix.join(100, topo.node("gw-kla"))
    with pytest.raises(KeyError):      # non-member cannot peer
        ix.peer(topo, asg, 100, 300)


def test_traceroute_matches_route_shape(europe):
    topo, asg = europe
    rc = RouteComputer(topo, asg)
    result = rc.route("ue", "probe")
    trace = traceroute(topo, result)
    assert trace.hop_count == result.hop_count == 5
    assert trace.hops[0].node_name == "gw-kla"
    assert trace.hops[-1].node_name == "probe"
    # RTTs are cumulative along the path (deterministic trace).
    rtts = [h.rtt_s for h in trace.hops]
    assert all(a < b for a, b in zip(rtts, rtts[1:]))


def test_traceroute_render_table(europe):
    topo, asg = europe
    rc = RouteComputer(topo, asg)
    trace = traceroute(topo, rc.route("ue", "probe"))
    table = trace.render_table()
    assert "Hop" in table and "Node" in table
    assert "gw-kla" in table
    assert "5 hops" in table


def test_traceroute_sampled_is_reproducible(europe):
    topo, asg = europe
    # add some load for non-trivial queueing
    topo.link("mob-vie", "tr-vie").utilisation = 0.5
    rc = RouteComputer(topo, asg)
    route = rc.route("ue", "probe")
    t1 = traceroute(topo, route, RngRegistry(5).stream("t"))
    t2 = traceroute(topo, route, RngRegistry(5).stream("t"))
    assert [h.rtt_s for h in t1.hops] == [h.rtt_s for h in t2.hops]
