"""Tests for nodes, links and the topology graph."""

import pytest

from repro import units
from repro.geo import GeoPoint, KLAGENFURT, VIENNA
from repro.net import Link, LinkKind, Node, NodeKind, Topology
from repro.net.topology import NoPathError
from repro.sim import RngRegistry


def make_node(name, lat=46.6, lon=14.3, kind=NodeKind.ROUTER, asn=1):
    return Node(name=name, kind=kind, location=GeoPoint(lat, lon), asn=asn)


# ---------------------------------------------------------------------------
# Node
# ---------------------------------------------------------------------------

def test_node_defaults():
    n = make_node("r1")
    assert n.forwarding_delay_s == pytest.approx(50e-6)
    assert n.display_name == "r1"


def test_node_kind_specific_default_delay():
    upf = make_node("upf1", kind=NodeKind.UPF)
    router = make_node("r1")
    assert upf.forwarding_delay_s > router.forwarding_delay_s


def test_node_requires_name():
    with pytest.raises(ValueError):
        Node(name="", kind=NodeKind.ROUTER, location=KLAGENFURT)


def test_node_hop_label_variants():
    from repro.net import IPv4Address
    bare = make_node("r1")
    assert bare.hop_label == "r1"
    addr = IPv4Address.parse("195.140.139.133")
    anon = Node(name="x", kind=NodeKind.ROUTER, location=KLAGENFURT,
                address=addr, display_name=str(addr))
    assert anon.hop_label == "195.140.139.133"
    named = Node(name="y", kind=NodeKind.ROUTER, location=KLAGENFURT,
                 address=IPv4Address.parse("37.19.223.61"),
                 display_name="unn-37-19-223-61.datapacket.com")
    assert named.hop_label == "unn-37-19-223-61.datapacket.com [37.19.223.61]"


def test_node_equality_by_name():
    assert make_node("a") == make_node("a", lat=40.0)
    assert make_node("a") != make_node("b")


# ---------------------------------------------------------------------------
# Link
# ---------------------------------------------------------------------------

def test_link_default_length_from_geography():
    a = Node("kla", NodeKind.ROUTER, KLAGENFURT, asn=1)
    b = Node("vie", NodeKind.ROUTER, VIENNA, asn=1)
    link = Link(a, b)
    gc = KLAGENFURT.distance_to(VIENNA)
    assert link.length_m == pytest.approx(gc * 1.05)


def test_link_propagation_delay_klagenfurt_vienna():
    a = Node("kla", NodeKind.ROUTER, KLAGENFURT, asn=1)
    b = Node("vie", NodeKind.ROUTER, VIENNA, asn=1)
    # ~246 km of fibre -> ~1.23 ms one way
    assert Link(a, b).propagation_delay() == pytest.approx(1.23e-3, rel=0.05)


def test_link_rejects_self_loop():
    a = make_node("a")
    with pytest.raises(ValueError):
        Link(a, a)


def test_link_validates_rate_and_utilisation():
    a, b = make_node("a"), make_node("b", lat=46.7)
    with pytest.raises(ValueError):
        Link(a, b, rate_bps=0.0)
    link = Link(a, b)
    with pytest.raises(ValueError):
        link.utilisation = 1.0


def test_link_transmission_delay():
    a, b = make_node("a"), make_node("b", lat=46.7)
    link = Link(a, b, rate_bps=units.gbps(1.0))
    assert link.transmission_delay(units.bytes_(1500)) == pytest.approx(12e-6)


def test_link_queueing_grows_with_load():
    a, b = make_node("a"), make_node("b", lat=46.7)
    link = Link(a, b, rate_bps=units.mbps(100.0))
    quiet = link.mean_queueing_delay(units.bytes_(1500))
    link.utilisation = 0.8
    busy = link.mean_queueing_delay(units.bytes_(1500))
    assert quiet == 0.0
    assert busy > 0.0


def test_link_one_way_deterministic_vs_sampled():
    a, b = make_node("a"), make_node("b", lat=46.7)
    link = Link(a, b, utilisation=0.5, rate_bps=units.mbps(10.0))
    mean = link.one_way(units.bytes_(1500))
    assert mean.queueing == pytest.approx(
        link.mean_queueing_delay(units.bytes_(1500)))
    rng = RngRegistry(3).stream("link")
    sampled = [link.one_way(units.bytes_(1500), rng).queueing
               for _ in range(100)]
    assert min(sampled) == 0.0       # some packets find an empty queue
    assert max(sampled) > mean.queueing


def test_link_other_endpoint():
    a, b, c = make_node("a"), make_node("b", lat=46.7), make_node("c", lat=47.0)
    link = Link(a, b)
    assert link.other(a) == b
    assert link.other(b) == a
    with pytest.raises(ValueError):
        link.other(c)


def test_virtual_link_negligible_propagation():
    a, b = make_node("a"), make_node("b", lat=46.7)
    link = Link(a, b, kind=LinkKind.VIRTUAL, length_m=50.0)
    assert link.propagation_delay() < 1e-6


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------

@pytest.fixture
def triangle():
    topo = Topology("tri")
    a = topo.add_node(make_node("a", 46.6, 14.3))
    b = topo.add_node(make_node("b", 46.7, 14.3))
    c = topo.add_node(make_node("c", 46.7, 14.4))
    topo.connect(a, b)
    topo.connect(b, c)
    topo.connect(a, c, length_m=500e3)  # long way round
    return topo


def test_duplicate_node_rejected(triangle):
    with pytest.raises(ValueError):
        triangle.add_node(make_node("a"))


def test_parallel_link_rejected(triangle):
    with pytest.raises(ValueError):
        triangle.connect("a", "b")


def test_link_requires_known_endpoints():
    topo = Topology()
    a = topo.add_node(make_node("a"))
    ghost = make_node("ghost")
    with pytest.raises(KeyError):
        topo.add_link(Link(a, ghost))


def test_unknown_lookups_raise(triangle):
    with pytest.raises(KeyError):
        triangle.node("zz")
    with pytest.raises(KeyError):
        triangle.link("a", "zz")
    with pytest.raises(KeyError):
        triangle.degree("zz")


def test_counts_and_degree(triangle):
    assert triangle.node_count == 3
    assert triangle.link_count == 3
    assert triangle.degree("a") == 2


def test_shortest_path_prefers_low_latency(triangle):
    # a->c direct is 500 km; a->b->c is ~2x11km => via b wins
    assert triangle.shortest_path("a", "c") == ["a", "b", "c"]


def test_shortest_path_within_asn():
    topo = Topology()
    a = topo.add_node(make_node("a", asn=1))
    b = topo.add_node(make_node("b", 46.7, asn=2))
    c = topo.add_node(make_node("c", 46.8, asn=1))
    topo.connect(a, b)
    topo.connect(b, c)
    with pytest.raises(NoPathError):
        topo.shortest_path("a", "c", within_asn=1)


def test_path_latency_includes_intermediate_processing(triangle):
    path = ["a", "b", "c"]
    breakdown = triangle.path_latency(path)
    assert breakdown.processing == pytest.approx(
        triangle.node("b").forwarding_delay_s)
    with_endpoints = triangle.path_latency(path, include_endpoints=True)
    assert with_endpoints.processing > breakdown.processing


def test_path_latency_rejects_trivial_path(triangle):
    with pytest.raises(ValueError):
        triangle.path_latency(["a"])


def test_round_trip_roughly_double_one_way(triangle):
    path = ["a", "b", "c"]
    one = triangle.path_latency(path)
    rtt = triangle.round_trip(path)
    assert rtt.total == pytest.approx(2 * one.total, rel=1e-9)


def test_geographic_path_length(triangle):
    path = ["a", "b", "c"]
    expected = (triangle.link("a", "b").length_m
                + triangle.link("b", "c").length_m)
    assert triangle.geographic_path_length(path) == pytest.approx(expected)
    assert triangle.geographic_path_length(["a"]) == 0.0


def test_remove_link(triangle):
    triangle.remove_link("a", "c")
    assert not triangle.has_link("a", "c")
    with pytest.raises(KeyError):
        triangle.remove_link("a", "c")


def test_node_filters(triangle):
    routers = list(triangle.nodes(kind=NodeKind.ROUTER))
    assert len(routers) == 3
    as1 = list(triangle.nodes(asn=1))
    assert len(as1) == 3


def test_subgraph_nodes(triangle):
    sub = triangle.subgraph_nodes(["a", "b"])
    assert sub.node_count == 2
    assert sub.link_count == 1


def test_refresh_weights_changes_shortest_path():
    topo = Topology()
    a = topo.add_node(make_node("a", 46.6, 14.3))
    b = topo.add_node(make_node("b", 46.7, 14.3))
    c = topo.add_node(make_node("c", 46.7, 14.4))
    topo.connect(a, b, rate_bps=units.gbps(1.0))
    topo.connect(b, c, rate_bps=units.gbps(1.0))
    topo.connect(a, c, length_m=60e3)
    assert topo.shortest_path("a", "c") == ["a", "b", "c"]
    # Saturate the a-b link: queueing now dominates, direct path wins.
    topo.link("a", "b").utilisation = 0.94
    topo.refresh_weights()
    assert topo.shortest_path("a", "c") == ["a", "c"]
