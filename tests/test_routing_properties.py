"""Property-based tests of interdomain routing on randomized worlds.

Hypothesis generates random AS hierarchies with random router-level
footprints; every resolved route must satisfy structural invariants no
matter the draw:

* the router path starts at the source and ends at the destination;
* consecutive routers are physically linked;
* the router path's AS sequence matches the BGP AS path (contiguous
  runs, no interleaving);
* the AS path is valley-free;
* route resolution is deterministic.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.geo import GeoPoint
from repro.net import (
    ASGraph,
    AutonomousSystem,
    Node,
    NodeKind,
    RouteComputer,
    Topology,
)


def build_world(seed: int, n_stubs: int):
    """A random two-tier internet.

    Tier 0: three transits peering with each other; each stub AS buys
    from 1-2 transits; each AS has 1-3 routers at random European
    coordinates; inter-AS links connect random router pairs of related
    ASes.
    """
    rng = np.random.default_rng(seed)
    topo = Topology(f"world-{seed}")
    asg = ASGraph()
    transits = [10, 20, 30]
    stubs = [100 + i for i in range(n_stubs)]
    for asn in transits + stubs:
        asg.add(AutonomousSystem(asn, f"as{asn}"))
    for a in transits:
        for b in transits:
            if a < b:
                asg.set_peers(a, b)

    routers: dict[int, list[Node]] = {}

    def add_routers(asn: int) -> None:
        count = int(rng.integers(1, 4))
        routers[asn] = []
        for i in range(count):
            node = topo.add_node(Node(
                f"r{asn}-{i}", NodeKind.ROUTER,
                GeoPoint(float(rng.uniform(42.0, 52.0)),
                         float(rng.uniform(8.0, 26.0))),
                asn=asn))
            routers[asn].append(node)
        # intra-AS ring (guarantees internal connectivity)
        ring = routers[asn]
        for i in range(len(ring) - 1):
            topo.connect(ring[i], ring[i + 1])

    for asn in transits + stubs:
        add_routers(asn)

    def interconnect(a: int, b: int) -> None:
        ra = routers[a][int(rng.integers(0, len(routers[a])))]
        rb = routers[b][int(rng.integers(0, len(routers[b])))]
        if not topo.has_link(ra.name, rb.name):
            topo.connect(ra, rb)

    for a in transits:
        for b in transits:
            if a < b:
                interconnect(a, b)
    for stub in stubs:
        providers = rng.choice(transits,
                               size=int(rng.integers(1, 3)),
                               replace=False)
        for provider in providers:
            asg.set_customer_of(stub, int(provider))
            interconnect(stub, int(provider))

    return topo, asg, routers, stubs


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000),
       n_stubs=st.integers(min_value=2, max_value=6))
def test_routes_satisfy_structural_invariants(seed, n_stubs):
    topo, asg, routers, stubs = build_world(seed, n_stubs)
    rc = RouteComputer(topo, asg)
    bgp = rc.bgp
    src = routers[stubs[0]][0].name
    dst = routers[stubs[-1]][-1].name
    result = rc.route(src, dst)

    # endpoints
    assert result.path[0] == src
    assert result.path[-1] == dst
    # physical continuity
    for a, b in zip(result.path, result.path[1:]):
        assert topo.has_link(a, b), f"gap {a}--{b}"
    # AS sequence of the router path == BGP AS path (contiguous runs)
    as_sequence = []
    for name in result.path:
        asn = topo.node(name).asn
        if not as_sequence or as_sequence[-1] != asn:
            as_sequence.append(asn)
    assert tuple(as_sequence) == result.as_path
    # valley-free policy path
    assert bgp.is_valley_free(result.as_path)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_route_resolution_is_deterministic(seed):
    topo1, asg1, routers1, stubs1 = build_world(seed, 4)
    topo2, asg2, routers2, stubs2 = build_world(seed, 4)
    rc1 = RouteComputer(topo1, asg1)
    rc2 = RouteComputer(topo2, asg2)
    src = routers1[stubs1[0]][0].name
    dst = routers1[stubs1[-1]][-1].name
    assert rc1.route(src, dst).path == rc2.route(src, dst).path


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_latency_positive_and_hops_bounded(seed):
    topo, asg, routers, stubs = build_world(seed, 4)
    rc = RouteComputer(topo, asg)
    src = routers[stubs[0]][0].name
    dst = routers[stubs[-1]][-1].name
    result = rc.route(src, dst)
    latency = topo.path_latency(list(result.path)).total
    assert latency > 0.0
    # Bounded by the total router population.
    assert result.hop_count <= topo.node_count
