"""Tests for the compiled path-latency sampler (net.pathkernel)."""

import pytest

from repro.geo import GeoPoint
from repro.net.link import LinkKind
from repro.net.node import Node, NodeKind
from repro.net.pathkernel import CompiledPath
from repro.net.topology import Topology
from repro.sim import RngRegistry


def make_topology(utilisations=(0.3, 0.0, 0.6)):
    """A four-node chain with mixed loaded/unloaded links."""
    topo = Topology("chain")
    points = [GeoPoint(46.6, 14.3), GeoPoint(46.7, 14.5),
              GeoPoint(46.9, 14.9), GeoPoint(47.1, 15.3)]
    names = ["a", "b", "c", "d"]
    for name, point in zip(names, points):
        topo.add_node(Node(name=name, kind=NodeKind.ROUTER, location=point,
                           forwarding_delay_s=50e-6))
    for (x, y), rho in zip(zip(names, names[1:]), utilisations):
        topo.connect(x, y, kind=LinkKind.FIBRE, utilisation=rho)
    return topo


def fresh_rng(seed=77):
    return RngRegistry(seed).fresh("pathkernel")


def test_compiled_round_trip_bitwise_equals_walk():
    topo = make_topology()
    path = ["a", "b", "c", "d"]
    compiled = topo.compile_path(path)
    for seed in (1, 2, 3, 42):
        walked = topo.round_trip(path, rng=fresh_rng(seed)).total
        sampled = compiled.sample_round_trip(fresh_rng(seed))
        assert sampled == walked


def test_compiled_echo_bitwise_equals_ping_composition():
    """sample_echo matches the forward.total + back.total association."""
    topo = make_topology()
    path = ["a", "b", "c", "d"]
    compiled = topo.compile_path(path)
    for seed in (5, 9):
        rng = fresh_rng(seed)
        forward = topo.path_latency(path, rng=rng)
        back = topo.path_latency(path[::-1], rng=rng)
        assert compiled.sample_echo(fresh_rng(seed)) == \
            forward.total + back.total


def test_compiled_path_preserves_stream_position():
    """Sampling consumes exactly the draws the scalar walk consumes."""
    topo = make_topology()
    path = ["a", "b", "c", "d"]
    compiled = topo.compile_path(path)
    rng_a, rng_b = fresh_rng(), fresh_rng()
    topo.round_trip(path, rng=rng_a)
    compiled.sample_round_trip(rng_b)
    assert rng_a.random() == rng_b.random()


def test_unloaded_links_draw_nothing():
    topo = make_topology(utilisations=(0.0, 0.0, 0.0))
    compiled = topo.compile_path(["a", "b", "c", "d"])
    assert compiled.stochastic_link_count == 0
    rng = fresh_rng()
    before = rng.random()
    rng2 = fresh_rng()
    compiled.sample_round_trip(rng2)
    assert rng2.random() == before
    assert compiled.sample_round_trip(rng2) == \
        compiled.deterministic_total


def test_deterministic_total_matches_mean_free_walk():
    topo = make_topology(utilisations=(0.0, 0.0, 0.0))
    path = ["a", "b", "c", "d"]
    compiled = topo.compile_path(path)
    assert compiled.deterministic_total == \
        topo.round_trip(path, rng=fresh_rng()).total


def test_compiled_path_snapshots_utilisation():
    topo = make_topology()
    path = ["a", "b", "c", "d"]
    stale = topo.compile_path(path)
    topo.link("b", "c").utilisation = 0.9
    recompiled = topo.compile_path(path)
    assert recompiled.stochastic_link_count == \
        stale.stochastic_link_count + 2
    assert recompiled.sample_round_trip(fresh_rng()) == \
        topo.round_trip(path, rng=fresh_rng()).total


def test_compiled_path_rejects_trivial_path():
    topo = make_topology()
    with pytest.raises(ValueError):
        topo.compile_path(["a"])
    with pytest.raises(ValueError):
        CompiledPath(topo, [])


def test_compiled_path_respects_size_bits():
    topo = make_topology()
    path = ["a", "b", "c"]
    small = topo.compile_path(path, size_bits=512.0)
    large = topo.compile_path(path, size_bits=12_000.0)
    assert small.deterministic_total < large.deterministic_total
    assert small.sample_round_trip(fresh_rng(8)) == \
        topo.round_trip(path, 512.0, rng=fresh_rng(8)).total
