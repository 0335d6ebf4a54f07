"""Differential tests: Topology's Dijkstra port against networkx.

``Topology.shortest_path`` ports the bidirectional Dijkstra that
``nx.shortest_path(G, s, t, weight="weight")`` runs.  On seeded random
graphs with small integer weights, where equal-cost ties are common,
both must return exactly the same path, and ``links()`` must report
edges in ``nx.Graph.edges`` order.  Skipped when networkx is absent: it
is a test oracle only, not a dependency.
"""

import random

import pytest

from repro.geo import KLAGENFURT
from repro.net import Link, Node, NodeKind, Topology
from repro.net.topology import NoPathError

nx = pytest.importorskip("networkx")

SEEDS = range(12)


class WeightedLink(Link):
    """A link whose routing weight is fixed, so tests can force ties."""

    __slots__ = ("weight",)

    def __init__(self, a: Node, b: Node, weight: int):
        super().__init__(a, b, length_m=1.0)
        self.weight = weight

    def routing_weight(self) -> float:
        return self.weight


def random_pair(seed):
    """The same random graph as a Topology and as an nx.Graph, built in
    the same node and edge insertion order."""
    rng = random.Random(seed)
    topo, graph = Topology(f"random-{seed}"), nx.Graph()
    nodes = []
    for index in range(rng.randint(6, 18)):
        node = Node(name=f"n{rng.randrange(1000)}-{index}",
                    kind=NodeKind.ROUTER, location=KLAGENFURT,
                    asn=rng.choice((1, 2)))
        nodes.append(topo.add_node(node))
        graph.add_node(node.name, asn=node.asn)
    for _ in range(rng.randint(len(nodes), 3 * len(nodes))):
        a, b = rng.sample(nodes, 2)
        if graph.has_edge(a.name, b.name):
            continue
        weight = rng.randint(1, 3)
        topo.add_link(WeightedLink(a, b, weight))
        graph.add_edge(a.name, b.name, weight=weight)
    return topo, graph


def nx_path(graph, src, dst, within_asn=None):
    if within_asn is not None:
        graph = graph.subgraph([n for n, asn in graph.nodes(data="asn")
                                if asn == within_asn])
    try:
        return nx.shortest_path(graph, src, dst, weight="weight")
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None


def topo_path(topo, src, dst, within_asn=None):
    try:
        return topo.shortest_path(src, dst, within_asn=within_asn)
    except NoPathError:
        return None


def edge_names(topo):
    return [{link.a.name, link.b.name} for link in topo.links()]


def nx_edge_names(graph):
    return [set(edge) for edge in graph.edges]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("within_asn", [None, 1, 2])
def test_shortest_path_matches_networkx(seed, within_asn):
    topo, graph = random_pair(seed)
    for src in graph:
        for dst in graph:
            assert (topo_path(topo, src, dst, within_asn)
                    == nx_path(graph, src, dst, within_asn)), (src, dst)


def test_random_graphs_force_ties():
    """The comparison above is only meaningful if equal-cost
    alternatives are common."""
    tied = 0
    for seed in SEEDS:
        _, graph = random_pair(seed)
        for src in graph:
            for dst in graph:
                if src != dst and nx.has_path(graph, src, dst):
                    tied += len(list(nx.all_shortest_paths(
                        graph, src, dst, weight="weight"))) > 1
    assert tied > 100


@pytest.mark.parametrize("seed", SEEDS)
def test_links_follow_networkx_edge_order(seed):
    topo, graph = random_pair(seed)
    assert edge_names(topo) == nx_edge_names(graph)
    rng = random.Random(seed)
    for a, b in rng.sample(list(graph.edges), 3):
        topo.remove_link(a, b)
        graph.remove_edge(a, b)
        assert edge_names(topo) == nx_edge_names(graph)
    assert topo.link_count == graph.number_of_edges()
    assert all(topo.degree(n) == graph.degree[n] for n in graph)


@pytest.mark.parametrize("seed", SEEDS)
def test_removed_links_reroute_like_networkx(seed):
    topo, graph = random_pair(seed)
    rng = random.Random(seed)
    for a, b in rng.sample(list(graph.edges), 3):
        topo.remove_link(a, b)
        graph.remove_edge(a, b)
    for src in graph:
        for dst in graph:
            assert topo_path(topo, src, dst) == nx_path(graph, src, dst)
