"""Router-level topology graph.

A validating dict-of-dicts adjacency: nodes are keyed by name (carrying
:class:`~repro.net.node.Node` objects), edges carry
:class:`~repro.net.link.Link` objects.  Provides latency-weighted
shortest paths and end-to-end latency composition; AS-level *policy*
path selection lives in :mod:`repro.net.bgp` and stitches through this
graph for the intra-AS segments.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .latency import LatencyBreakdown
from .link import Link, REFERENCE_PACKET_BITS
from .node import Node
from .pathkernel import CompiledPath

__all__ = ["NoPathError", "Topology"]


class NoPathError(LookupError):
    """No path joins two nodes (or one of them is not in the graph)."""


class _Edge:
    """One link's adjacency entry, shared by both directions."""

    __slots__ = ("link", "weight")

    def __init__(self, link: Link):
        self.link = link
        self.weight = link.routing_weight()


def _bidirectional_dijkstra(adj: dict[str, dict[str, _Edge]], source: str,
                            target: str, keep: Callable[[str], bool]
                            ) -> Optional[list[str]]:
    """Minimum-weight ``source`` -> ``target`` path, or None.

    A port of networkx's ``bidirectional_dijkstra`` — the algorithm
    ``nx.shortest_path(G, s, t, weight=...)`` runs — keeping its
    ``(dist, counter, node)`` heap entries, its alternation between the
    two search directions and its strict-improvement relaxation, so
    equal-cost ties resolve to the same path.  The search only enters
    nodes ``keep`` accepts (as networkx does on a subgraph view).
    """
    if source == target:
        return [source]
    dists: tuple[dict[str, float], ...] = ({}, {})
    preds: tuple[dict[str, Optional[str]], ...] = ({source: None},
                                                   {target: None})
    seen: tuple[dict[str, float], ...] = ({source: 0}, {target: 0})
    counter = count()
    fringe: tuple[list[tuple[float, int, str]], ...] = (
        [(0, next(counter), source)], [(0, next(counter), target)])
    meet: Optional[str] = None
    best = float("inf")
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        dist, _, v = heappop(fringe[direction])
        done = dists[direction]
        if v in done:
            continue
        done[v] = dist
        if v in dists[1 - direction]:
            path: list[str] = []
            node = meet
            while node is not None:
                path.append(node)
                node = preds[0][node]
            path.reverse()
            node = preds[1][meet]
            while node is not None:
                path.append(node)
                node = preds[1][node]
            return path
        reached, other = seen[direction], seen[1 - direction]
        for w, edge in adj[v].items():
            if w in done or not keep(w):
                continue
            length = dist + edge.weight
            if w not in reached or length < reached[w]:
                reached[w] = length
                heappush(fringe[direction], (length, next(counter), w))
                preds[direction][w] = v
                if w in other and length + other[w] < best:
                    best, meet = length + other[w], w
    return None


class Topology:
    """A named collection of nodes and links."""

    def __init__(self, name: str = "topology"):
        self.name = name
        self._adj: dict[str, dict[str, _Edge]] = {}
        self._nodes: dict[str, Node] = {}

    # -- construction -----------------------------------------------------

    def add_node(self, node: Node) -> Node:
        """Insert ``node``; duplicate names are rejected."""
        if node.name in self._nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        self._adj[node.name] = {}
        return node

    def add_link(self, link: Link) -> Link:
        """Insert ``link``; both endpoints must already be present."""
        for end in (link.a, link.b):
            if end.name not in self._nodes:
                raise KeyError(f"link endpoint {end.name!r} not in topology")
        if self.has_link(link.a.name, link.b.name):
            raise ValueError(
                f"parallel link {link.a.name!r}--{link.b.name!r}")
        edge = _Edge(link)
        self._adj[link.a.name][link.b.name] = edge
        self._adj[link.b.name][link.a.name] = edge
        return link

    def connect(self, a: Node | str, b: Node | str, **link_kwargs) -> Link:
        """Convenience: build and insert a link between two nodes."""
        node_a = self.node(a if isinstance(a, str) else a.name)
        node_b = self.node(b if isinstance(b, str) else b.name)
        link = Link(node_a, node_b, **link_kwargs)
        return self.add_link(link)

    def refresh_weights(self) -> None:
        """Recompute routing weights after utilisation changes."""
        for edge in self._edges():
            edge.weight = edge.link.routing_weight()

    # -- lookup -------------------------------------------------------------

    def node(self, name: str) -> Node:
        """Look up a node by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise KeyError(f"unknown node {name!r}") from None

    def has_node(self, name: str) -> bool:
        """True when ``name`` is a node of this topology."""
        return name in self._nodes

    def link(self, a: str, b: str) -> Link:
        """The link between two adjacent nodes."""
        try:
            return self._adj[a][b].link
        except KeyError:
            raise KeyError(f"no link {a!r}--{b!r}") from None

    def has_link(self, a: str, b: str) -> bool:
        """True when nodes ``a`` and ``b`` are directly linked."""
        return b in self._adj.get(a, ())

    def remove_link(self, a: str, b: str) -> None:
        """Remove a link (failure injection / de-peering)."""
        if not self.has_link(a, b):
            raise KeyError(f"no link {a!r}--{b!r}")
        del self._adj[a][b]
        del self._adj[b][a]

    def nodes(self, kind=None, asn: Optional[int] = None) -> Iterator[Node]:
        """All nodes, optionally filtered by kind and/or AS number."""
        for node in self._nodes.values():
            if kind is not None and node.kind != kind:
                continue
            if asn is not None and node.asn != asn:
                continue
            yield node

    def _edges(self) -> Iterator[_Edge]:
        """Every edge once, node-major in insertion order (the order
        ``networkx.Graph.edges`` reports)."""
        visited: set[str] = set()
        for name, neighbours in self._adj.items():
            for other, edge in neighbours.items():
                if other not in visited:
                    yield edge
            visited.add(name)

    def links(self) -> Iterator[Link]:
        """Iterate over all links."""
        for edge in self._edges():
            yield edge.link

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def link_count(self) -> int:
        return sum(map(len, self._adj.values())) // 2

    def degree(self, name: str) -> int:
        """Number of links incident to a node."""
        if name not in self._nodes:
            raise KeyError(f"unknown node {name!r}")
        return len(self._adj[name])

    # -- paths ----------------------------------------------------------------

    def shortest_path(self, src: str, dst: str,
                      within_asn: Optional[int] = None) -> list[str]:
        """Minimum-latency path as a list of node names.

        ``within_asn`` restricts the search to one AS's subgraph (used by
        BGP stitching for intra-AS segments; border routers of the AS are
        included by their ``asn`` attribute).
        """
        nodes = self._nodes

        def inside(name: str) -> bool:
            return name in nodes and (within_asn is None
                                      or nodes[name].asn == within_asn)

        path = None
        if inside(src) and inside(dst):
            path = _bidirectional_dijkstra(self._adj, src, dst, inside)
        if path is None:
            raise NoPathError(
                f"no path {src!r} -> {dst!r}"
                + (f" inside AS{within_asn}" if within_asn else ""))
        return path

    def path_latency(self, path: list[str],
                     size_bits: float = REFERENCE_PACKET_BITS,
                     rng: Optional[np.random.Generator] = None,
                     include_endpoints: bool = False) -> LatencyBreakdown:
        """One-way latency of ``path`` (list of node names).

        Sums link delays plus forwarding delay at every *intermediate*
        node; ``include_endpoints`` adds the first/last node's processing
        too (hosts' stack traversal).  With ``rng``, queueing is sampled
        per link.
        """
        if len(path) < 2:
            raise ValueError("path must contain at least two nodes")
        total = LatencyBreakdown.zero()
        for a, b in zip(path, path[1:]):
            total = total + self.link(a, b).one_way(size_bits, rng)
        hops = path if include_endpoints else path[1:-1]
        processing = sum(self._nodes[n].forwarding_delay_s for n in hops)
        return total + LatencyBreakdown(processing=processing)

    def round_trip(self, path: list[str],
                   size_bits: float = REFERENCE_PACKET_BITS,
                   rng: Optional[np.random.Generator] = None
                   ) -> LatencyBreakdown:
        """RTT over ``path``: forward plus (independently sampled) return."""
        forward = self.path_latency(path, size_bits, rng)
        back = self.path_latency(path[::-1], size_bits, rng)
        return forward + back

    def compile_path(self, path: Iterable[str],
                     size_bits: float = REFERENCE_PACKET_BITS
                     ) -> "CompiledPath":
        """Precompute a path's deterministic latency for hot sampling.

        The returned :class:`~repro.net.pathkernel.CompiledPath` samples
        round trips bit-identically to ``round_trip(path, size_bits,
        rng).total`` without re-walking the graph.  It snapshots link
        utilisations — recompile after mutating the topology.
        """
        return CompiledPath(self, list(path), size_bits)

    # -- analysis ---------------------------------------------------------

    def geographic_path_length(self, path: list[str]) -> float:
        """Total cable length along ``path``, metres (Fig. 4's 2544 km)."""
        if len(path) < 2:
            return 0.0
        return sum(self.link(a, b).length_m for a, b in zip(path, path[1:]))

    def subgraph_nodes(self, names: Iterable[str]) -> "Topology":
        """Copy of the topology restricted to ``names`` (for what-ifs)."""
        names = set(names)
        sub = Topology(name=f"{self.name}/sub")
        for name in names:
            sub.add_node(self.node(name))
        for link in self.links():
            if link.a.name in names and link.b.name in names:
                sub.add_link(link)
        return sub

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Topology({self.name!r}, nodes={self.node_count}, "
                f"links={self.link_count})")
