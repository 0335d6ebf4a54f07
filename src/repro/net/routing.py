"""Interdomain route computation: BGP policy + hot-potato stitching.

Combines the AS-level path (from :class:`~repro.net.bgp.BGPRouter`) with
router-level intra-AS shortest paths to produce the hop-by-hop path a
packet actually takes — the object traceroute renders and the latency
model integrates over.

Hot-potato (early-exit) routing: within each transit AS the packet exits
through the border link whose egress router is *closest to the ingress
point* (standard IGP-cost egress selection).  This is the second half of
the Fig. 4 story: each AS dumps traffic at its nearest exit, no AS
optimises the end-to-end path, and the concatenation zig-zags across
Europe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .asn import ASGraph
from .bgp import ASRoute, BGPRouter
from .topology import NoPathError, Topology

__all__ = ["RouteResult", "RouteComputer"]


@dataclass(frozen=True)
class RouteResult:
    """A fully resolved route between two hosts."""

    src: str
    dst: str
    path: tuple[str, ...]        #: router-level node names, inclusive
    as_path: tuple[int, ...]     #: AS-level path
    route: Optional[ASRoute]     #: the BGP route object (None if intra-AS)

    @property
    def hop_count(self) -> int:
        """Number of forwarding hops after the source (Table I counts)."""
        return len(self.path) - 1


class RouteComputer:
    """Resolves host-to-host paths through topology + policy."""

    def __init__(self, topology: Topology, asgraph: ASGraph,
                 bgp: Optional[BGPRouter] = None):
        self.topology = topology
        self.asgraph = asgraph
        self.bgp = bgp if bgp is not None else BGPRouter(asgraph)
        self._border_index: Optional[dict[tuple[int, int],
                                          list[tuple[str, str]]]] = None
        self._cache: dict[tuple[str, str], RouteResult] = {}

    # -- cache management ---------------------------------------------------

    def invalidate(self) -> None:
        """Drop caches after topology or policy changes."""
        self.bgp.invalidate()
        self._border_index = None
        self._cache.clear()

    def _borders(self) -> dict[tuple[int, int], list[tuple[str, str]]]:
        """Index inter-AS links: (from_asn, to_asn) -> [(egress, ingress)].

        Candidate lists are sorted by node-name pair so egress selection
        is deterministic under equal IGP cost.
        """
        if self._border_index is None:
            index: dict[tuple[int, int], list[tuple[str, str]]] = {}
            for link in self.topology.links():
                a_asn, b_asn = link.a.asn, link.b.asn
                if a_asn is None or b_asn is None or a_asn == b_asn:
                    continue
                index.setdefault((a_asn, b_asn), []).append(
                    (link.a.name, link.b.name))
                index.setdefault((b_asn, a_asn), []).append(
                    (link.b.name, link.a.name))
            for pair in index.values():
                pair.sort()
            self._border_index = index
        return self._border_index

    # -- path resolution ----------------------------------------------------

    def route(self, src: str, dst: str) -> RouteResult:
        """Resolve the full router path from host ``src`` to host ``dst``."""
        key = (src, dst)
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        src_node = self.topology.node(src)
        dst_node = self.topology.node(dst)
        if src_node.asn is None or dst_node.asn is None:
            raise ValueError(
                "route endpoints must belong to an AS "
                f"({src!r}: {src_node.asn}, {dst!r}: {dst_node.asn})")

        # An unreachable segment raises NoPathError, itself a LookupError.
        if src_node.asn == dst_node.asn:
            path = tuple(self.topology.shortest_path(
                src, dst, within_asn=src_node.asn))
            result = RouteResult(src, dst, path, (src_node.asn,), None)
        else:
            as_route = self.bgp.route(src_node.asn, dst_node.asn)
            if as_route is None:
                raise LookupError(
                    f"no policy-compliant route AS{src_node.asn} -> "
                    f"AS{dst_node.asn}")
            path = self._stitch(src, dst, as_route.as_path)
            result = RouteResult(src, dst, tuple(path),
                                 as_route.as_path, as_route)
        self._cache[key] = result
        return result

    def _stitch(self, src: str, dst: str,
                as_path: tuple[int, ...]) -> list[str]:
        """Concatenate intra-AS segments along ``as_path`` (hot-potato)."""
        borders = self._borders()
        path: list[str] = [src]
        current = src
        for here, nxt in zip(as_path, as_path[1:]):
            candidates = borders.get((here, nxt))
            if not candidates:
                raise LookupError(
                    f"BGP selected AS{here} -> AS{nxt} but no border "
                    "link exists between them in the topology")
            best_segment: Optional[list[str]] = None
            best_cost = float("inf")
            best_ingress: Optional[str] = None
            for egress, ingress in candidates:
                try:
                    segment = self.topology.shortest_path(
                        current, egress, within_asn=here)
                except NoPathError:
                    continue
                cost = self._segment_cost(segment)
                if cost < best_cost:
                    best_cost = cost
                    best_segment = segment
                    best_ingress = ingress
            if best_segment is None:
                raise LookupError(
                    f"no intra-AS{here} path from {current!r} to any "
                    f"border router towards AS{nxt}")
            path.extend(best_segment[1:])   # skip duplicate of `current`
            path.append(best_ingress)
            current = best_ingress
        tail = self.topology.shortest_path(
            current, dst, within_asn=as_path[-1])
        path.extend(tail[1:])
        return path

    def _segment_cost(self, segment: list[str]) -> float:
        """IGP cost of an intra-AS segment: summed link weights."""
        if len(segment) < 2:
            return 0.0
        return sum(self.topology.link(a, b).routing_weight()
                   for a, b in zip(segment, segment[1:]))
