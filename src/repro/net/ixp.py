"""Internet exchange points and peering fabrics.

An IXP is where the paper's Sec. V-A remedy happens: ASes present at the
same exchange can peer settlement-free, collapsing the multi-country
detour of Fig. 4 into a metro-local hop (the Gupta et al. result the
paper cites: IXP peering cut intra-Africa paths from 300+ ms).

Model: each member AS connects one border router to the exchange.  A
peering session between two members creates (a) a ``p2p`` edge in the
:class:`~repro.net.asn.ASGraph` and (b) a short router-level link between
their border routers, tagged with the IXP name.  The switching fabric
itself is not a routed hop — consistent with real traceroutes, where the
fabric is invisible at the IP layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..geo.coords import GeoPoint
from .asn import ASGraph
from .link import Link, LinkKind
from .node import Node
from .topology import Topology
from .. import units

__all__ = ["InternetExchange"]


@dataclass
class InternetExchange:
    """A named exchange at a city, with member border routers."""

    name: str
    location: GeoPoint
    #: member ASN -> that AS's border router at the exchange
    members: dict[int, Node] = field(default_factory=dict)

    def join(self, asn: int, border_router: Node) -> None:
        """Register ``border_router`` as ``asn``'s presence at the IXP.

        The router should be at (or near) the exchange's site; a member
        more than ~100 km away is almost certainly a modelling error
        (remote peering exists but is exactly the anti-pattern the paper
        warns about, so it must be requested explicitly via
        ``allow_remote``).
        """
        self._join(asn, border_router, allow_remote=False)

    def join_remote(self, asn: int, border_router: Node) -> None:
        """Register a *remote* peering presence (Castro et al. [23])."""
        self._join(asn, border_router, allow_remote=True)

    def _join(self, asn: int, border_router: Node, allow_remote: bool) -> None:
        if border_router.asn != asn:
            raise ValueError(
                f"router {border_router.name!r} belongs to "
                f"AS{border_router.asn}, not AS{asn}")
        if asn in self.members:
            raise ValueError(f"AS{asn} already member of {self.name}")
        distance = border_router.location.distance_to(self.location)
        if distance > 100e3 and not allow_remote:
            raise ValueError(
                f"router {border_router.name!r} is {distance / 1e3:.0f} km "
                f"from {self.name}; use join_remote() for remote peering")
        self.members[asn] = border_router

    def peer(self, topology: Topology, asgraph: ASGraph,
             a: int, b: int, *, rate_bps: float = units.gbps(100.0)) -> Link:
        """Establish a bilateral peering between members ``a`` and ``b``.

        Creates the ``p2p`` relationship and the cross-connect link.
        Port speed defaults to a 100G IXP port.
        """
        for asn in (a, b):
            if asn not in self.members:
                raise KeyError(f"AS{asn} is not a member of {self.name}")
        asgraph.set_peers(a, b)
        link = Link(
            self.members[a], self.members[b],
            kind=LinkKind.VIRTUAL,
            # Cross-connects inside one facility: metres, not kilometres.
            length_m=50.0,
            rate_bps=rate_bps,
            name=f"ixp:{self.name}:{a}-{b}",
        )
        return topology.add_link(link)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"InternetExchange({self.name!r}, "
                f"members={sorted(self.members)})")
