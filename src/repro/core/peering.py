"""Local peering optimization (Section V-A).

The what-if the paper argues for: establish a Klagenfurt internet
exchange, land the mobile operator and the local eyeball ISP on it, and
peer them directly.  The Vienna-Prague-Bucharest-Vienna transit chain
collapses to a metro hop.

The experiment runs against a built Klagenfurt world,
``build(klagenfurt(), seed)``; it names that world's nodes (``ue-c2``,
``probe-uni``, ``ascus-core``), so it studies Klagenfurt only.  It
measures the gateway-to-probe path before and after, re-running BGP
with the added ``p2p`` edge — the same machinery that produced the
detour now removes it, which is the point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import units
from ..geo.coords import GeoPoint
from ..net.ixp import InternetExchange
from ..net.traceroute import TracerouteResult, traceroute
from ..scenarios.build import BuiltScenario
from ..scenarios.klagenfurt import AS_EYEBALL, AS_MOBILE

__all__ = ["PeeringOutcome", "LocalPeeringExperiment"]

#: Site of the hypothetical Klagenfurt exchange (city centre).
KLAGENFURT_IX_SITE = GeoPoint(46.624, 14.308)


@dataclass(frozen=True)
class PeeringOutcome:
    """Before/after comparison of the local-peering what-if."""

    before_rtt_s: float
    after_rtt_s: float
    before_hops: int
    after_hops: int
    before_path_km: float
    after_path_km: float
    before_as_path: tuple[int, ...]
    after_as_path: tuple[int, ...]

    @property
    def rtt_reduction_factor(self) -> float:
        return self.before_rtt_s / self.after_rtt_s

    @property
    def detour_eliminated(self) -> bool:
        """True when the route no longer leaves the metro area."""
        return self.after_path_km < 100.0


class LocalPeeringExperiment:
    """Adds a Klagenfurt IXP and peers the mobile and eyeball ASes.

    The mobile operator must also *backhaul its user plane locally* for
    the peering to matter — peering in Klagenfurt is useless while the
    CGNAT sits in Vienna.  The experiment therefore adds a local
    breakout router for the mobile AS at the exchange, reflecting how
    operators actually deploy local peering (UPF breakout + IX port).
    """

    def __init__(self, scenario: BuiltScenario):
        self.scenario = scenario
        self._applied = False

    def baseline_trace(self) -> TracerouteResult:
        """The pre-peering Table I trace."""
        return self.scenario.reference_trace()

    def apply(self) -> InternetExchange:
        """Create the IXP, join both ASes, establish the peering."""
        if self._applied:
            raise RuntimeError("peering experiment already applied")
        scenario = self.scenario
        topo = scenario.topology
        # Local user-plane breakout of the mobile operator at the IX.
        from ..net.node import Node, NodeKind
        breakout = topo.add_node(Node(
            name="gw-kla-local", kind=NodeKind.GATEWAY,
            location=KLAGENFURT_IX_SITE, asn=AS_MOBILE,
            display_name="10.12.129.1"))
        # Tie the breakout into the operator's user plane and give the
        # UE a direct path to it.
        topo.connect("ue-c2", "gw-kla-local",
                     rate_bps=units.gbps(10.0))
        topo.connect("gw-kla-local", "gw-vie",
                     rate_bps=units.gbps(100.0))

        ix = InternetExchange("kla-ix", KLAGENFURT_IX_SITE)
        ix.join(AS_MOBILE, breakout)
        ix.join(AS_EYEBALL, topo.node("ascus-core"))
        ix.peer(topo, scenario.asgraph, AS_MOBILE, AS_EYEBALL)
        scenario.routes.invalidate()
        self._applied = True
        return ix

    def run(self) -> PeeringOutcome:
        """Execute the full before/after comparison."""
        before = self.baseline_trace()
        before_route = self.scenario.routes.route("ue-c2", "probe-uni")
        self.apply()
        after_route = self.scenario.routes.route("ue-c2", "probe-uni")
        after = traceroute(self.scenario.topology, after_route)
        return PeeringOutcome(
            before_rtt_s=before.total_rtt_s,
            after_rtt_s=after.total_rtt_s,
            before_hops=before.hop_count,
            after_hops=after.hop_count,
            before_path_km=self._geo_km(before),
            after_path_km=self._geo_km(after),
            before_as_path=before_route.as_path,
            after_as_path=after_route.as_path,
        )

    def _geo_km(self, trace: TracerouteResult) -> float:
        """Geographic route length from hop locations (not link lengths,
        which include the RAN stand-in on the first hop)."""
        topo = self.scenario.topology
        points = [topo.node(trace.src).location]
        points += [topo.node(h.node_name).location for h in trace.hops]
        from ..geo.coords import path_length
        return units.to_km(path_length(points) * 1.05)
