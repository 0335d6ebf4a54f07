"""Internet substrate: addressing, topology, policy routing, tracing."""


from __future__ import annotations

from .._lazy import lazy_exports
from .traceroute import traceroute  # eager: shadows its submodule

__all__ = [
    "IPv4Address", "IPv4Prefix", "ptr_name",
    "ASGraph", "ASKind", "AutonomousSystem",
    "Packet", "PacketNetwork",
    "ASRoute", "BGPRouter", "RouteClass",
    "InternetExchange",
    "LatencyBreakdown",
    "Link", "LinkKind",
    "Node", "NodeKind",
    "mm1_wait", "md1_wait", "mg1_wait", "mm1_residence", "sample_mm1_wait",
    "utilisation_check",
    "RouteComputer", "RouteResult",
    "Topology",
    "TracerouteHop", "TracerouteResult", "traceroute",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".address": ("IPv4Address", "IPv4Prefix", "ptr_name"),
    ".asn": ("ASGraph", "ASKind", "AutonomousSystem"),
    ".dessim": ("Packet", "PacketNetwork"),
    ".bgp": ("ASRoute", "BGPRouter", "RouteClass"),
    ".ixp": ("InternetExchange",),
    ".latency": ("LatencyBreakdown",),
    ".link": ("Link", "LinkKind"),
    ".node": ("Node", "NodeKind"),
    ".queueing": ("md1_wait", "mg1_wait", "mm1_residence", "mm1_wait",
                  "sample_mm1_wait", "utilisation_check"),
    ".routing": ("RouteComputer", "RouteResult"),
    ".topology": ("Topology",),
    ".traceroute": ("TracerouteHop", "TracerouteResult"),
})
