"""5G/6G core network: NFs, SBI, procedures, UPF, QoS, slicing, hypervisors."""


from __future__ import annotations

from .._lazy import lazy_exports

__all__ = [
    "GtpTunnel",
    "HypervisorPlanner", "PlacementObjective", "PlacementResult",
    "NetworkFunction", "NFKind", "SbiBus", "SiteTier",
    "ProcedureBuilder",
    "FIVE_QI", "ContextAwareRuleEngine", "QosClass", "QosFlow",
    "NetworkSlice", "SliceManager", "SliceType",
    "offload", "THROUGHPUT_GAIN", "LATENCY_FACTOR",
    "UserPlaneFunction",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".gtp": ("GtpTunnel",),
    ".hypervisor": ("HypervisorPlanner", "PlacementObjective",
                    "PlacementResult"),
    ".nf": ("NetworkFunction", "NFKind", "SbiBus", "SiteTier"),
    ".procedures": ("ProcedureBuilder",),
    ".qos": ("FIVE_QI", "ContextAwareRuleEngine", "QosClass", "QosFlow"),
    ".slicing": ("NetworkSlice", "SliceManager", "SliceType"),
    ".smartnic": ("LATENCY_FACTOR", "THROUGHPUT_GAIN", "offload"),
    ".upf": ("UserPlaneFunction",),
})
