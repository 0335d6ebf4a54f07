"""5G/6G core network: NFs, SBI, procedures, UPF, QoS."""


from __future__ import annotations

from .._lazy import lazy_exports

__all__ = [
    "NetworkFunction", "NFKind", "SbiBus", "SiteTier",
    "ProcedureBuilder",
    "FIVE_QI", "ContextAwareRuleEngine", "QosClass", "QosFlow",
    "UserPlaneFunction",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".nf": ("NetworkFunction", "NFKind", "SbiBus", "SiteTier"),
    ".procedures": ("ProcedureBuilder",),
    ".qos": ("FIVE_QI", "ContextAwareRuleEngine", "QosClass", "QosFlow"),
    ".upf": ("UserPlaneFunction",),
})
