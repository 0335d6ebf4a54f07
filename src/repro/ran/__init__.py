"""Radio access network: spectrum, PHY/MAC latency, channel, sites, O-RAN."""


from __future__ import annotations

from .._lazy import lazy_exports

__all__ = [
    "AccessProcedure",
    "BeamConfig", "BeamManager",
    "ChannelModel",
    "EnergyModel", "SitePowerModel", "DIURNAL_URBAN_PROFILE",
    "DrxConfig", "DrxModel",
    "GNodeB", "RadioNetwork",
    "HandoverEvent", "HandoverModel",
    "AirInterface", "AirSample",
    "RrcConfig", "RrcState", "RrcStateMachine",
    "CellLoadModel", "SchedulerPolicy",
    "Band", "Generation", "Numerology", "RadioConfig",
    "ControlProcedure", "NearRTRIC", "NonRTRIC", "RicTier",
    "ServiceManagementOrchestration", "SignallingLeg", "XApp",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".access": ("AccessProcedure",),
    ".beam": ("BeamConfig", "BeamManager"),
    ".channel": ("ChannelModel",),
    ".drx": ("DrxConfig", "DrxModel"),
    ".energy": ("DIURNAL_URBAN_PROFILE", "EnergyModel", "SitePowerModel"),
    ".gnb": ("GNodeB", "RadioNetwork"),
    ".handover": ("HandoverEvent", "HandoverModel"),
    ".phy": ("AirInterface", "AirSample"),
    ".rrc": ("RrcConfig", "RrcState", "RrcStateMachine"),
    ".scheduler": ("CellLoadModel", "SchedulerPolicy"),
    ".spectrum": ("Band", "Generation", "Numerology", "RadioConfig"),
    ".oran": ("ControlProcedure", "NearRTRIC", "NonRTRIC", "RicTier",
              "ServiceManagementOrchestration", "SignallingLeg", "XApp"),
})
