"""Radio access network: spectrum, PHY/MAC latency, channel, sites, O-RAN."""


from __future__ import annotations

from .._lazy import lazy_exports

__all__ = [
    "AccessProcedure",
    "ChannelModel",
    "EnergyModel", "SitePowerModel", "DIURNAL_URBAN_PROFILE",
    "DrxConfig", "DrxModel",
    "GNodeB", "RadioNetwork",
    "AirInterface", "AirSample",
    "RrcConfig", "RrcState", "RrcStateMachine",
    "CellLoadModel", "SchedulerPolicy",
    "Band", "Generation", "Numerology", "RadioConfig",
    "ControlProcedure", "NearRTRIC", "RicTier", "SignallingLeg", "XApp",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".access": ("AccessProcedure",),
    ".channel": ("ChannelModel",),
    ".drx": ("DrxConfig", "DrxModel"),
    ".energy": ("DIURNAL_URBAN_PROFILE", "EnergyModel", "SitePowerModel"),
    ".gnb": ("GNodeB", "RadioNetwork"),
    ".phy": ("AirInterface", "AirSample"),
    ".rrc": ("RrcConfig", "RrcState", "RrcStateMachine"),
    ".scheduler": ("CellLoadModel", "SchedulerPolicy"),
    ".spectrum": ("Band", "Generation", "Numerology", "RadioConfig"),
    ".oran": ("ControlProcedure", "NearRTRIC", "RicTier", "SignallingLeg",
              "XApp"),
})
