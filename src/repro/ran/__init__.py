"""Radio access network: spectrum, PHY/MAC latency, channel, sites, O-RAN."""


from __future__ import annotations

from .._lazy import lazy_exports

__all__ = [
    "ChannelModel",
    "GNodeB", "RadioNetwork",
    "AirInterface", "AirSample",
    "Band", "Generation", "Numerology", "RadioConfig",
    "ControlProcedure", "NearRTRIC", "RicTier", "SignallingLeg", "XApp",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".channel": ("ChannelModel",),
    ".gnb": ("GNodeB", "RadioNetwork"),
    ".phy": ("AirInterface", "AirSample"),
    ".spectrum": ("Band", "Generation", "Numerology", "RadioConfig"),
    ".oran": ("ControlProcedure", "NearRTRIC", "RicTier", "SignallingLeg",
              "XApp"),
})
