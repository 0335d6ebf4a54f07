"""O-RAN control architecture: the Near-RT RIC, xApps, signalling legs.

Section V-C argues for consolidating session and mobility management at
the network edge by hosting subscriber policy in the **Near-RT RIC**
instead of the centralised 5G core ([38]).  The latency arithmetic is
simple but needs real structure to be computed honestly:

* a control decision made in the core costs UE -> gNB (air) -> backhaul
  to the core site -> NF processing -> back;
* the same decision at the Near-RT RIC replaces the long backhaul legs
  with the RIC's E2 attachment near the CU.

This module models the components, their placement, and signalling
procedures as sequences of legs so that the CPF-enhancement experiment
(`repro.core.cpf_strategy`) can move functions around and measure the
consequence.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .. import units
from ..geo.coords import GeoPoint

__all__ = [
    "RicTier",
    "XApp",
    "NearRTRIC",
    "ControlProcedure",
    "SignallingLeg",
]


class RicTier(enum.Enum):
    """Control-loop tiers with their O-RAN latency envelopes."""

    REAL_TIME = "rt"          #: < 10 ms, in the DU/CU (scheduler itself)
    NEAR_REAL_TIME = "near_rt"  #: 10 ms - 1 s loop, Near-RT RIC
    NON_REAL_TIME = "non_rt"    #: > 1 s loop, Non-RT RIC / SMO

#: (lower, upper) control-loop bounds per tier, seconds.
TIER_LOOP_BOUNDS: dict[RicTier, tuple[float, float]] = {
    RicTier.REAL_TIME: (0.0, units.ms(10.0)),
    RicTier.NEAR_REAL_TIME: (units.ms(10.0), 1.0),
    RicTier.NON_REAL_TIME: (1.0, float("inf")),
}


@dataclass(frozen=True, slots=True)
class XApp:
    """A control application hosted on a RIC."""

    name: str
    tier: RicTier
    #: decision-making latency of the app itself, seconds
    processing_s: float = 2e-3

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("xApp name must be non-empty")
        if self.processing_s < 0:
            raise ValueError("processing latency must be non-negative")
        lo, hi = TIER_LOOP_BOUNDS[self.tier]
        if not lo <= self.processing_s <= hi:
            raise ValueError(
                f"xApp {self.name!r} processing {self.processing_s}s "
                f"outside its {self.tier.value} tier bounds [{lo}, {hi}]s")


@dataclass
class NearRTRIC:
    """Near-real-time RAN intelligent controller at an edge site."""

    name: str
    location: GeoPoint
    #: one-way E2 latency to its attached CUs, seconds
    e2_latency_s: float = 1e-3
    xapps: dict[str, XApp] = field(default_factory=dict)

    def deploy(self, xapp: XApp) -> XApp:
        """Host a near-RT xApp on this RIC."""
        if xapp.tier is not RicTier.NEAR_REAL_TIME:
            raise ValueError(
                f"xApp {xapp.name!r} is {xapp.tier.value}, not near-rt")
        if xapp.name in self.xapps:
            raise ValueError(f"xApp {xapp.name!r} already deployed")
        self.xapps[xapp.name] = xapp
        return xapp

    def xapp(self, name: str) -> XApp:
        """Look up a deployed xApp."""
        try:
            return self.xapps[name]
        except KeyError:
            raise KeyError(f"no xApp {name!r} on {self.name}") from None


@dataclass(frozen=True, slots=True)
class SignallingLeg:
    """One hop of a control procedure."""

    description: str
    latency_s: float

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ValueError("leg latency must be non-negative")


@dataclass
class ControlProcedure:
    """A named sequence of signalling legs (e.g. PDU session setup)."""

    name: str
    legs: list[SignallingLeg] = field(default_factory=list)

    def add(self, description: str, latency_s: float) -> "ControlProcedure":
        """Append one signalling leg; returns self for chaining."""
        self.legs.append(SignallingLeg(description, latency_s))
        return self

    @property
    def total_s(self) -> float:
        return sum(leg.latency_s for leg in self.legs)

    def breakdown(self) -> dict[str, float]:
        """Leg description -> latency (aggregating repeated legs)."""
        out: dict[str, float] = {}
        for leg in self.legs:
            out[leg.description] = out.get(leg.description, 0.0) \
                + leg.latency_s
        return out

    def __len__(self) -> int:
        return len(self.legs)
