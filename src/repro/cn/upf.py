"""User-plane function: the packet-processing pipeline of Sec. V-B.

A UPF classifies each packet against packet-detection rules (PDR),
applies QoS enforcement (QER) and forwards (FAR).  Latency model:

* **rule lookup** — grows with the installed rule count; linear scan by
  default, which the context-aware rule cache of :mod:`repro.cn.qos`
  (Jain et al. [32]) short-circuits for hot flows;
* **pipeline cost** — fixed per-packet processing (GTP encap/decap,
  counters);
* **queueing** — M/M/1 at the configured utilisation.

Placement (:class:`~repro.cn.nf.SiteTier`) determines how far the N3/N6
legs stretch — the actual subject of the UPF-integration experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .. import units
from ..geo.coords import GeoPoint
from ..net.queueing import sample_mm1_wait
from .nf import SiteTier

__all__ = ["UserPlaneFunction"]


@dataclass(frozen=True)
class UserPlaneFunction:
    """An immutable UPF deployment descriptor.

    Immutability keeps what-if studies honest: every variant (moved to
    the edge, more rules) is a *new* object created via
    :meth:`at_site` or :meth:`with_rules`, so experiment arms can never
    contaminate each other through shared state.
    """

    name: str
    location: GeoPoint
    tier: SiteTier = SiteTier.REGIONAL_CORE
    #: per-packet pipeline cost of the host (kernel) path
    pipeline_s: float = 12e-6
    #: per-rule linear-scan cost
    rule_scan_s: float = 40e-9
    #: installed PDR count
    rule_count: int = 1000
    #: forwarding capacity of the host path
    throughput_bps: float = units.gbps(40.0)
    #: data-plane utilisation in [0, 1)
    load: float = 0.0
    tags: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("UPF name must be non-empty")
        if self.pipeline_s < 0 or self.rule_scan_s < 0:
            raise ValueError("processing costs must be non-negative")
        if self.rule_count < 0:
            raise ValueError("rule count must be non-negative")
        if self.throughput_bps <= 0:
            raise ValueError("throughput must be positive")
        if not 0.0 <= self.load < 1.0:
            raise ValueError(f"UPF load must be in [0, 1), got {self.load}")

    # -- processing latency -----------------------------------------------

    def lookup_s(self, cached: bool = False) -> float:
        """PDR/QER classification cost.

        A cache hit costs one rule evaluation; a miss scans half the
        table on average.
        """
        if cached:
            return self.rule_scan_s
        return self.rule_scan_s * self.rule_count / 2.0

    def service_time_s(self, packet_bits: float = 12_000.0,
                       cached: bool = False) -> float:
        """Per-packet service time: lookup + pipeline + serialisation."""
        return (self.lookup_s(cached) + self.pipeline_s
                + units.transmission_delay(packet_bits, self.throughput_bps))

    def mean_latency_s(self, packet_bits: float = 12_000.0,
                       cached: bool = False) -> float:
        """Expected in-UPF latency at the configured load (M/M/1)."""
        s = self.service_time_s(packet_bits, cached)
        return s / (1.0 - self.load)

    def sample_latency_s(self, rng: np.random.Generator,
                         packet_bits: float = 12_000.0,
                         cached: bool = False) -> float:
        """Sampled in-UPF latency (wait + deterministic service)."""
        s = self.service_time_s(packet_bits, cached)
        return float(sample_mm1_wait(self.load, s, rng)) + s

    # -- what-if constructors ----------------------------------------------

    def at_site(self, location: GeoPoint, tier: SiteTier,
                name: Optional[str] = None) -> "UserPlaneFunction":
        """The same UPF relocated (the Sec. V-B placement experiment)."""
        return replace(self, location=location, tier=tier,
                       name=name or f"{self.name}@{tier.value}")

    def with_rules(self, rule_count: int) -> "UserPlaneFunction":
        """The same UPF with a different installed rule-table size."""
        return replace(self, rule_count=rule_count)

    def with_load(self, load: float) -> "UserPlaneFunction":
        """The same UPF at a different data-plane utilisation."""
        return replace(self, load=load)
