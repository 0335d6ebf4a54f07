"""UPF integration and placement strategy (Section V-B).

Quantifies the paper's central remedy: terminate the user plane at the
*edge* instead of the regional core.  Three deployment tiers are
compared under the 5G URLLC radio profile the cited studies use:

* **central cloud** — UPF in a public-cloud region (the worst case);
* **regional core** — the Vienna CGNAT of the measurement campaign;
* **edge** — UPF co-located with the CU in Klagenfurt, service on-site.

Paper targets: edge UPF brings the service RTT to **5-6.2 ms** (Leyva /
Barrachina / Goshi numbers), versus the >62 ms measured through the
regional core — "a reduction of up to 90 %".  On top of placement,
:class:`DynamicUpfSelector` implements the paper's "dynamic UPF
selection ... prioritising latency-sensitive tasks at the edge while
offloading less critical workloads to centralised cloud UPFs".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import units
from ..cn.nf import SiteTier
from ..cn.upf import UserPlaneFunction
from ..geo.coords import GeoPoint
from ..geo.places import PLACES, VIENNA
from ..ran.channel import ChannelModel
from ..ran.phy import AirInterface
from ..ran.spectrum import RadioConfig

__all__ = ["UpfDeployment", "UpfPlacementStudy", "DynamicUpfSelector"]

#: Edge site: co-located with the Klagenfurt CU.
EDGE_SITE = PLACES["university_klagenfurt"]
#: Cloud region used for the central arm (Frankfurt-like distance).
CLOUD_SITE = PLACES["frankfurt"]


@dataclass(frozen=True)
class UpfDeployment:
    """One deployment arm of the placement study."""

    name: str
    upf: UserPlaneFunction
    #: one-way distance gNB -> UPF site, metres
    backhaul_m: float
    #: one-way distance UPF -> application server, metres
    dn_m: float


class UpfPlacementStudy:
    """RTT of one service transaction per UPF deployment tier."""

    def __init__(self, *, radio_config: Optional[RadioConfig] = None,
                 gnb_site: Optional[GeoPoint] = None,
                 server_processing_s: float = 1.5e-3,
                 air_load: float = 0.50, sinr_db: float = 18.0):
        if server_processing_s < 0:
            raise ValueError("server processing must be non-negative")
        self.radio_config = radio_config if radio_config is not None \
            else RadioConfig.nr_5g_urllc()
        self.gnb_site = gnb_site if gnb_site is not None else EDGE_SITE
        self.server_processing_s = server_processing_s
        self.air_load = air_load
        self.sinr_db = sinr_db
        self.air = AirInterface(
            self.radio_config,
            ChannelModel(self.radio_config.carrier_frequency_hz,
                         antenna_gain_db=25.0))

    # -- deployment arms ----------------------------------------------------

    def deployments(self) -> list[UpfDeployment]:
        """The three tiers, with distances from the gNB site."""
        base = UserPlaneFunction(
            name="upf", location=self.gnb_site, tier=SiteTier.EDGE,
            pipeline_s=12e-6, rule_count=5_000, load=0.3)
        edge = UpfDeployment(
            name="edge",
            upf=base.at_site(self.gnb_site, SiteTier.EDGE),
            backhaul_m=6_000.0,               # metro aggregation ring
            dn_m=500.0)                       # server on-site
        regional = UpfDeployment(
            name="regional-core",
            upf=base.at_site(VIENNA, SiteTier.REGIONAL_CORE),
            backhaul_m=self.gnb_site.distance_to(VIENNA),
            dn_m=self.gnb_site.distance_to(VIENNA))  # service back south
        cloud = UpfDeployment(
            name="central-cloud",
            upf=base.at_site(CLOUD_SITE, SiteTier.CENTRAL_CLOUD),
            backhaul_m=self.gnb_site.distance_to(CLOUD_SITE),
            dn_m=self.gnb_site.distance_to(CLOUD_SITE))
        return [edge, regional, cloud]

    # -- latency -------------------------------------------------------------

    def mean_rtt_s(self, deployment: UpfDeployment) -> float:
        """Expected service RTT through one deployment."""
        air = self.air.mean_rtt(load=self.air_load, sinr_db=self.sinr_db)
        backhaul = 2.0 * units.fibre_delay(deployment.backhaul_m * 1.05)
        upf = 2.0 * deployment.upf.mean_latency_s()
        dn = 2.0 * units.fibre_delay(deployment.dn_m * 1.05)
        return air + backhaul + upf + dn + self.server_processing_s

    def sample_rtt_s(self, deployment: UpfDeployment,
                     rng: np.random.Generator) -> float:
        """One sampled service RTT through one deployment."""
        air = self.air.sample_rtt(rng, load=self.air_load,
                                  sinr_db=self.sinr_db)
        backhaul = 2.0 * units.fibre_delay(deployment.backhaul_m * 1.05)
        upf = 2.0 * deployment.upf.sample_latency_s(rng)
        dn = 2.0 * units.fibre_delay(deployment.dn_m * 1.05)
        return air + backhaul + upf + dn + self.server_processing_s

    def compare(self) -> dict[str, float]:
        """Deployment name -> mean RTT (seconds)."""
        return {d.name: self.mean_rtt_s(d) for d in self.deployments()}

    def reduction_vs_measured(self, measured_rtt_s: float) -> float:
        """Fractional RTT reduction of the edge arm against a measured
        baseline (the paper quotes 'up to 90 %' against its >62 ms)."""
        if measured_rtt_s <= 0:
            raise ValueError("measured RTT must be positive")
        edge = self.mean_rtt_s(self.deployments()[0])
        return 1.0 - edge / measured_rtt_s


class DynamicUpfSelector:
    """Per-flow UPF selection between edge and cloud anchors.

    Latency-critical flows (tight delay budgets) anchor at the edge UPF
    until its capacity is exhausted; bulk flows anchor in the cloud.
    This is deliberately simple — the point the paper makes is the
    *policy*, not the optimiser.
    """

    def __init__(self, study: UpfPlacementStudy, *,
                 edge_capacity_flows: int = 100):
        if edge_capacity_flows < 0:
            raise ValueError("edge capacity must be non-negative")
        self.study = study
        deployments = {d.name: d for d in study.deployments()}
        self.edge = deployments["edge"]
        self.cloud = deployments["central-cloud"]
        self.edge_capacity_flows = edge_capacity_flows
        self._edge_flows = 0

    def select(self, delay_budget_s: float) -> UpfDeployment:
        """Anchor a new flow; returns the chosen deployment."""
        if delay_budget_s <= 0:
            raise ValueError("delay budget must be positive")
        edge_rtt = self.study.mean_rtt_s(self.edge)
        cloud_rtt = self.study.mean_rtt_s(self.cloud)
        # Cloud satisfies the budget -> offload (preserve edge capacity).
        if cloud_rtt <= delay_budget_s:
            return self.cloud
        if edge_rtt <= delay_budget_s and \
                self._edge_flows < self.edge_capacity_flows:
            self._edge_flows += 1
            return self.edge
        # Nothing satisfies the budget: least-bad anchor.
        return self.edge if edge_rtt < cloud_rtt and \
            self._edge_flows < self.edge_capacity_flows else self.cloud

    def release(self) -> None:
        """Release one edge flow (flow teardown)."""
        if self._edge_flows == 0:
            raise RuntimeError("no edge flows to release")
        self._edge_flows -= 1
