"""The scenario compiler: ``build(spec, seed) -> BuiltScenario``.

One engine turns any :class:`~repro.scenarios.spec.ScenarioSpec` into a
runnable world.  :class:`BuiltScenario` exposes the exact surface the
campaign and analysis layers consume — ``grid``, ``population``,
``radio``, ``topology``, ``asgraph``, ``routes``, ``campaign_config``,
``probes``, ``drive_route``, ``reference_trace``, ``wired_baseline`` —
so everything downstream of :class:`~repro.core.evaluation
.InfrastructureEvaluation` runs unchanged on any city.

Determinism contract: every stochastic component draws from named
streams of one :class:`~repro.sim.rng.RngRegistry` rooted at the build
seed (``scenario.load``, ``scenario.route``, ``scenario.wired``, plus
the campaign's per-cell streams), and per-cell draws consume the stream
in grid order — equal spec + equal seed gives a bit-identical campaign.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Optional

import numpy as np

from .. import units
from ..cn.nf import SiteTier
from ..cn.upf import UserPlaneFunction
from ..geo.coords import GeoPoint, path_length
from ..geo.grid import CellId, Grid
from ..geo.mobility import DriveTestRoute
from ..geo.population import RadialPopulationModel
from ..net.address import IPv4Address
from ..net.asn import ASGraph, ASKind, AutonomousSystem
from ..net.link import LinkKind
from ..net.node import Node, NodeKind
from ..net.routing import RouteComputer
from ..net.topology import Topology
from ..net.traceroute import TracerouteResult, traceroute
from ..probes.atlas import Probe, ProbeKind, ProbeRegistry
from ..probes.campaign import (
    CampaignConfig,
    DriveTestCampaign,
    Gateway,
    MobilePeer,
)
from ..probes.ping import ping
from ..probes.results import MeasurementDataset
from ..probes.stats import CellStatistics
from ..ran.gnb import GNodeB, RadioNetwork
from ..sim.rng import RngRegistry
from .spec import CampaignSpec, ScenarioSpec

__all__ = ["BuiltScenario", "build", "build_count", "with_sampling_layer"]

#: Process-wide count of scenario compilations.  Instrumentation for
#: the build/run split: tests and benchmarks snapshot it around a sweep
#: to assert how many builds the compiled-scenario cache actually
#: performed (e.g. exactly one for a campaign-only sweep).
_BUILD_COUNT = 0


def build_count() -> int:
    """How many :class:`BuiltScenario` compilations this process ran."""
    return _BUILD_COUNT


def with_sampling_layer(config: CampaignConfig, camp: CampaignSpec,
                        extra_load_draws: Mapping[CellId, float]
                        ) -> CampaignConfig:
    """``config`` with every sampling-layer field taken from ``camp``.

    The per-cell extra load is ``extra_load_draws`` with the spec's
    anchors written over them (no stream is consumed); peers, the
    handover table, the interruption, the load cap and the peer site
    index come straight from ``camp``.  The build and the compiled
    replay (:class:`~repro.core.compiled.CompiledScenario`) both go
    through here, which keeps them bit-identical.
    """
    extra_load = dict(extra_load_draws)
    for label, value in camp.extra_load_anchors:
        extra_load[CellId.from_label(label)] = value
    return dataclasses.replace(
        config,
        peers={peer.name: MobilePeer(
            name=peer.name, air_load=peer.air_load, sinr_db=peer.sinr_db,
            gateway=peer.gateway) for peer in camp.peers},
        cell_extra_load=extra_load,
        handover_prob={CellId.from_label(label): p
                       for label, p in camp.handover_prob},
        handover_interruption_s=camp.handover_interruption_s,
        max_cell_load=camp.max_cell_load,
        peer_site_index=camp.peer_site_index,
    )


class BuiltScenario:
    """A compiled scenario: the world every study layer runs against."""

    def __init__(self, spec: ScenarioSpec, seed: int = 42) -> None:
        global _BUILD_COUNT
        _BUILD_COUNT += 1
        self.spec = spec
        self.seed = seed
        self.rng = RngRegistry(seed)
        self._build_grid()
        self._build_population()
        self._build_radio()
        self._build_internet()
        self._build_probes()
        self._build_campaign_config()

    # ------------------------------------------------------------------
    # geography
    # ------------------------------------------------------------------

    def _build_grid(self) -> None:
        self.grid: Grid = self.spec.grid.build()

    def _build_population(self) -> None:
        pop = self.spec.population
        self.population = RadialPopulationModel(
            pop.centre, core_density=pop.core_density,
            scale_m=pop.scale_m, floor=pop.floor)
        self.traversed_cells = [
            cell for cell in self.grid.cells()
            if self.population.cell_density(self.grid, cell)
            >= pop.density_threshold]
        self.masked_cells = [cell for cell in self.grid.cells()
                             if cell not in set(self.traversed_cells)]

    # ------------------------------------------------------------------
    # radio layer
    # ------------------------------------------------------------------

    def _build_radio(self) -> None:
        radio = self.spec.radio
        self.radio_config = radio.build_config()
        self.channel = radio.build_channel(self.seed)
        gnbs = [GNodeB(
            name=site.gnb_name,
            location=self.grid.cell_center(CellId.from_label(site.cell)),
            config=self.radio_config,
            load=site.load,
        ) for site in radio.sites]
        self.radio = RadioNetwork(self.channel, gnbs)

    # ------------------------------------------------------------------
    # internet topology + policy
    # ------------------------------------------------------------------

    def _build_internet(self) -> None:
        topo = Topology(f"{self.spec.name}-internet")
        asg = ASGraph()
        for system in self.spec.systems:
            asg.add(AutonomousSystem(
                system.asn, system.name, kind=ASKind(system.kind),
                ptr_template=system.ptr_template))
        for customer, provider in self.spec.transits:
            asg.set_customer_of(customer, provider)
        for a, b in self.spec.peerings:
            asg.set_peers(a, b)

        for node in self.spec.nodes:
            topo.add_node(Node(
                name=node.name, kind=NodeKind(node.kind),
                location=node.location, asn=node.asn,
                address=(IPv4Address.parse(node.address)
                         if node.address else None),
                display_name=node.display,
                forwarding_delay_s=node.forwarding_delay_s))
        for link in self.spec.links:
            topo.connect(link.a, link.b, kind=LinkKind(link.kind),
                         rate_bps=link.rate_bps, length_m=link.length_m,
                         utilisation=link.utilisation)

        self.topology = topo
        self.asgraph = asg
        self.routes = RouteComputer(topo, asg)

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------

    def _build_probes(self) -> None:
        registry = ProbeRegistry()
        for probe in self.spec.probes:
            registry.register(Probe(
                probe_id=probe.probe_id, name=probe.name,
                node_name=probe.node_name, location=probe.location,
                kind=ProbeKind(probe.kind)))
        self.probes = registry

    # ------------------------------------------------------------------
    # campaign configuration (the calibration tables)
    # ------------------------------------------------------------------

    def _build_campaign_config(self) -> None:
        camp = self.spec.campaign
        gateways = {g.name: Gateway(g.name, g.node_name, UserPlaneFunction(
            name=g.upf_name, location=GeoPoint(g.lat, g.lon),
            tier=SiteTier(g.tier), pipeline_s=g.pipeline_s,
            rule_count=g.rule_count, throughput_bps=g.throughput_bps,
            load=g.load)) for g in camp.gateways}
        # Per-cell congestion field: seeded spatial noise, one draw per
        # traversed cell in grid order so equal specs + equal seeds stay
        # bit-identical.  The draws are build-layer state (they consumed
        # the stream); the anchors written over them are sampling-layer
        # state, so a compiled scenario keeps the draws and re-applies
        # any variant's anchors without touching the stream.
        draws: dict[CellId, float] = {}
        if camp.extra_load_range is not None:
            lo, hi = camp.extra_load_range
            load_rng = self.rng.stream("scenario.load")
            for cell in self.traversed_cells:
                draws[cell] = float(load_rng.uniform(lo, hi))
        self.extra_load_draws = draws

        self.campaign_config = with_sampling_layer(CampaignConfig(
            targets={CellId.from_label(label): tuple(names)
                     for label, names in camp.cell_targets},
            gateways=gateways,
            default_gateway=camp.default_gateway,
            default_targets=tuple(camp.default_targets),
            gateway_by_cell={CellId.from_label(label): gw
                             for label, gw in camp.gateway_by_cell},
        ), camp, draws)

    # ------------------------------------------------------------------
    # campaign execution + headline artifacts
    # ------------------------------------------------------------------

    def drive_route(self, mean_positions_per_cell: float = 6.0
                    ) -> DriveTestRoute:
        """The drive-test traversal of the measured cells."""
        weights: Optional[dict[CellId, float]] = None
        if self.spec.campaign.route_weighting == "population":
            density = {cell: self.population.cell_density(self.grid, cell)
                       for cell in self.traversed_cells}
            mean_density = float(np.mean(list(density.values())))
            weights = {cell: d / mean_density
                       for cell, d in density.items()}
        return DriveTestRoute(
            self.grid, self.traversed_cells,
            self.rng.stream("scenario.route"),
            traffic_weight=weights,
            mean_samples_per_cell=mean_positions_per_cell,
            min_samples=self.spec.campaign.min_samples,
        )

    def campaign(self, mean_positions_per_cell: float = 6.0
                 ) -> DriveTestCampaign:
        """Build the (not yet run) drive-test campaign."""
        return DriveTestCampaign(
            grid=self.grid,
            route=self.drive_route(mean_positions_per_cell),
            radio=self.radio,
            routes=self.routes,
            config=self.campaign_config,
            rng=self.rng,
        )

    def run_campaign(self, mean_positions_per_cell: float = 6.0
                     ) -> MeasurementDataset:
        """Run the full drive test; returns the measurement dataset."""
        return self.campaign(mean_positions_per_cell).run()

    def statistics(self, dataset: MeasurementDataset) -> CellStatistics:
        """Per-cell aggregation of a campaign dataset."""
        return CellStatistics(self.grid, dataset)

    def wired_baseline(self, count: int = 50) -> np.ndarray:
        """Wired RTTs between the spec's baseline endpoints."""
        if not (self.spec.wired_src and self.spec.wired_dst):
            raise ValueError(
                f"scenario {self.spec.name!r} defines no wired baseline")
        return ping(self.routes, self.spec.wired_src, self.spec.wired_dst,
                    self.rng.stream("scenario.wired"), count=count)

    def reference_trace(self) -> TracerouteResult:
        """The Table-I-style hop chain between the reference endpoints."""
        if not (self.spec.reference_src and self.spec.reference_dst):
            raise ValueError(
                f"scenario {self.spec.name!r} defines no reference trace")
        route = self.routes.route(self.spec.reference_src,
                                  self.spec.reference_dst)
        return traceroute(self.topology, route)

    def detour_route_km(self) -> float:
        """Deployed-fibre length of the trace's geographic loop.

        The loop runs from the reference source up to (and including the
        hop after) ``spec.detour_loop_end`` — the Fig.-4 construction —
        or over the whole trace when no loop end is named.
        """
        trace = self.reference_trace()
        hops = [self.topology.node(h.node_name) for h in trace.hops]
        locations = [self.topology.node(self.spec.reference_src).location]
        locations += [h.location for h in hops]
        end = self.spec.detour_loop_end
        if end:
            names = [h.name for h in hops]
            if end not in names:
                raise ValueError(f"detour loop end {end!r} is not a hop "
                                 f"of the reference trace")
            locations = locations[: names.index(end) + 2]
        return units.to_km(path_length(locations)
                           * self.spec.detour_circuity)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"BuiltScenario({self.spec.name!r}, seed={self.seed}, "
                f"grid={self.grid.cols}x{self.grid.rows})")


def build(spec: ScenarioSpec, seed: int = 42) -> BuiltScenario:
    """Compile ``spec`` into a runnable world rooted at ``seed``."""
    return BuiltScenario(spec, seed)
