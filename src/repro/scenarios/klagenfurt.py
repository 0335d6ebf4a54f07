"""The Klagenfurt evaluation world (Section IV-B) as a spec factory.

:func:`klagenfurt` distils the paper's scenario — the 6x7 grid around
the University of Klagenfurt, the six-AS internet behind the Table I
hop chain and the Fig. 4 Vienna-Prague-Bucharest-Vienna detour, the
six-site FR1 macro layer, and the per-cell calibration anchors
(C1 = min mean, C3 = max mean, B3 = min sigma, E5 = max sigma) — into a
:class:`~repro.scenarios.spec.ScenarioSpec`.  All derived geometry
(grid origin placed so the probe lands in E3, the population centre in
D4) is computed here once and stored as concrete coordinates.

The calibration knobs and their physical meaning:

* ``extra_load_range``/``extra_load_anchors`` — local scheduler
  congestion on top of the site base load; drives both mean and
  variance via buffer queueing.
* ``gateway_by_cell`` — CGNAT breakout assignment.  B3's sessions break
  out in **Frankfurt** over a long operator tunnel: a large
  *deterministic* latency with almost no jitter, which is how a cell
  gets a 60+ ms mean with a ~2 ms standard deviation.
* ``handover_prob`` — fraction of measurement windows hit by a
  handover/RLF interruption; E5 sits on a coverage boundary, giving it
  the heaviest tail (the paper's 46.4 ms sigma).
* per-cell target lists — eight mobile peers plus the university probe
  by default; B3 measures the wired probe only (its quiet residential
  peers were offline), removing peer-side air-interface variance.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..geo.coords import GeoPoint
from ..geo.grid import CellId, Grid
from ..geo.places import BUCHAREST, FRANKFURT, GRAZ, PLACES, PRAGUE, VIENNA
from ..ran.spectrum import Generation, RadioConfig
from .spec import (
    ASSpec,
    CampaignSpec,
    GatewaySpec,
    GridSpec,
    LinkSpec,
    NodeSpec,
    PeerSpec,
    PopulationSpec,
    ProbeSpec,
    RadioSpec,
    ScenarioSpec,
    SiteSpec,
)

__all__ = ["klagenfurt", "AS_MOBILE", "AS_TRANSIT", "AS_PEERING_CZ",
           "AS_ZET", "AS_IX_TRANSIT", "AS_EYEBALL", "AS_CLOUD", "AS_NREN",
           "ANCHOR_EXTRA_LOAD", "ANCHOR_HANDOVER_PROB",
           "HANDOVER_INTERRUPTION_S"]

# AS numbers (the real operators' ASNs where known from Table I).
AS_MOBILE = 8447        #: the mobile operator (A1-like)
AS_TRANSIT = 60068      #: DataPacket / CDN77
AS_PEERING_CZ = 61414   #: zetservers @ peering.cz (Prague)
AS_ZET = 39737          #: zet.net / amanet (Bucharest)
AS_IX_TRANSIT = 39912   #: the Vienna-IX transit of the eyeball
AS_EYEBALL = 42473      #: ascus.at (Klagenfurt access ISP)
AS_CLOUD = 61098        #: Exoscale-like cloud (Vienna)
AS_NREN = 1853          #: ACOnet (Austrian NREN)

#: Grid geometry: university probe in E3, per Section IV-B.
_M_PER_DEG_LAT = 111_194.9
UNI = PLACES["university_klagenfurt"]

#: Per-cell congestion anchors on top of the site base load; the rest
#: of the spatial field is seeded (stream "scenario.load") at build.
ANCHOR_EXTRA_LOAD: dict[str, float] = {
    "C1": -0.01,   # the quietest measured cell -> 61 ms mean
    "C3": 0.33,    # the most congested cell -> 110 ms mean (see also
                   # its dedicated rush-hour peer set below)
    "B3": -0.34,   # nearly idle residential cell (load ~0.21)
    "E5": 0.135,   # moderately loaded, but see handover_prob
    "C2": 0.16,    # the Table I mobile node's cell (~65 ms to the probe)
    "C5": 0.18,    # arterial through-traffic keeps C5 off the minimum
}

#: Handover-interruption probability per measurement window.
ANCHOR_HANDOVER_PROB: dict[str, float] = {
    "E5": 0.35,    # coverage boundary: frequent interruptions
}

#: Interruption magnitude: handover plus occasional RRC re-establishment.
HANDOVER_INTERRUPTION_S: float = 130e-3

#: macro-site anchor cells (lattice across the grid)
_SITE_CELLS = ("B2", "D2", "F2", "B5", "D5", "F5")
_SITE_BASE_LOAD = 0.55

_GBPS = 1e9
_KM = 1000.0


def _grid_spec() -> GridSpec:
    m_per_deg_lon = _M_PER_DEG_LAT * float(np.cos(np.radians(UNI.lat)))
    # University at the centre of E3 (col 4, row 2).
    return GridSpec(
        origin_lat=UNI.lat + 2.5 * 1000.0 / _M_PER_DEG_LAT,
        origin_lon=UNI.lon - 4.5 * 1000.0 / m_per_deg_lon,
        cell_size_m=1000.0, cols=6, rows=7)


def klagenfurt(*, radio_config: Optional[RadioConfig] = None,
               edge_breakout: bool = False) -> ScenarioSpec:
    """The Klagenfurt :class:`ScenarioSpec`.

    Parameters
    ----------
    radio_config:
        Radio profile of all macro sites.  Defaults to the deployed 5G
        configuration; pass :meth:`RadioConfig.nr_6g` to model the 6G
        upgrade of the same footprint (the Sec. VI outlook).
    edge_breakout:
        Terminate the user plane at a Klagenfurt edge gateway instead
        of the Vienna CGNAT (the Sec. V-B remedy, applied campaign-wide).
        Its reference trace never reaches the Vienna exchange, so the
        Fig.-4 detour then spans the whole trace.
    """
    grid_spec = _grid_spec()
    grid: Grid = grid_spec.build()
    config = radio_config if radio_config is not None \
        else RadioConfig.nr_5g()

    # Urban core between the university and the city centre; the scale
    # is calibrated so exactly 33 cells clear the paper's 1000 /km2
    # threshold (the other 9 are border cells).
    centre = grid.point_in_cell(CellId.from_label("D4"), 0.3, 0.3)
    population = PopulationSpec(
        centre_lat=centre.lat, centre_lon=centre.lon,
        core_density=4200.0, scale_m=2250.0, floor=40.0,
        density_threshold=1000.0)

    # 64T64R massive-MIMO beamforming gain keeps 1 km macro-cell UEs at
    # working SINR (without it the whole grid sits at the cell edge and
    # HARQ dominates every sample).
    radio = RadioSpec.from_config(
        config,
        sites=[SiteSpec(cell=label, load=_SITE_BASE_LOAD)
               for label in _SITE_CELLS],
        antenna_gain_db=28.0, shadowing_sigma_db=4.0)

    systems = (
        ASSpec(AS_MOBILE, "mobile-at", "mobile_isp"),
        ASSpec(AS_TRANSIT, "datapacket", "cdn"),
        ASSpec(AS_PEERING_CZ, "zetservers", "hosting"),
        ASSpec(AS_ZET, "zet-amanet", "hosting"),
        ASSpec(AS_IX_TRANSIT, "as39912", "transit"),
        ASSpec(AS_EYEBALL, "ascus", "access_isp"),
        ASSpec(AS_CLOUD, "exoscale", "cloud"),
        ASSpec(AS_NREN, "aconet", "education"),
    )
    # Gao-Rexford relationships producing the Table I chain.
    transits = (
        (AS_MOBILE, AS_TRANSIT),
        (AS_ZET, AS_PEERING_CZ),
        (AS_IX_TRANSIT, AS_ZET),       # Bucharest upstream
        (AS_EYEBALL, AS_IX_TRANSIT),
        (AS_CLOUD, AS_TRANSIT),        # cloud transit
    )
    peerings = [
        (AS_TRANSIT, AS_PEERING_CZ),   # Prague peering
        (AS_NREN, AS_CLOUD),           # VIX peering
    ]
    if edge_breakout:
        # The paper's V-A + V-B combination: the edge gateway peers
        # with the local eyeball directly.
        peerings.append((AS_MOBILE, AS_EYEBALL))

    c2 = grid.cell_center(CellId.from_label("C2"))
    e3 = grid.cell_center(CellId.from_label("E3"))
    kla_edge = GeoPoint(46.626, 14.306)   # edge breakout site
    kla_core = GeoPoint(46.628, 14.310)

    def node(name: str, kind: str, loc: GeoPoint, asn: int,
             addr: str = "", display: str = "",
             forwarding: float = -1.0) -> NodeSpec:
        return NodeSpec(name=name, kind=kind, lat=loc.lat, lon=loc.lon,
                        asn=asn, address=addr, display=display,
                        forwarding_delay_s=forwarding)

    nodes = (
        # --- AS_MOBILE: UE representative + gateways -------------------
        node("ue-c2", "ue", c2, AS_MOBILE,
             addr="10.12.128.77", display="10.12.128.77"),
        node("gw-vie", "gateway", VIENNA, AS_MOBILE,
             addr="10.12.128.1", display="10.12.128.1"),
        node("gw-fra", "gateway", FRANKFURT, AS_MOBILE,
             addr="10.14.0.1", display="10.14.0.1"),
        # Edge breakout site (used when edge_breakout=True): user plane
        # terminates in Klagenfurt, next to the probe's access network.
        node("gw-kla", "gateway", kla_edge, AS_MOBILE,
             addr="10.15.0.1", display="10.15.0.1"),
        # --- AS_TRANSIT: DataPacket/CDN77 ------------------------------
        node("dp-vie", "router", VIENNA, AS_TRANSIT,
             addr="37.19.223.61",
             display="unn-37-19-223-61.datapacket.com"),
        node("cdn77-vie", "router", VIENNA, AS_TRANSIT,
             addr="185.156.45.138",
             display="vl204.vie-itx1-core-2.cdn77.com"),
        node("dp-fra", "router", FRANKFURT, AS_TRANSIT,
             addr="37.19.200.1",
             display="unn-37-19-200-1.datapacket.com"),
        # --- AS_PEERING_CZ: zetservers @ peering.cz (Prague) -----------
        node("zet-prg", "router", PRAGUE, AS_PEERING_CZ,
             addr="185.0.20.31", display="zetservers.peering.cz"),
        # --- AS_ZET: zet.net / amanet (Bucharest) ----------------------
        node("zet-buh", "router", BUCHAREST, AS_ZET,
             addr="103.246.249.33", display="vie-dr2-cr1.zet.net"),
        node("amanet-buh", "router", BUCHAREST, AS_ZET,
             addr="185.104.63.33", display="amanet-cust.zet.net"),
        # --- AS_IX_TRANSIT: as39912 at the Vienna IX -------------------
        node("ix-vie", "router", VIENNA, AS_IX_TRANSIT,
             addr="185.211.219.155",
             display="ae2-97.mx204-1.ix.vie.at.as39912.net"),
        # --- AS_EYEBALL: ascus.at (Klagenfurt) -------------------------
        node("ascus-core", "router", kla_core, AS_EYEBALL,
             addr="195.16.228.3", display="003-228-016-195.ascus.at"),
        node("ascus-access", "router", GeoPoint(46.622, 14.296),
             AS_EYEBALL, addr="195.16.246.180",
             display="180-246-016-195.ascus.at"),
        node("probe-uni", "probe", e3, AS_EYEBALL,
             addr="195.140.139.133", display="195.140.139.133"),
        # --- AS_CLOUD + AS_NREN (wired baseline) -----------------------
        node("cloud-vie", "server", PLACES["exoscale_vienna"], AS_CLOUD,
             addr="194.182.160.10", display="vie-1.exoscale-like.net"),
        node("uni-wired", "server", UNI, AS_NREN,
             addr="143.205.1.10", display="atlas-anchor.uni-klu.ac.at"),
        # Campus edge: the deep-inspection firewall dominates the wired
        # baseline's processing share (calibrated to the 7-12 ms of [3]).
        node("uni-fw", "router", UNI, AS_NREN,
             addr="143.205.1.1", display="fw1.uni-klu.ac.at",
             forwarding=2.3e-3),
        node("acon-graz", "router", GRAZ, AS_NREN,
             addr="193.171.23.1", display="graz1.aco.net"),
        node("acon-vie", "router", VIENNA, AS_NREN,
             addr="193.171.23.33", display="vie1.aco.net"),
    )

    links = (
        # Mobile operator user plane.  The UE-to-gateway link stands in
        # for the RAN air interface + scheduler buffering + GTP tunnel
        # of the C2 cell; its effective length is that leg's median RTT
        # (~36 ms, what a mobile traceroute shows on hop 1).  The
        # campaign models this leg with the radio stack instead, and
        # the Fig. 4 geography uses node locations, not this length.
        LinkSpec("ue-c2", "gw-vie", rate_bps=10 * _GBPS,
                 length_m=3600.0 * _KM),
        # Frankfurt breakout rides the operator's long EU ring (via
        # Amsterdam), hence the explicit tunnel length.
        LinkSpec("gw-vie", "gw-fra", rate_bps=100 * _GBPS),
        LinkSpec("gw-vie", "gw-kla", rate_bps=100 * _GBPS),
        # The edge breakout peers directly with the local eyeball (the
        # Sec. V-A + V-B combination the paper recommends).
        LinkSpec("gw-kla", "ascus-core", rate_bps=100 * _GBPS),
        LinkSpec("gw-vie", "dp-vie", rate_bps=100 * _GBPS,
                 utilisation=0.30),
        LinkSpec("gw-fra", "dp-fra", rate_bps=100 * _GBPS,
                 length_m=1300.0 * _KM, utilisation=0.20),
        # Transit internals.
        LinkSpec("dp-vie", "cdn77-vie", rate_bps=100 * _GBPS,
                 kind="virtual", length_m=2_000.0, utilisation=0.35),
        LinkSpec("dp-fra", "cdn77-vie", rate_bps=100 * _GBPS,
                 utilisation=0.25),
        # Prague peering (CDN77 reaches peering.cz remotely from Vienna).
        LinkSpec("cdn77-vie", "zet-prg", rate_bps=100 * _GBPS,
                 utilisation=0.30),
        # zetservers -> Bucharest customer.
        LinkSpec("zet-prg", "zet-buh", rate_bps=40 * _GBPS,
                 utilisation=0.35),
        LinkSpec("zet-buh", "amanet-buh", rate_bps=40 * _GBPS,
                 kind="virtual", length_m=2_000.0, utilisation=0.30),
        # Bucharest upstream -> Vienna IX presence of as39912.
        LinkSpec("amanet-buh", "ix-vie", rate_bps=40 * _GBPS,
                 utilisation=0.35),
        # Eyeball transit + access chain down to the probe.
        LinkSpec("ix-vie", "ascus-core", rate_bps=40 * _GBPS,
                 utilisation=0.30),
        LinkSpec("ascus-core", "ascus-access", rate_bps=10 * _GBPS,
                 utilisation=0.40),
        LinkSpec("ascus-access", "probe-uni", rate_bps=1 * _GBPS,
                 utilisation=0.20),
        # Cloud attachment + NREN chain.
        LinkSpec("cloud-vie", "dp-vie", rate_bps=100 * _GBPS,
                 utilisation=0.25),
        LinkSpec("uni-wired", "uni-fw", rate_bps=10 * _GBPS,
                 kind="virtual", length_m=200.0, utilisation=0.30),
        LinkSpec("uni-fw", "acon-graz", rate_bps=10 * _GBPS,
                 utilisation=0.35),
        LinkSpec("acon-graz", "acon-vie", rate_bps=100 * _GBPS,
                 length_m=400.0 * _KM, utilisation=0.30),
        LinkSpec("acon-vie", "cloud-vie", rate_bps=100 * _GBPS,
                 utilisation=0.25),
    )

    probes = (
        ProbeSpec(probe_id=1, name="uni-anchor", node_name="probe-uni",
                  lat=e3.lat, lon=e3.lon, kind="anchor"),
        ProbeSpec(probe_id=2, name="uni-wired", node_name="uni-wired",
                  lat=UNI.lat, lon=UNI.lon, kind="anchor"),
    )

    # CGNAT/UPF breakouts: Vienna is the busy default; Frankfurt is the
    # quiet overflow pool some sessions land on; the lean Klagenfurt
    # edge UPF is the Sec. V-B deployment.
    gateways = (
        GatewaySpec("vienna", "gw-vie", "upf-cgnat-vie",
                    lat=VIENNA.lat, lon=VIENNA.lon, tier="regional_core",
                    pipeline_s=1.2e-3, rule_count=30_000,
                    throughput_bps=100 * _GBPS, load=0.65),
        GatewaySpec("frankfurt", "gw-fra", "upf-cgnat-fra",
                    lat=FRANKFURT.lat, lon=FRANKFURT.lon,
                    tier="regional_core",
                    pipeline_s=0.7e-3, rule_count=20_000,
                    throughput_bps=100 * _GBPS, load=0.15),
        GatewaySpec("edge", "gw-kla", "upf-edge-kla",
                    lat=kla_edge.lat, lon=kla_edge.lon, tier="edge",
                    pipeline_s=12e-6, rule_count=5_000,
                    throughput_bps=100 * _GBPS, load=0.25),
    )

    # Eight mobile peers spread over moderately loaded cells, plus C3's
    # rush-hour peer set: all on congested macros, raising C3's *mean*
    # without adding own-queue variance (E5 stays the sigma maximum).
    peer_loads = (0.58, 0.62, 0.65, 0.65, 0.68, 0.68, 0.70, 0.72)
    peers = tuple(PeerSpec(f"peer-{i + 1}", air_load=load, sinr_db=13.0)
                  for i, load in enumerate(peer_loads))
    peers += tuple(PeerSpec(f"peer-hot-{i + 1}", air_load=0.80,
                            sinr_db=13.0) for i in range(8))
    default_targets = tuple(f"peer-{i + 1}"
                            for i in range(len(peer_loads))) + ("probe-uni",)

    # B3: wired-probe-only measurements (quiet residential cell whose
    # peers were offline) -> no peer-side air variance.
    cell_targets = (
        ("B3", ("probe-uni",) * 9),
        ("C3", tuple(f"peer-hot-{i + 1}" for i in range(8))
         + ("probe-uni",)),
    )

    # 6G make-before-break: interruptions shrink to ~1 ms.
    interruption = 1e-3 if config.generation is Generation.SIX_G \
        else HANDOVER_INTERRUPTION_S
    # Campaign-wide edge termination moves every cell (including B3's
    # Frankfurt assignment) to the local breakout.
    default_gateway = "edge" if edge_breakout else "vienna"
    gateway_by_cell = () if edge_breakout else (("B3", "frankfurt"),)

    campaign = CampaignSpec(
        default_gateway=default_gateway,
        gateways=gateways,
        peers=peers,
        default_targets=default_targets,
        cell_targets=cell_targets,
        gateway_by_cell=gateway_by_cell,
        extra_load_range=(0.12, 0.24),
        extra_load_anchors=tuple(ANCHOR_EXTRA_LOAD.items()),
        handover_prob=tuple(ANCHOR_HANDOVER_PROB.items()),
        handover_interruption_s=interruption,
        route_weighting="population",
        min_samples=2,
    )

    return ScenarioSpec(
        name="klagenfurt",
        description=("Section IV-B evaluation world: 6x7 grid around the "
                     "University of Klagenfurt, six-AS policy-routed "
                     "internet, six FR1 macro sites"),
        grid=grid_spec,
        population=population,
        radio=radio,
        systems=systems,
        transits=transits,
        peerings=tuple(peerings),
        nodes=nodes,
        links=links,
        probes=probes,
        campaign=campaign,
        reference_src="ue-c2",
        reference_dst="probe-uni",
        wired_src="uni-wired",
        wired_dst="cloud-vie",
        detour_loop_end="" if edge_breakout else "ix-vie",
        detour_circuity=1.05,
    )
