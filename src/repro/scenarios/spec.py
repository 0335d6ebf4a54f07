"""The declarative scenario model: a city as serializable data.

A scenario used to be imperative code — ~500 lines of hand-wired grid,
population, radio, AS-graph, and campaign objects per city.  This module
replaces that with a layered spec: every layer is a frozen dataclass
holding only plain values (floats, strings, ints, tuples), composed into
one :class:`ScenarioSpec` that round-trips losslessly through
``to_dict``/``from_dict`` and JSON.  The compiler in
:mod:`repro.scenarios.build` turns a spec plus a seed into a runnable
world.

Design rules:

* **Plain values only.**  Enums are stored by their ``value`` string,
  locations as ``(lat, lon)`` float pairs, mappings as ordered tuples of
  pairs.  ``json.loads(json.dumps(spec.to_dict()))`` reconstructs the
  spec exactly (Python's JSON float serialisation is repr-exact).
* **Order is meaning.**  Node, link, and AS tuples compile in spec
  order; stochastic per-cell draws consume the seeded stream in grid
  order — so equal specs plus equal seeds give bit-identical campaigns.
* **Factories compute, specs store.**  Derived geometry (a grid origin
  placed so the probe lands in a given cell) is computed once in the
  spec factory (e.g. :func:`repro.scenarios.klagenfurt.klagenfurt`) and
  stored as concrete numbers.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import (
    Any,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from ..geo.coords import GeoPoint
from ..geo.grid import Grid
from ..ran.channel import ChannelModel
from ..ran.spectrum import Band, Generation, Numerology, RadioConfig

__all__ = [
    "GridSpec",
    "PopulationSpec",
    "SiteSpec",
    "RadioSpec",
    "ASSpec",
    "NodeSpec",
    "LinkSpec",
    "GatewaySpec",
    "PeerSpec",
    "ProbeSpec",
    "CampaignSpec",
    "ScenarioSpec",
]


def _pairs(mapping: Mapping[Any, Any] | Sequence[Any]
           ) -> tuple[tuple[Any, Any], ...]:
    """Normalise a mapping (or pair sequence) to an ordered pair tuple.

    Mapping inputs are canonicalised by sorted key (REP003): a dict's
    pair order is its insertion history, so two structurally equal
    dicts built in different orders would otherwise serialize — and
    content-hash — differently.  Explicit pair *sequences* keep their
    caller-chosen order; they already are ordered values.
    """
    if isinstance(mapping, Mapping):
        items: Iterable[Any] = sorted(
            mapping.items(), key=lambda pair: str(pair[0]))
    else:
        items = mapping
    return tuple((k, tuple(v) if isinstance(v, (list, tuple)) else v)
                 for k, v in items)


def _int_pairs(seq: Sequence[Any]) -> tuple[tuple[int, int], ...]:
    return tuple((int(a), int(b)) for a, b in seq)


@functools.lru_cache(maxsize=None)
def _type_hints(cls: type) -> dict[str, Any]:
    """``get_type_hints`` once per class: evaluating the string
    annotations is most of an override's cost otherwise."""
    return get_type_hints(cls)


def _is_optional(owner: Any, field_name: str) -> bool:
    """Whether a dataclass field is declared ``Optional[...]``."""
    hint = _type_hints(type(owner)).get(field_name)
    return (hint is not None and get_origin(hint) is Union
            and type(None) in get_args(hint))


def _coerced(old: Any, new: Any, path: str, *,
             optional: bool = False) -> Any:
    """``new`` checked (and minimally promoted) against the value it
    replaces; raises :class:`TypeError` on a kind mismatch."""
    if new is None:
        if optional or old is None:
            return None
        raise TypeError(
            f"override {path!r}: None is not allowed over non-optional "
            f"{type(old).__name__} {old!r}")
    if old is None:
        return new                     # Optional field currently unset
    if isinstance(old, bool) or isinstance(new, bool):
        if isinstance(old, bool) and isinstance(new, bool):
            return new
    elif isinstance(old, float):
        if isinstance(new, (int, float)):
            return float(new)          # ints promote into float fields
    elif isinstance(old, int):
        if isinstance(new, int):
            return new
    elif isinstance(old, str):
        if isinstance(new, str):
            return new
    elif is_dataclass(old):
        if isinstance(new, type(old)):
            return new
        if isinstance(new, Mapping):
            return type(old).from_dict(new)
    elif isinstance(old, tuple):
        if isinstance(new, (list, tuple)):
            return tuple(new)          # __post_init__ normalises members
    raise TypeError(
        f"override {path!r}: cannot assign {type(new).__name__} "
        f"{new!r} over {type(old).__name__} {old!r}")


def _patched(value: Any, parts: Sequence[str], new: Any, path: str) -> Any:
    """``value`` rebuilt with ``new`` applied at the dotted ``parts``."""
    head, rest = parts[0], parts[1:]
    if isinstance(value, tuple):
        try:
            index = int(head)
        except ValueError:
            raise KeyError(
                f"override {path!r}: {head!r} is not an integer index "
                f"into a tuple field") from None
        if not 0 <= index < len(value):
            raise KeyError(
                f"override {path!r}: index {index} out of range "
                f"(field has {len(value)} entries)")
        replacement = (_patched(value[index], rest, new, path) if rest
                       else _coerced(value[index], new, path))
        return value[:index] + (replacement,) + value[index + 1:]
    if is_dataclass(value):
        names = [f.name for f in fields(value)]
        if head not in names:
            raise KeyError(
                f"override {path!r}: {type(value).__name__} has no field "
                f"{head!r}; known: {', '.join(names)}")
        current = getattr(value, head)
        replacement = (_patched(current, rest, new, path) if rest
                       else _coerced(current, new, path,
                                     optional=_is_optional(value, head)))
        return replace(value, **{head: replacement})
    raise KeyError(
        f"override {path!r}: cannot descend into "
        f"{type(value).__name__} at {head!r}")


@dataclass(frozen=True)
class GridSpec:
    """Geometry of the sector grid (the paper's Fig. 1 partitioning)."""

    origin_lat: float          #: NW-corner latitude, WGS-84 degrees
    origin_lon: float          #: NW-corner longitude
    cell_size_m: float = 1000.0
    cols: int = 6
    rows: int = 7

    def build(self) -> Grid:
        return Grid(GeoPoint(self.origin_lat, self.origin_lon),
                    cell_size_m=self.cell_size_m,
                    cols=self.cols, rows=self.rows)

    def to_dict(self) -> dict[str, Any]:
        return {"origin_lat": self.origin_lat,
                "origin_lon": self.origin_lon,
                "cell_size_m": self.cell_size_m,
                "cols": self.cols, "rows": self.rows}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GridSpec":
        return cls(**data)


@dataclass(frozen=True)
class PopulationSpec:
    """Clark-model density raster substitute + the measurement mask."""

    centre_lat: float
    centre_lon: float
    core_density: float = 4200.0   #: inhabitants/km2 at the core
    scale_m: float = 2000.0        #: e-folding radius
    floor: float = 40.0            #: rural background density
    #: cells at or above this density are traversed; the rest masked
    density_threshold: float = 1000.0

    @property
    def centre(self) -> GeoPoint:
        return GeoPoint(self.centre_lat, self.centre_lon)

    def to_dict(self) -> dict[str, Any]:
        return {"centre_lat": self.centre_lat,
                "centre_lon": self.centre_lon,
                "core_density": self.core_density,
                "scale_m": self.scale_m, "floor": self.floor,
                "density_threshold": self.density_threshold}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PopulationSpec":
        return cls(**data)


@dataclass(frozen=True)
class SiteSpec:
    """One macro gNB site anchored to a grid cell."""

    cell: str                  #: cell label, e.g. ``"B2"``
    load: float = 0.55         #: scheduler base load in [0, 1)
    name: str = ""             #: defaults to ``gnb-<cell>``

    @property
    def gnb_name(self) -> str:
        return self.name or f"gnb-{self.cell.lower()}"

    def to_dict(self) -> dict[str, Any]:
        return {"cell": self.cell, "load": self.load, "name": self.name}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SiteSpec":
        return cls(**data)


@dataclass(frozen=True)
class RadioSpec:
    """Air interface + channel + site lattice of the operator.

    The :class:`~repro.ran.spectrum.RadioConfig` fields are stored flat
    (enums by value) so any profile — including hand-tuned overrides —
    serialises losslessly.
    """

    sites: tuple[SiteSpec, ...]
    # RadioConfig (flat)
    generation: str = "5g"
    numerology_mu: int = 1
    band: str = "fr1"
    sr_period_slots: int = 8
    grant_delay_slots: int = 3
    harq_rtt_slots: int = 8
    target_bler: float = 0.1
    max_harq_retx: int = 3
    configured_grant: bool = False
    processing_base_s: float = 1.2e-3
    buffer_service_s: float = 6e-3
    # ChannelModel
    tx_power_dbm: float = 44.0
    antenna_gain_db: float = 8.0
    noise_figure_db: float = 9.0
    bandwidth_hz: float = 100e6
    shadowing_sigma_db: float = 6.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "sites", tuple(
            s if isinstance(s, SiteSpec) else SiteSpec.from_dict(s)
            for s in self.sites))
        if not self.sites:
            raise ValueError("radio spec needs at least one site")

    @classmethod
    def from_config(cls, config: RadioConfig,
                    sites: Sequence[SiteSpec],
                    **channel: float) -> "RadioSpec":
        """Capture an existing :class:`RadioConfig` object losslessly."""
        return cls(
            sites=tuple(sites),
            generation=config.generation.value,
            numerology_mu=config.numerology.mu,
            band=config.band.value,
            sr_period_slots=config.sr_period_slots,
            grant_delay_slots=config.grant_delay_slots,
            harq_rtt_slots=config.harq_rtt_slots,
            target_bler=config.target_bler,
            max_harq_retx=config.max_harq_retx,
            configured_grant=config.configured_grant,
            processing_base_s=config.processing_base_s,
            buffer_service_s=config.buffer_service_s,
            **channel)

    def build_config(self) -> RadioConfig:
        return RadioConfig(
            generation=Generation(self.generation),
            numerology=Numerology(self.numerology_mu),
            band=Band(self.band),
            sr_period_slots=self.sr_period_slots,
            grant_delay_slots=self.grant_delay_slots,
            harq_rtt_slots=self.harq_rtt_slots,
            target_bler=self.target_bler,
            max_harq_retx=self.max_harq_retx,
            configured_grant=self.configured_grant,
            processing_base_s=self.processing_base_s,
            buffer_service_s=self.buffer_service_s)

    def build_channel(self, seed: int) -> ChannelModel:
        return ChannelModel(
            self.build_config().carrier_frequency_hz,
            tx_power_dbm=self.tx_power_dbm,
            antenna_gain_db=self.antenna_gain_db,
            noise_figure_db=self.noise_figure_db,
            bandwidth_hz=self.bandwidth_hz,
            shadowing_sigma_db=self.shadowing_sigma_db,
            seed=seed)

    def to_dict(self) -> dict[str, Any]:
        data = {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "sites"}
        data["sites"] = [s.to_dict() for s in self.sites]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RadioSpec":
        data = dict(data)
        data["sites"] = tuple(SiteSpec.from_dict(s)
                              for s in data.get("sites", ()))
        return cls(**data)


@dataclass(frozen=True)
class ASSpec:
    """One autonomous system of the scenario's internet."""

    asn: int
    name: str
    kind: str = "transit"       #: an :class:`~repro.net.asn.ASKind` value
    ptr_template: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {"asn": self.asn, "name": self.name, "kind": self.kind,
                "ptr_template": self.ptr_template}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ASSpec":
        return cls(**data)


@dataclass(frozen=True)
class NodeSpec:
    """One router/server/gateway/probe vertex of the topology."""

    name: str
    kind: str                   #: a :class:`~repro.net.node.NodeKind` value
    lat: float
    lon: float
    asn: Optional[int] = None
    address: str = ""           #: dotted-quad, empty for none
    display: str = ""           #: PTR-style display name
    forwarding_delay_s: float = -1.0   #: negative -> kind default

    @property
    def location(self) -> GeoPoint:
        return GeoPoint(self.lat, self.lon)

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "kind": self.kind,
                "lat": self.lat, "lon": self.lon, "asn": self.asn,
                "address": self.address, "display": self.display,
                "forwarding_delay_s": self.forwarding_delay_s}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "NodeSpec":
        return cls(**data)


@dataclass(frozen=True)
class LinkSpec:
    """One bidirectional link of the topology."""

    a: str
    b: str
    rate_bps: float
    kind: str = "fibre"         #: a :class:`~repro.net.link.LinkKind` value
    length_m: Optional[float] = None   #: None -> great circle x circuity
    utilisation: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {"a": self.a, "b": self.b, "rate_bps": self.rate_bps,
                "kind": self.kind, "length_m": self.length_m,
                "utilisation": self.utilisation}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LinkSpec":
        return cls(**data)


@dataclass(frozen=True)
class GatewaySpec:
    """A user-plane breakout site: gateway node + its UPF deployment."""

    name: str
    node_name: str
    upf_name: str
    lat: float
    lon: float
    tier: str = "regional_core"    #: a :class:`~repro.cn.nf.SiteTier` value
    pipeline_s: float = 12e-6
    rule_count: int = 1000
    throughput_bps: float = 40e9
    load: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "node_name": self.node_name,
                "upf_name": self.upf_name, "lat": self.lat,
                "lon": self.lon, "tier": self.tier,
                "pipeline_s": self.pipeline_s,
                "rule_count": self.rule_count,
                "throughput_bps": self.throughput_bps, "load": self.load}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GatewaySpec":
        return cls(**data)


@dataclass(frozen=True)
class PeerSpec:
    """A mobile peer UE target, described by its radio situation."""

    name: str
    air_load: float = 0.6
    sinr_db: float = 12.0
    gateway: Optional[str] = None

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "air_load": self.air_load,
                "sinr_db": self.sinr_db, "gateway": self.gateway}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PeerSpec":
        return cls(**data)


@dataclass(frozen=True)
class ProbeSpec:
    """A measurement endpoint bound to a topology node."""

    probe_id: int
    name: str
    node_name: str
    lat: float
    lon: float
    kind: str = "anchor"        #: a :class:`~repro.probes.atlas.ProbeKind`

    @property
    def location(self) -> GeoPoint:
        return GeoPoint(self.lat, self.lon)

    def to_dict(self) -> dict[str, Any]:
        return {"probe_id": self.probe_id, "name": self.name,
                "node_name": self.node_name, "lat": self.lat,
                "lon": self.lon, "kind": self.kind}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ProbeSpec":
        return cls(**data)


@dataclass(frozen=True)
class CampaignSpec:
    """The drive-test calibration tables, as data.

    Mappings are ordered pair tuples (``(key, value), ...``) so the spec
    stays hashable-free, comparable, and JSON-exact; keys are cell
    labels.  ``extra_load_range`` describes the *seeded* spatial
    congestion field: at build time one uniform draw per traversed cell
    (in grid order) from the ``scenario.load`` stream, after which
    ``extra_load_anchors`` overwrite their cells.
    """

    default_gateway: str
    gateways: tuple[GatewaySpec, ...]
    peers: tuple[PeerSpec, ...] = ()
    default_targets: tuple[str, ...] = ()
    #: (cell label, target name tuple) overrides of ``default_targets``
    cell_targets: tuple[tuple[str, tuple[str, ...]], ...] = ()
    #: (cell label, gateway name) breakout overrides
    gateway_by_cell: tuple[tuple[str, str], ...] = ()
    #: uniform(lo, hi) per-cell congestion field; None -> no random field
    extra_load_range: Optional[tuple[float, float]] = None
    #: (cell label, extra load) calibration anchors
    extra_load_anchors: tuple[tuple[str, float], ...] = ()
    #: (cell label, probability) handover interruption chances
    handover_prob: tuple[tuple[str, float], ...] = ()
    handover_interruption_s: float = 45e-3
    max_cell_load: float = 0.93
    #: radio-site index approximating the peer UEs' serving cell
    peer_site_index: int = 0
    #: drive-route dwell weighting: "population" or "uniform"
    route_weighting: str = "population"
    min_samples: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "gateways", tuple(
            g if isinstance(g, GatewaySpec) else GatewaySpec.from_dict(g)
            for g in self.gateways))
        object.__setattr__(self, "peers", tuple(
            p if isinstance(p, PeerSpec) else PeerSpec.from_dict(p)
            for p in self.peers))
        object.__setattr__(self, "default_targets",
                           tuple(self.default_targets))
        object.__setattr__(self, "cell_targets", _pairs(self.cell_targets))
        object.__setattr__(self, "gateway_by_cell",
                           _pairs(self.gateway_by_cell))
        if self.extra_load_range is not None:
            object.__setattr__(self, "extra_load_range",
                               tuple(self.extra_load_range))
        object.__setattr__(self, "extra_load_anchors",
                           _pairs(self.extra_load_anchors))
        object.__setattr__(self, "handover_prob", _pairs(self.handover_prob))
        if self.route_weighting not in ("population", "uniform"):
            raise ValueError(
                f"unknown route weighting {self.route_weighting!r}")
        if not any(g.name == self.default_gateway for g in self.gateways):
            raise ValueError(
                f"default gateway {self.default_gateway!r} not in spec")

    def to_dict(self) -> dict[str, Any]:
        return {
            "default_gateway": self.default_gateway,
            "gateways": [g.to_dict() for g in self.gateways],
            "peers": [p.to_dict() for p in self.peers],
            "default_targets": list(self.default_targets),
            "cell_targets": [[c, list(t)] for c, t in self.cell_targets],
            "gateway_by_cell": [list(p) for p in self.gateway_by_cell],
            "extra_load_range": (list(self.extra_load_range)
                                 if self.extra_load_range else None),
            "extra_load_anchors": [list(p)
                                   for p in self.extra_load_anchors],
            "handover_prob": [list(p) for p in self.handover_prob],
            "handover_interruption_s": self.handover_interruption_s,
            "max_cell_load": self.max_cell_load,
            "peer_site_index": self.peer_site_index,
            "route_weighting": self.route_weighting,
            "min_samples": self.min_samples,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        data = dict(data)
        if data.get("extra_load_range") is not None:
            data["extra_load_range"] = tuple(data["extra_load_range"])
        return cls(**data)


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete city as one serializable value.

    Compile with :func:`repro.scenarios.build`; the result exposes the
    same surface the campaign and analysis layers consume
    (``grid``/``radio``/``routes``/``campaign_config``/...).
    """

    name: str
    grid: GridSpec
    population: PopulationSpec
    radio: RadioSpec
    campaign: CampaignSpec
    description: str = ""
    systems: tuple[ASSpec, ...] = ()
    #: (customer ASN, provider ASN) Gao-Rexford transit edges
    transits: tuple[tuple[int, int], ...] = ()
    #: (ASN, ASN) settlement-free peerings
    peerings: tuple[tuple[int, int], ...] = ()
    nodes: tuple[NodeSpec, ...] = ()
    links: tuple[LinkSpec, ...] = ()
    probes: tuple[ProbeSpec, ...] = ()
    #: Table-I-style trace endpoints (UE -> wired probe)
    reference_src: str = ""
    reference_dst: str = ""
    #: wired-baseline ping endpoints
    wired_src: str = ""
    wired_dst: str = ""
    #: hop name ending the Fig.-4-style geographic loop ("" -> full trace)
    detour_loop_end: str = ""
    detour_circuity: float = 1.05

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        for attr, kind in (("grid", GridSpec),
                           ("population", PopulationSpec),
                           ("radio", RadioSpec),
                           ("campaign", CampaignSpec)):
            value = getattr(self, attr)
            if not isinstance(value, kind):
                object.__setattr__(self, attr, kind.from_dict(value))
        object.__setattr__(self, "systems", tuple(
            s if isinstance(s, ASSpec) else ASSpec.from_dict(s)
            for s in self.systems))
        object.__setattr__(self, "transits", _int_pairs(self.transits))
        object.__setattr__(self, "peerings", _int_pairs(self.peerings))
        object.__setattr__(self, "nodes", tuple(
            n if isinstance(n, NodeSpec) else NodeSpec.from_dict(n)
            for n in self.nodes))
        object.__setattr__(self, "links", tuple(
            l if isinstance(l, LinkSpec) else LinkSpec.from_dict(l)
            for l in self.links))
        object.__setattr__(self, "probes", tuple(
            p if isinstance(p, ProbeSpec) else ProbeSpec.from_dict(p)
            for p in self.probes))

    # -- serialisation ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "grid": self.grid.to_dict(),
            "population": self.population.to_dict(),
            "radio": self.radio.to_dict(),
            "systems": [s.to_dict() for s in self.systems],
            "transits": [list(p) for p in self.transits],
            "peerings": [list(p) for p in self.peerings],
            "nodes": [n.to_dict() for n in self.nodes],
            "links": [l.to_dict() for l in self.links],
            "probes": [p.to_dict() for p in self.probes],
            "campaign": self.campaign.to_dict(),
            "reference_src": self.reference_src,
            "reference_dst": self.reference_dst,
            "wired_src": self.wired_src,
            "wired_dst": self.wired_dst,
            "detour_loop_end": self.detour_loop_end,
            "detour_circuity": self.detour_circuity,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        return cls(**data)

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    def with_overrides(self, overrides: Mapping[str, Any]
                       ) -> "ScenarioSpec":
        """A copy with dotted-path patches applied through the layers.

        Paths name nested dataclass fields, with integer segments
        indexing into tuple fields::

            spec.with_overrides({
                "campaign.handover_interruption_s": 30e-3,
                "radio.sites.0.load": 0.7,
                "population.density_threshold": 800.0,
            })

        An unknown path raises :class:`KeyError` (naming the known
        fields), a value of the wrong kind raises :class:`TypeError`,
        and ints promote into float fields.  Every patched layer is
        rebuilt through its constructor, so layer validation
        (``__post_init__``) reruns on the result.
        """
        spec = self
        # Sorted application order (REP003): override dicts carry no
        # meaningful order, so applying them alphabetically keeps the
        # patched spec independent of the caller's insertion history
        # (distinct dotted paths commute; overlapping ones now resolve
        # deterministically instead of by construction order).
        for path, value in sorted(overrides.items()):
            parts = path.split(".")
            if not path or any(not p for p in parts):
                raise KeyError(f"malformed override path {path!r}")
            spec = _patched(spec, parts, value, path)
        return spec
