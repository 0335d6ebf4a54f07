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
from json.encoder import encode_basestring_ascii as _encode_str
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
    "CanonicalForm",
    "FULL_FORM",
    "canonical_dumps",
]


def _pairs(mapping: Mapping[Any, Any] | Sequence[Any]
           ) -> tuple[tuple[Any, Any], ...]:
    """Normalise a mapping (or pair sequence) to an ordered pair tuple.

    Mapping inputs are canonicalised by sorted key (REP003): a dict's
    pair order is its insertion history, so two structurally equal
    dicts built in different orders would otherwise serialize — and
    content-hash — differently.  Explicit pair *sequences* keep their
    caller-chosen order; they already are ordered values.  A tuple
    that is already normal is returned as it is, so a layer rebuilt by
    an override shares it with the layer it was patched from.
    """
    if isinstance(mapping, Mapping):
        items: Iterable[Any] = sorted(
            mapping.items(), key=lambda pair: str(pair[0]))
    else:
        items = mapping
    pairs = tuple((k, tuple(v) if isinstance(v, (list, tuple)) else v)
                  for k, v in items)
    return mapping if type(mapping) is tuple and pairs == mapping \
        else pairs


def _int_pairs(seq: Sequence[Any]) -> tuple[tuple[int, int], ...]:
    if type(seq) is tuple and all(
            type(pair) is tuple and len(pair) == 2
            and type(pair[0]) is int and type(pair[1]) is int
            for pair in seq):
        return seq
    return tuple((int(a), int(b)) for a, b in seq)


def _layer_tuple(cls: type, items: Sequence[Any]) -> tuple[Any, ...]:
    """``items`` as a tuple of ``cls`` layers, built from any dicts
    among them; a tuple of layers is returned as it is (see
    :func:`_pairs`)."""
    if type(items) is tuple and all(type(item) is cls for item in items):
        return items
    return tuple(item if isinstance(item, cls) else cls.from_dict(item)
                 for item in items)


#: The one canonical JSON encoder: sorted keys, compact separators.
#: (Without the cycle check, which changes no output, only its cost.)
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                              check_circular=False)

#: ``float.__repr__`` of the non-finite floats, and what JSON calls them.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def canonical_dumps(value: Any) -> str:
    """Digest-stable JSON: sorted keys, compact separators.

    Two structurally equal values always serialize to the same bytes,
    so hashing this text gives a stable content address.
    """
    return _CANONICAL.encode(value)


@functools.lru_cache(maxsize=None)
def _layout(cls: type, omitted: frozenset[str]
            ) -> tuple[tuple[str, str], ...]:
    """A layer class's serialised fields, in canonical order, as
    ``(name, '"name":')`` pairs."""
    return tuple((name, f'"{name}":') for name in sorted(
        f.name for f in fields(cls) if f.name not in omitted))


class CanonicalForm:
    """``canonical_dumps(layer.to_dict())`` of spec layers, less the
    fields ``omit`` names per layer class, without building the dict.

    Every layer's ``to_dict`` is a field-for-field image of the layer
    (tuples as lists), so the text is assembled field by field, and
    layers that runs share are not encoded once per run:

    * a *shared* layer — one below the root of a spec others are
      derived from (:func:`_share_layer_texts`) — keeps its text in its
      instance dict;
    * a layer ``with_overrides`` patched out of a shared one records
      that origin and the fields it patched, and its text is the
      origin's with only those fields re-encoded.

    A layer that is not shared keeps no text, so a run's own layers
    hold nothing per run.
    """

    def __init__(self, name: str,
                 omit: Mapping[type, frozenset[str]] = {}) -> None:
        self.omit = dict(omit)
        self.cache_key = f"_canonical_{name}"
        self._bounds_key = f"_canonical_{name}_bounds"

    def text(self, value: Any) -> str:
        """The text of a layer, or of any value a layer field holds."""
        return self._value(value, False)

    def _layer(self, layer: Any, store: bool) -> str:
        omitted = self.omit.get(type(layer))
        # Classes this form leaves nothing out of share the full text.
        key = _FULL_TEXT if omitted is None else self.cache_key
        cache = layer.__dict__
        text = cache.get(key)
        if text is not None:
            return text
        layout = _layout(type(layer), omitted or frozenset())
        patch = cache.get(_PATCHED_FROM)
        if patch is not None:
            text = self._spliced(layer, layout, *patch, store)
        elif store or _FULL_TEXT in cache or _holds_kept_layers(layer,
                                                                layout):
            text = "{" + ",".join([
                prefix + self._value(getattr(layer, name), store)
                for name, prefix in layout]) + "}"
        else:
            # Nothing kept here or below: one encoder call for the lot.
            return _CANONICAL.encode(self._plain(layer))
        if store or _FULL_TEXT in cache:
            cache[key] = text
        return text

    def _spliced(self, layer: Any, layout: tuple[tuple[str, str], ...],
                 origin: Any, patched: frozenset[str], store: bool) -> str:
        """``layer``'s text as its shared ``origin``'s, with the fields
        in ``patched`` re-encoded from ``layer``."""
        text = self._layer(origin, False)
        bounds = origin.__dict__.get(self._bounds_key)
        if bounds is None:
            # Where each field's ``"name":value`` starts in the text
            # (and one past the closing brace), once per origin.
            bounds, start = [], 1
            for name, prefix in layout:
                bounds.append(start)
                start += len(prefix) + len(
                    self._value(getattr(origin, name), False)) + 1
            bounds.append(start)
            bounds = origin.__dict__[self._bounds_key] = tuple(bounds)
        pieces, done = [], 0
        for index, (name, prefix) in enumerate(layout):
            if name in patched:
                pieces.append(text[done:bounds[index]])
                pieces.append(prefix + self._value(getattr(layer, name),
                                                   store))
                done = bounds[index + 1] - 1
        pieces.append(text[done:])
        return "".join(pieces)

    def _value(self, value: Any, store: bool) -> str:
        kind = type(value)
        if kind is str:
            return _encode_str(value)
        if kind is float:
            text = float.__repr__(value)
            return _NON_FINITE.get(text, text)
        if kind is int:
            return int.__repr__(value)
        if value is None:
            return "null"
        if hasattr(kind, "__dataclass_fields__"):
            return self._layer(value, store)
        if (kind is tuple and value
                and hasattr(type(value[0]), "__dataclass_fields__")):
            if store or any(map(_kept, value)):
                key = (_FULL_TEXT if type(value[0]) not in self.omit
                       else self.cache_key)
                return "[" + ",".join([item.__dict__.get(key)
                                       or self._layer(item, store)
                                       for item in value]) + "]"
            # Layers that keep nothing: one encoder call for them all.
            return _CANONICAL.encode([self._plain(item) for item in value])
        return _CANONICAL.encode(value)

    def _plain(self, value: Any) -> Any:
        """``value`` as data this form encodes like its text: layers as
        dicts, every other value (a tuple encodes as a list) as is."""
        if hasattr(type(value), "__dataclass_fields__"):
            omitted = self.omit.get(type(value))
            if omitted is None:
                return value.to_dict()
            return {name: self._plain(getattr(value, name))
                    for name, _ in _layout(type(value), omitted)}
        if (type(value) is tuple and value
                and hasattr(type(value[0]), "__dataclass_fields__")):
            return [self._plain(item) for item in value]
        return value


#: The whole of every layer: what :func:`~repro.fleet.sweep.run_key`
#: hashes.
FULL_FORM = CanonicalForm("full")
#: Instance-dict entries of the text cache: a shared layer's full text
#: (its presence is what marks the layer shared), a patched layer's
#: ``(shared origin, patched field names)``, and the mark of a spec
#: whose layers are shared.
_FULL_TEXT = FULL_FORM.cache_key
_PATCHED_FROM = "_patched_from"
_SHARED = "_layers_shared"


def _kept(layer: Any) -> bool:
    """Whether ``layer`` is shared or patched out of a shared layer."""
    return _FULL_TEXT in layer.__dict__ or _PATCHED_FROM in layer.__dict__


def _holds_kept_layers(layer: Any,
                       layout: tuple[tuple[str, str], ...]) -> bool:
    """Whether a field of ``layer`` holds a kept layer (see
    :func:`_kept`; a tuple of layers is judged by its first)."""
    for name, _ in layout:
        value = getattr(layer, name)
        if type(value) is tuple:
            value = value[0] if value else None
        if hasattr(type(value), "__dataclass_fields__") and _kept(value):
            return True
    return False


def _share_layer_texts(spec: "ScenarioSpec") -> None:
    """Mark every layer below ``spec``'s root shared, caching its
    :data:`FULL_FORM` text (see :class:`CanonicalForm`).

    Called on a spec other specs are derived from: the derivatives
    share its unpatched layers by identity.
    """
    if spec.__dict__.get(_SHARED):
        return
    for name, _ in _layout(type(spec), frozenset()):
        FULL_FORM._value(getattr(spec, name), True)
    spec.__dict__[_SHARED] = True


def _note_patch(new: Any, old: Any, names: frozenset[str]) -> None:
    """Record that layer ``new`` is ``old`` with the fields ``names``
    patched, against ``old``'s nearest shared origin — when it has one:
    a root, or a layer built from an override's mapping, has none."""
    if _FULL_TEXT in old.__dict__:
        new.__dict__[_PATCHED_FROM] = (old, names)
    elif _PATCHED_FROM in old.__dict__:
        origin, patched = old.__dict__[_PATCHED_FROM]
        new.__dict__[_PATCHED_FROM] = (origin, patched | names)


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


#: One override below some value: the dotted path's remaining parts,
#: the new value, and the whole path (for error messages).
_Patch = tuple[Sequence[str], Any, str]


def _patched(value: Any, patches: Sequence[_Patch]) -> Any:
    """``value`` rebuilt with every patch applied, each field or entry
    on their paths rebuilt once, however many patches reach it."""
    below: dict[str, list[_Patch]] = {}
    for parts, new, path in patches:
        below.setdefault(parts[0], []).append((parts[1:], new, path))
    if isinstance(value, tuple):
        items = list(value)
        for head, group in sorted(below.items()):
            path = group[0][2]
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
            items[index] = _replacement(value[index], group)
        return tuple(items)
    if is_dataclass(value):
        names = [f.name for f in fields(value)]
        changes = {}
        for head, group in sorted(below.items()):
            if head not in names:
                raise KeyError(
                    f"override {group[0][2]!r}: {type(value).__name__} has "
                    f"no field {head!r}; known: {', '.join(names)}")
            changes[head] = _replacement(
                getattr(value, head), group,
                optional=_is_optional(value, head))
        patched = replace(value, **changes)
        _note_patch(patched, value, frozenset(changes))
        return patched
    raise KeyError(
        f"override {patches[0][2]!r}: cannot descend into "
        f"{type(value).__name__} at {patches[0][0][0]!r}")


def _replacement(current: Any, group: Sequence[_Patch], *,
                 optional: bool = False) -> Any:
    """``current`` with ``group`` applied: an override of ``current``
    itself first (its path sorts before every path below it), then the
    ones below it."""
    rest, new, path = group[0]
    if not rest:
        current = _coerced(current, new, path, optional=optional)
        group = group[1:]
    return _patched(current, group) if group else current


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
        object.__setattr__(self, "sites",
                           _layer_tuple(SiteSpec, self.sites))
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
        object.__setattr__(self, "gateways",
                           _layer_tuple(GatewaySpec, self.gateways))
        object.__setattr__(self, "peers",
                           _layer_tuple(PeerSpec, self.peers))
        object.__setattr__(self, "default_targets",
                           tuple(self.default_targets))
        object.__setattr__(self, "cell_targets", _pairs(self.cell_targets))
        object.__setattr__(self, "gateway_by_cell",
                           _pairs(self.gateway_by_cell))
        if self.extra_load_range is not None:
            # An empty range is no range: ``to_dict`` writes it as None.
            object.__setattr__(self, "extra_load_range",
                               tuple(self.extra_load_range) or None)
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
        object.__setattr__(self, "systems",
                           _layer_tuple(ASSpec, self.systems))
        object.__setattr__(self, "transits", _int_pairs(self.transits))
        object.__setattr__(self, "peerings", _int_pairs(self.peerings))
        object.__setattr__(self, "nodes",
                           _layer_tuple(NodeSpec, self.nodes))
        object.__setattr__(self, "links",
                           _layer_tuple(LinkSpec, self.links))
        object.__setattr__(self, "probes",
                           _layer_tuple(ProbeSpec, self.probes))

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
        rebuilt once, through its constructor, so layer validation
        (``__post_init__``) reruns on the result.
        """
        _share_layer_texts(self)
        # Sorted application order (REP003): override dicts carry no
        # meaningful order, so applying them alphabetically keeps the
        # patched spec independent of the caller's insertion history
        # (distinct dotted paths commute; overlapping ones resolve
        # deterministically, the outer one first).
        patches = []
        for path, value in sorted(overrides.items()):
            parts = path.split(".")
            if not path or any(not p for p in parts):
                raise KeyError(f"malformed override path {path!r}")
            patches.append((parts, value, path))
        return _patched(self, patches) if patches else self
