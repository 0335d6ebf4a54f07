"""Precompute-then-sample kernel for the drive-test campaign.

:meth:`DriveTestCampaign.run` used to bottom out in a scalar
per-measurement pipeline: every one of the ~1.7k RTT samples re-derived
the serving cell from six full link budgets (each constructing a fresh
shadowing generator), re-walked the same topology paths link by link,
and re-validated the same immutable configuration.  This module
restructures that hot path into two halves without moving a single
random draw:

1. :class:`KernelPrecompute` — everything that depends only on the
   *build layers* of the scenario (see
   :mod:`repro.scenarios.identity`): the materialised route walk, the
   vectorised serving matrix, per-gNB air constants, per-gateway UPF
   queue parameters, backhaul delays,
   :class:`~repro.net.pathkernel.CompiledPath` tables for every
   (gateway, target) route, the per-row layout tables (serving gNB,
   air slot, backhaul, peer) and the dataset *template* (times, cells,
   target ids — everything but the RTT column).  Picklable, so a
   compiled scenario can carry it across process boundaries and disk.
2. :func:`sample_run` — per cell, one scalar loop that makes *exactly*
   the stochastic draws of the scalar pipeline, in the same order, on
   the same named streams, and records them as that cell's draw *tape*;
   then one numpy pass over all rows that turns the tapes into the RTT
   column with the scalar pipeline's float operation order.  Only
   sampling-layer values (per-run loads, handover knobs, peer radio
   situations) are read from the campaign config here.

**Batched multi-run sampling.**  Per-cell streams are derived purely
from ``(seed, stream name, cell label)``, so across runs that share a
build (same spec build layers, seed, density) each cell's fresh streams
are identical.  What a cell *consumes* from them depends on far less
than its RTTs do:

* ``campaign.net`` — build layer only (UPF constants, compiled paths,
  peer gateways);
* ``campaign.air`` — the build layer, plus whether each serving gNB's
  clamped load is zero and, per peer target, whether its ``air_load``
  is zero, its BLER (from ``sinr_db``) and the air constants of the
  ``peer_site_index`` site.  Loads enter
  only as the M/D/1 mean scaling an exponential, and
  ``Generator.exponential(q)`` is bitwise ``q * standard_exponential()``
  on the same stream, so the tape keeps the standard draw and each run
  scales it by its own mean;
* ``campaign.handover`` — ``p_ho`` only; the interruption scales the
  recorded draw afterwards.

So a shared ``block_cache`` maps ``(cell label, draw-consumption key)``
to that cell's tapes, and every run of a build-key group whose cell
keys match draws nothing for that cell.  A sweep over loads, load caps,
peer air loads or interruptions draws each cell once.  numpy float64
element-wise ``+``/``*`` round exactly like Python floats, and
conditional terms are selected with ``np.where`` (never added as a
placeholder ``0.0``), so the vectorised pass is bit-identical to the
scalar one.

The output dataset is bit-identical to the scalar path — guarded by
``tests/test_campaign_kernel.py``, the batched-equivalence suite, and
the golden digests in ``tests/test_golden_digests.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from ..geo.grid import CellId
from ..net.pathkernel import CompiledPath
from ..net.queueing import md1_wait
from ..ran.channel import ChannelModel
from .results import MeasurementDataset

if TYPE_CHECKING:  # pragma: no cover
    from .campaign import CampaignConfig, DriveTestCampaign, Gateway

__all__ = ["CampaignKernel", "KernelPrecompute", "precompute_count",
           "sample_run"]

#: Process-wide count of kernel precomputations (the expensive half of
#: the build/run split); snapshot around a sweep to assert reuse.
_PRECOMPUTE_COUNT = 0


def precompute_count() -> int:
    """How many kernel precomputations this process performed."""
    return _PRECOMPUTE_COUNT


@dataclass(frozen=True)
class _AirParams:
    """Sampling constants of one radio configuration.

    ``sr_span`` and ``grant_s`` are the precomputed products the scalar
    path evaluates inline (same factors, same single rounding); the
    HARQ term keeps its ``(retx * harq_rtt_slots) * slot`` association.
    """

    slot: float
    proc_base: float
    configured_grant: bool
    sr_span: float
    grant_s: float
    harq_rtt_slots: int
    max_retx: int
    target_bler: float
    buffer_service_s: float


@dataclass(frozen=True)
class _UpfParams:
    """M/M/1 constants of one gateway's user-plane function."""

    rho: float
    service_s: float
    #: exponential scale ``1 / (mu - lambda)``; None when the queue
    #: draws nothing (zero load or zero service time)
    scale: Optional[float]


def _air_params(config) -> _AirParams:
    slot = config.slot_s
    return _AirParams(
        slot=slot,
        proc_base=config.processing_base_s,
        configured_grant=config.configured_grant,
        sr_span=config.sr_period_slots * slot,
        grant_s=config.grant_delay_slots * slot,
        harq_rtt_slots=config.harq_rtt_slots,
        max_retx=config.max_harq_retx,
        target_bler=config.target_bler,
        buffer_service_s=config.buffer_service_s,
    )


def _upf_params(upf, packet_bits: float) -> _UpfParams:
    service = upf.service_time_s(packet_bits)
    rho = upf.load
    if rho == 0.0 or service == 0.0:
        return _UpfParams(rho, service, None)
    mu = 1.0 / service
    lam = rho * mu
    return _UpfParams(rho, service, 1.0 / (mu - lam))


def _sample_upf(rng, p: _UpfParams) -> float:
    """Replica of ``UserPlaneFunction.sample_latency_s`` draws."""
    if p.scale is None:
        return 0.0 + p.service_s
    busy = rng.random() < p.rho
    wait = rng.exponential(p.scale)
    w = float(wait) if busy else 0.0
    return w + p.service_s


# Tape layout: one float64 row per recorded quantity, one column per
# dataset row of the cell.  An air RTT (own at 0, the peer's at
# ``_PEER``; all zeros for a wired target) keeps six entries: each
# direction's partial sum up to the load-dependent queueing term, the
# standard-exponential draw that term scales (0.0 when no draw was
# made), and the HARQ term.
_UL_PRE, _UL_EXP, _UL_RETX, _DL_PRE, _DL_EXP, _DL_RETX = range(6)
_PEER = 6
#: ``2 * own UPF latency`` and the net leg (wired round trip plus
#: forwarding, or a peer's transit plus ``2 * peer UPF latency``)
_UPF, _LEG = 12, 13
#: the handover factor ``0.5 + 0.5 r`` when the interruption lands,
#: else 0.0
_HO = 14
_TAPE_ROWS = 15
_NO_PEER_AIR = (0.0,) * 6


def _air_rtt(tape: np.ndarray, at: int, queued: np.ndarray,
             qmean: np.ndarray, slot) -> np.ndarray:
    """The air RTTs of ``tape[at:at + 6]`` in the scalar op order."""
    ul = tape[at + _UL_PRE]
    ul = np.where(queued, ul + qmean * tape[at + _UL_EXP], ul)
    ul += slot
    ul += tape[at + _UL_RETX]
    dl = tape[at + _DL_PRE]
    dl = np.where(queued, dl + qmean * tape[at + _DL_EXP], dl)
    dl += slot
    dl += tape[at + _DL_RETX]
    return ul + dl


@dataclass(frozen=True)
class _CellBlock:
    """One cell's slice of the campaign, in route-encounter order.

    A block's dataset rows are contiguous and follow the previous
    block's: one per sample x target, sample-major.
    """

    cell: CellId
    label: str
    #: per target: ``(None, wired path, forwarding delay)`` or
    #: ``(peer name, transit path or None, peer gateway UPF)``
    legs: tuple[tuple, ...]
    #: indexes of the block's peer targets in ``peer_target_names``
    peer_slots: tuple[int, ...]
    gateway_name: str
    #: distinct serving gNB names in the block, first-seen order; the
    #: block's (cell, gNB) load pairs start at ``pair_start``
    gnb_names: tuple[str, ...]
    pair_start: int
    #: indexes into the global sample order (route-walk order)
    sample_indices: tuple[int, ...]


@dataclass(frozen=True)
class KernelPrecompute:
    """Build-layer tables shared by every run of one compiled scenario.

    Everything here is a pure function of the spec's build layers plus
    ``(seed, density)`` — no sampling-layer field is baked in.  Plain
    values and compiled paths only (generators and id()-keyed tables
    are deliberately absent), so the whole object pickles and
    round-trips through the on-disk compiled-scenario store.
    """

    blocks: tuple[_CellBlock, ...]
    #: gNB registration order (``peer_site_index`` resolves into this)
    gnb_names: tuple[str, ...]
    #: per-gNB sampling constants, keyed by gNB name
    air_params: dict[str, _AirParams]
    #: per-gateway UPF queue constants, keyed by gateway name
    upf_params: dict[str, _UpfParams]
    #: round-trip backhaul seconds per (gNB name, gateway name)
    backhaul2: dict[tuple[str, str], float]
    #: gateways with tables, in ``upf_params`` order
    gateway_names: tuple[str, ...]
    #: peer-resolving target names, first-appearance order
    peer_target_names: tuple[str, ...]
    #: per-sample serving gNB name, aligned with the route walk
    sample_gnb: tuple[str, ...]
    #: per-sample precomputed block error rate (serving SINR + config)
    sample_bler: tuple[float, ...]
    #: per (cell, serving gNB) pair: its block, base load, M/D/1 quantum
    pair_block: np.ndarray
    pair_load: np.ndarray
    pair_service: np.ndarray
    #: per-row layout: load pair, own air slot, own round-trip
    #: backhaul, peer slot (-1 for wired targets) and peer gateway
    #: index into ``gateway_names``
    row_pair: np.ndarray
    row_slot: np.ndarray
    row_backhaul: np.ndarray
    row_peer: np.ndarray
    row_peer_gw: np.ndarray
    #: dataset template: every column except the RTTs
    times: np.ndarray
    cols: np.ndarray
    rows: np.ndarray
    target_col: np.ndarray
    targets: tuple[str, ...]


#: ``stream_factory(*name_parts) -> Generator`` — either a registry's
#: (position-preserving) ``stream`` or a per-run fresh-stream factory.
StreamFactory = Callable[..., np.random.Generator]


def _draw_tape(pre: KernelPrecompute, block: _CellBlock,
               stream_factory: StreamFactory, queued: tuple[bool, ...],
               peer_draws: dict[str, tuple], p_ho: float) -> np.ndarray:
    """One cell's draws, in the scalar pipeline's order, as its tape.

    ``queued`` flags, per ``block.gnb_names``, a non-zero clamped load
    (an own-air queueing draw); ``peer_draws`` maps each peer target to
    its ``(air params, queued, bler)``.

    The air draws replicate ``AirInterface.sample_rtt`` (UL + DL).
    ``Generator.uniform(0, h)`` computes ``h * next_double``, so the
    expanded ``h * random()`` form is bitwise- and stream-equivalent at
    a third of the call overhead; ``exponential(q)`` is likewise
    ``q * standard_exponential()`` (pinned on its own in
    ``tests/test_campaign_kernel.py``; like every equivalence this
    module relies on, also guarded by the kernel-vs-scalar and
    golden-digest tests).  The loop is inlined: it is the kernel's hot
    path.
    """
    rng_air = stream_factory("campaign.air", block.label)
    rng_net = stream_factory("campaign.net", block.label)
    rng_ho = stream_factory("campaign.handover", block.label)
    random = rng_air.random
    exponential = rng_air.standard_exponential
    ho_random = rng_ho.random
    own_upf = pre.upf_params[block.gateway_name]
    queued_by_gnb = dict(zip(block.gnb_names, queued))
    tape: list[float] = []
    extend = tape.extend
    for i in block.sample_indices:
        gname = pre.sample_gnb[i]
        own = (pre.air_params[gname], queued_by_gnb[gname],
               pre.sample_bler[i])
        for peer_name, path, const in block.legs:
            # Own radio access, then (for a peer target) the peer's.
            for p, draws_queue, bler in (
                    (own,) if peer_name is None
                    else (own, peer_draws[peer_name])):
                ul = p.proc_base
                if not p.configured_grant:
                    ul += p.sr_span * random()    # SR wait ~ U(0, period)
                    ul += p.grant_s
                ul += p.slot * random()           # alignment ~ U(0, slot)
                ul_exp = exponential() if draws_queue else 0.0
                retx = 0
                if bler > 0.0:
                    while retx < p.max_retx and random() < bler:
                        retx += 1
                ul_retx = retx * p.harq_rtt_slots * p.slot
                dl = p.proc_base + p.slot * random()
                dl_exp = exponential() if draws_queue else 0.0
                retx = 0
                if bler > 0.0:
                    while retx < p.max_retx and random() < bler:
                        retx += 1
                extend((ul, ul_exp, ul_retx, dl, dl_exp,
                        retx * p.harq_rtt_slots * p.slot))
            # Own core leg.
            upf = 2.0 * _sample_upf(rng_net, own_upf)
            if peer_name is None:
                # Policy-routed internet to a wired target.
                extend(_NO_PEER_AIR)
                leg = path.sample_round_trip(rng_net)
                leg += const
            else:
                # Hairpin to a mobile peer: the peer's backhaul and air
                # terms join per run.
                leg = 0.0
                if path is not None:
                    leg += path.sample_round_trip(rng_net)
                leg += 2.0 * _sample_upf(rng_net, const)
            # Handover interruption landing in the window.
            # 0.5 + 0.5*r is the expanded uniform(0.5, 1.0).
            ho = 0.0
            if p_ho > 0.0 and ho_random() < p_ho:
                ho = 0.5 + 0.5 * ho_random()
            extend((upf, leg, ho))
    return np.array(tape, dtype=np.float64).reshape(-1, _TAPE_ROWS).T.copy()


def sample_run(pre: KernelPrecompute, config: "CampaignConfig",
               stream_factory: StreamFactory,
               block_cache: Optional[dict] = None) -> MeasurementDataset:
    """One run's sampling phase against a shared precompute.

    Reads only sampling-layer values from ``config``; every stochastic
    draw replicates the scalar pipeline on the streams
    ``stream_factory`` hands out.  With a ``block_cache`` (shared
    across runs of one build group), a cell whose draw-consumption key
    matches an earlier run reuses that run's tape instead of
    re-drawing — bit-identical because per-cell streams restart from
    the same state for every run of the group.  The cache gains one
    entry per cell drawn afresh.
    """
    interruption = config.handover_interruption_s
    handover_prob = config.handover_prob
    extra_load = config.cell_extra_load
    peer_gnb_name = pre.gnb_names[config.peer_site_index]
    peer_params = pre.air_params[peer_gnb_name]

    # Per-(cell, gNB) clamped loads and M/D/1 means.  CampaignConfig
    # keeps max_cell_load in (0, 1), so every clamped load is a valid
    # utilisation.
    extra = np.array([extra_load.get(block.cell, 0.0)
                      for block in pre.blocks], dtype=np.float64)
    load = np.clip(pre.pair_load + extra[pre.pair_block], 0.0,
                   config.max_cell_load)
    queued = load != 0.0
    qmean = load / (2.0 * (1.0 - load)) * pre.pair_service   # md1_wait

    # Per-run peer constants (sampling layer: air_load/sinr_db/site);
    # the trailing entry stands in for wired rows (peer slot -1).
    peer_count = len(pre.peer_target_names)
    peer_queued = np.zeros(peer_count + 1, dtype=bool)
    peer_qmean = np.zeros(peer_count + 1, dtype=np.float64)
    peer_keys: list[tuple[bool, float]] = []
    peer_draws: dict[str, tuple] = {}
    for slot, name in enumerate(pre.peer_target_names):
        peer = config.peers[name]
        peer_on = peer.air_load != 0.0
        if peer_on:
            peer_queued[slot] = True
            peer_qmean[slot] = md1_wait(peer.air_load,
                                        peer_params.buffer_service_s)
        bler = ChannelModel.bler(peer.sinr_db,
                                 target_bler=peer_params.target_bler)
        peer_keys.append((peer_on, bler))
        peer_draws[name] = (peer_params, peer_on, bler)

    queued_flags = queued.tolist()
    tapes = []
    for block in pre.blocks:
        p_ho = handover_prob.get(block.cell, 0.0)
        draws = tuple(queued_flags[
            block.pair_start:block.pair_start + len(block.gnb_names)])
        key = None
        tape = None
        if block_cache is not None:
            # What the cell's streams consume: own-air queueing draws,
            # handover draws, and the peers' air draws — their
            # queueing, their BLER and the peer site's air constants
            # (so peer sites sharing one radio config share tapes).
            key = (block.label, draws, p_ho,
                   tuple(peer_keys[j] for j in block.peer_slots),
                   peer_params if block.peer_slots else None)
            tape = block_cache.get(key)
        if tape is None:
            tape = _draw_tape(pre, block, stream_factory, draws,
                              peer_draws, p_ho)
            if block_cache is not None:
                block_cache[key] = tape
        tapes.append(tape)
    tape = np.concatenate(tapes, axis=1) if tapes \
        else np.empty((_TAPE_ROWS, 0), dtype=np.float64)

    # The scalar pipeline's per-measurement sum, over every row at once.
    rtts = _air_rtt(tape, 0, queued[pre.row_pair], qmean[pre.row_pair],
                    pre.row_slot)
    rtts += pre.row_backhaul
    rtts += tape[_UPF]
    leg = tape[_LEG]
    if peer_count:
        row_peer = pre.row_peer
        peer_backhaul = np.array([pre.backhaul2[(peer_gnb_name, gw)]
                                  for gw in pre.gateway_names])
        peer_air = _air_rtt(tape, _PEER, peer_queued[row_peer],
                            peer_qmean[row_peer], peer_params.slot)
        leg = np.where(row_peer >= 0,
                       (leg + peer_backhaul[pre.row_peer_gw]) + peer_air,
                       leg)
    rtts += leg
    ho = tape[_HO]
    rtts = np.where(ho > 0.0, rtts + interruption * ho, rtts)

    return MeasurementDataset.from_columns(
        pre.times, pre.cols, pre.rows, pre.target_col, pre.targets, rtts)


class CampaignKernel:
    """Runs one campaign through the precomputed fast path.

    Build from a :class:`~repro.probes.campaign.DriveTestCampaign`;
    :meth:`run` returns the same :class:`MeasurementDataset` (bitwise)
    as the scalar pipeline.  ``stage_seconds`` holds the wall time of
    each kernel phase after a run — the benchmark reads it.
    :meth:`precompute` exposes the build half on its own for the
    compiled-scenario cache (:mod:`repro.core.compiled`).
    """

    def __init__(self, campaign: "DriveTestCampaign"):
        self.campaign = campaign
        self.stage_seconds: dict[str, float] = {}

    # -- precomputed tables -------------------------------------------------

    def _wired_entry(self, gateway: "Gateway", target: str):
        """Compiled internet round trip gateway -> wired target."""
        from .campaign import PING_SIZE_BITS
        camp = self.campaign
        path = list(camp.routes.route(gateway.node_name, target).path)
        compiled = camp.routes.topology.compile_path(path, PING_SIZE_BITS)
        forwarding = camp.routes.topology.node(target).forwarding_delay_s
        return compiled, forwarding

    def _transit_entry(self, own: "Gateway", peer_gw: "Gateway"):
        """Compiled inter-gateway transit for cross-breakout hairpins."""
        from .campaign import PING_SIZE_BITS
        camp = self.campaign
        path = list(camp.routes.route(own.node_name,
                                      peer_gw.node_name).path)
        return camp.routes.topology.compile_path(path, PING_SIZE_BITS)

    def precompute(self) -> KernelPrecompute:
        """Materialise the build-layer tables (route, serving, paths).

        Fills the ``route_walk``/``serving_matrix``/``tables`` entries
        of ``stage_seconds``; :meth:`run` (or a compiled scenario's
        sampling) adds ``sampling``.
        """
        global _PRECOMPUTE_COUNT
        _PRECOMPUTE_COUNT += 1
        from .campaign import PING_SIZE_BITS
        camp = self.campaign
        config = camp.config
        bler_of = camp.radio.channel.bler

        # Phase 1: materialise the route (draws stay on its stream).
        t0 = time.perf_counter()
        samples = [s for s in camp.route.walk() if s.cell is not None]
        t1 = time.perf_counter()

        # Phase 2a: vectorised serving-cell selection for every position.
        serving = camp.radio.serving_many([s.position for s in samples])
        t2 = time.perf_counter()

        # Phase 2b: per-cell / per-gateway / per-path tables.
        gnbs = camp.radio.gnbs()
        gnb_names = tuple(g.name for g in gnbs)
        air_params = {g.name: _air_params(g.config) for g in gnbs}
        gnb_load = {g.name: g.load for g in gnbs}
        upf_params: dict[str, _UpfParams] = {}
        backhaul2: dict[tuple[str, str], float] = {}
        wired: dict[tuple[str, str], tuple[CompiledPath, float]] = {}
        transit: dict[tuple[str, str], CompiledPath] = {}

        def gateway_tables(gw: "Gateway") -> None:
            if gw.name in upf_params:
                return
            upf_params[gw.name] = _upf_params(gw.upf, PING_SIZE_BITS)
            for gnb in gnbs:
                backhaul2[(gnb.name, gw.name)] = \
                    2.0 * camp._backhaul_one_way_s(gnb.location, gw)

        # Group samples into per-cell blocks, route-encounter order.
        cell_order: list[CellId] = []
        cell_info: dict[CellId, dict] = {}
        peer_names: list[str] = []
        for i, sample in enumerate(samples):
            cell = sample.cell
            info = cell_info.get(cell)
            if info is None:
                targets = config.targets.get(cell, config.default_targets)
                gateway = camp._gateway_for(cell)
                gateway_tables(gateway)
                legs = []
                peer_gws: list[Optional[str]] = []
                for target in targets:
                    peer = config.peers.get(target)
                    if peer is None:
                        key = (gateway.node_name, target)
                        if key not in wired:
                            wired[key] = self._wired_entry(gateway, target)
                        legs.append((None,) + wired[key])
                        peer_gws.append(None)
                        continue
                    if target not in peer_names:
                        peer_names.append(target)
                    peer_gw = gateway if peer.gateway is None \
                        else config.gateways[peer.gateway]
                    gateway_tables(peer_gw)
                    path = None
                    if peer_gw.name != gateway.name:
                        tkey = (gateway.node_name, peer_gw.node_name)
                        if tkey not in transit:
                            transit[tkey] = self._transit_entry(
                                gateway, peer_gw)
                        path = transit[tkey]
                    legs.append((target, path, upf_params[peer_gw.name]))
                    peer_gws.append(peer_gw.name)
                info = {"targets": tuple(targets),
                        "legs": tuple(legs),
                        "peer_gws": peer_gws,
                        "gateway": gateway,
                        "gnb_order": [],
                        "indices": []}
                cell_info[cell] = info
                cell_order.append(cell)
            info["indices"].append(i)
            gname = serving[i][0].name
            if gname not in info["gnb_order"]:
                info["gnb_order"].append(gname)

        # Per-sample serving constants (pure functions of the build).
        sample_gnb = tuple(serving[i][0].name
                           for i in range(len(samples)))
        sample_bler = tuple(
            float(bler_of(sinr_db, target_bler=air_params[gnb.name]
                          .target_bler))
            for gnb, sinr_db in serving)

        # Blocks, load pairs and the per-row layout.  Rows run block by
        # block, sample-major within a block — exactly the order the
        # scalar pipeline's ``add`` loop appends them.
        gateway_names = tuple(upf_params)
        gateway_index = {name: k for k, name in enumerate(gateway_names)}
        peer_index = {name: k for k, name in enumerate(peer_names)}
        target_ids: dict[str, int] = {}
        blocks: list[_CellBlock] = []
        pair_block: list[int] = []
        pair_gnbs: list[str] = []
        sample_order: list[int] = []
        sample_pair: list[int] = []
        sample_reps: list[int] = []
        sample_gw: list[str] = []
        # Per-target values, one copy per sample of the block.
        target_col: list[int] = []
        row_peer: list[int] = []
        row_peer_gw: list[int] = []
        for b, cell in enumerate(cell_order):
            info = cell_info[cell]
            gateway = info["gateway"]
            pair_of = {gname: len(pair_gnbs) + k
                       for k, gname in enumerate(info["gnb_order"])}
            blocks.append(_CellBlock(
                cell=cell, label=cell.label,
                legs=info["legs"],
                peer_slots=tuple(peer_index[leg[0]] for leg in info["legs"]
                                 if leg[0] is not None),
                gateway_name=gateway.name,
                gnb_names=tuple(info["gnb_order"]),
                pair_start=len(pair_gnbs),
                sample_indices=tuple(info["indices"]),
            ))
            pair_block.extend([b] * len(info["gnb_order"]))
            pair_gnbs.extend(info["gnb_order"])
            for target in info["targets"]:
                target_ids.setdefault(target, len(target_ids))
            count = len(info["indices"])
            sample_order.extend(info["indices"])
            sample_pair.extend(pair_of[sample_gnb[i]]
                               for i in info["indices"])
            sample_reps.extend([len(info["targets"])] * count)
            sample_gw.extend([gateway.name] * count)
            target_col.extend(
                [target_ids[t] for t in info["targets"]] * count)
            row_peer.extend([-1 if leg[0] is None else peer_index[leg[0]]
                             for leg in info["legs"]] * count)
            row_peer_gw.extend([0 if gw is None else gateway_index[gw]
                                for gw in info["peer_gws"]] * count)

        # Per-sample values in row order, repeated once per target.
        reps = np.array(sample_reps, dtype=np.intp)
        ordered = [samples[i] for i in sample_order]
        ordered_gnb = [sample_gnb[i] for i in sample_order]

        def per_row(values, dtype) -> np.ndarray:
            return np.repeat(np.array(values, dtype=dtype), reps)

        times = per_row([s.time for s in ordered], np.float64)
        cols = per_row([s.cell.col for s in ordered], np.int32)
        rows_arr = per_row([s.cell.row for s in ordered], np.int32)
        row_slot = per_row([air_params[g].slot for g in ordered_gnb],
                           np.float64)
        row_backhaul = per_row(
            [backhaul2[(g, gw)] for g, gw in zip(ordered_gnb, sample_gw)],
            np.float64)

        pre = KernelPrecompute(
            blocks=tuple(blocks),
            gnb_names=gnb_names,
            air_params=air_params,
            upf_params=upf_params,
            backhaul2=backhaul2,
            gateway_names=gateway_names,
            peer_target_names=tuple(peer_names),
            sample_gnb=sample_gnb,
            sample_bler=sample_bler,
            pair_block=np.array(pair_block, dtype=np.intp),
            pair_load=np.array([gnb_load[g] for g in pair_gnbs],
                               dtype=np.float64),
            pair_service=np.array(
                [air_params[g].buffer_service_s for g in pair_gnbs],
                dtype=np.float64),
            row_pair=per_row(sample_pair, np.intp),
            row_slot=row_slot,
            row_backhaul=row_backhaul,
            row_peer=np.array(row_peer, dtype=np.intp),
            row_peer_gw=np.array(row_peer_gw, dtype=np.intp),
            times=times,
            cols=cols,
            rows=rows_arr,
            target_col=np.array(target_col, dtype=np.int32),
            targets=tuple(target_ids),
        )
        t3 = time.perf_counter()
        self.stage_seconds = {
            "route_walk": t1 - t0,
            "serving_matrix": t2 - t1,
            "tables": t3 - t2,
        }
        return pre

    # -- execution ----------------------------------------------------------

    def run(self) -> MeasurementDataset:
        """Precompute + sample on the campaign's own registry streams.

        Stream positions advance exactly as the scalar pipeline's
        would (``tests/test_campaign_kernel.py`` pins this), so a
        kernel run composes with any surrounding registry use.
        """
        pre = self.precompute()
        t3 = time.perf_counter()
        dataset = sample_run(pre, self.campaign.config,
                             self.campaign.rng.stream, None)
        self.stage_seconds["sampling"] = time.perf_counter() - t3
        return dataset
