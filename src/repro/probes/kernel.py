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
   (gateway, target) route, and the dataset *template* (times, cells,
   target ids — everything but the RTT column).  Picklable, so a
   compiled scenario can carry it across process boundaries and disk.
2. :func:`sample_run` — one tight loop over measurements that makes
   *exactly* the stochastic draws of the scalar pipeline, in the same
   order, on the same named streams, with the same float operation
   order.  Only sampling-layer values (per-run loads, handover knobs,
   peer radio situations) are read from the campaign config here.

**Batched multi-run sampling.**  Per-cell streams are derived purely
from ``(seed, stream name, cell label)``, so across runs that share a
build (same spec build layers, seed, density) each cell's fresh streams
are identical.  If a cell's complete sampling-parameter fingerprint —
per-gNB clamped loads, handover knobs, and the peer radio situation —
also matches, the cell's whole RTT block is bit-identical and
:func:`sample_run` can copy it from a shared ``block_cache`` instead of
re-drawing.  A campaign-only sweep typically perturbs a few cells per
variant, so most blocks are shared; the scalar draw loop remains the
oracle for every block computed.

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
    """How many kernel precomputes this process performed."""
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


def _sample_air_rtt(rng, p: _AirParams, load: float,
                    queue_mean: float, bler: float) -> float:
    """Replica of ``AirInterface.sample_rtt`` (UL + DL) draws.

    ``queue_mean`` is the precomputed M/D/1 wait for ``load`` (unused
    when ``load`` is zero); ``bler`` the precomputed block error rate
    for the measurement's SINR.

    ``Generator.uniform(0, h)`` computes ``h * next_double`` — the
    expanded ``h * random()`` form below is bitwise- and
    stream-equivalent at a third of the call overhead (guarded, like
    every equivalence this module relies on, by the kernel-vs-scalar
    and golden-digest tests).
    """
    random = rng.random
    exponential = rng.exponential
    # Uplink.
    delay = p.proc_base
    if not p.configured_grant:
        delay += p.sr_span * random()       # SR wait ~ U(0, sr period)
        delay += p.grant_s
    delay += p.slot * random()              # frame alignment ~ U(0, slot)
    if load != 0.0:
        delay += float(exponential(queue_mean))
    delay += p.slot
    retx = 0
    if bler > 0.0:
        while retx < p.max_retx and random() < bler:
            retx += 1
    delay += retx * p.harq_rtt_slots * p.slot
    uplink = delay
    # Downlink.
    delay = p.proc_base + p.slot * random()
    if load != 0.0:
        delay += float(exponential(queue_mean))
    delay += p.slot
    retx = 0
    if bler > 0.0:
        while retx < p.max_retx and random() < bler:
            retx += 1
    delay += retx * p.harq_rtt_slots * p.slot
    return uplink + delay


@dataclass(frozen=True)
class _CellBlock:
    """One cell's slice of the campaign, in route-encounter order."""

    cell: CellId
    label: str
    targets: tuple[str, ...]
    #: targets that resolve to mobile peers (subset of ``targets``)
    peer_targets: tuple[str, ...]
    gateway_name: str
    gateway_node: str
    #: distinct serving gNB names in the block, first-seen order
    gnb_names: tuple[str, ...]
    #: indexes into the global sample order (route-walk order)
    sample_indices: tuple[int, ...]
    #: dataset rows this block fills (one per sample x target)
    row_indices: np.ndarray


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
    #: per-gNB base scheduler load
    gnb_load: dict[str, float]
    #: per-gateway UPF queue constants, keyed by gateway name
    upf_params: dict[str, _UpfParams]
    #: round-trip backhaul seconds per (gNB name, gateway name)
    backhaul2: dict[tuple[str, str], float]
    #: gateway name -> topology node name
    gateway_node: dict[str, str]
    #: compiled internet paths per (gateway node, wired target)
    wired: dict[tuple[str, str], tuple[CompiledPath, float]]
    #: compiled transit paths per (own gateway node, peer gateway node)
    transit: dict[tuple[str, str], CompiledPath]
    #: peer-resolving target names, first-appearance order
    peer_target_names: tuple[str, ...]
    #: per-sample serving gNB name, aligned with the route walk
    sample_gnb: tuple[str, ...]
    #: per-sample precomputed block error rate (serving SINR + config)
    sample_bler: np.ndarray
    #: dataset template: every column except the RTTs
    times: np.ndarray
    cols: np.ndarray
    rows: np.ndarray
    target_col: np.ndarray
    targets: tuple[str, ...]

    @property
    def row_count(self) -> int:
        return int(self.times.shape[0])


#: ``stream_factory(*name_parts) -> Generator`` — either a registry's
#: (position-preserving) ``stream`` or a per-run fresh-stream factory.
StreamFactory = Callable[..., np.random.Generator]


def sample_run(pre: KernelPrecompute, config: "CampaignConfig",
               stream_factory: StreamFactory,
               block_cache: Optional[dict] = None) -> MeasurementDataset:
    """One run's sampling phase against a shared precompute.

    Reads only sampling-layer values from ``config``; every stochastic
    draw replicates the scalar pipeline on the streams
    ``stream_factory`` hands out.  With a ``block_cache`` (shared
    across runs of one build group), a cell whose sampling fingerprint
    matches an earlier run copies that run's RTT block instead of
    re-drawing — bit-identical because per-cell streams restart from
    the same state for every run of the group.
    """
    bler_of = ChannelModel.bler
    interruption = config.handover_interruption_s
    peers = config.peers
    extra_load = config.cell_extra_load
    max_load = config.max_cell_load
    peer_gnb_name = pre.gnb_names[config.peer_site_index]
    peer_params = pre.air_params[peer_gnb_name]

    # Per-run peer constants (sampling layer: air_load/sinr_db/site).
    peer_meta: dict[str, tuple] = {}
    for name in pre.peer_target_names:
        peer = peers[name]
        peer_meta[name] = (
            peer,
            md1_wait(peer.air_load, peer_params.buffer_service_s)
            if peer.air_load != 0.0 else 0.0,
            bler_of(peer.sinr_db, target_bler=peer_params.target_bler),
        )

    rtts = np.empty(pre.row_count, dtype=np.float64)
    for block in pre.blocks:
        p_ho = config.handover_prob.get(block.cell, 0.0)
        # Per-run per-gNB tables for this cell: clamped load + M/D/1
        # wait (pure functions — recomputing per cell is bit-identical
        # to the old global memo).
        extra = extra_load.get(block.cell, 0.0)
        loads: dict[str, float] = {}
        qmeans: dict[str, float] = {}
        for gname in block.gnb_names:
            load = float(np.clip(pre.gnb_load[gname] + extra,
                                 0.0, max_load))
            loads[gname] = load
            qmeans[gname] = (
                md1_wait(load, pre.air_params[gname].buffer_service_s)
                if load != 0.0 else 0.0)

        cache_key = None
        if block_cache is not None:
            # The complete sampling-layer fingerprint of this block:
            # equal fingerprints (within one build group) mean every
            # draw and every float op repeats exactly.
            cache_key = (
                block.label,
                tuple(loads[g] for g in block.gnb_names),
                p_ho,
                interruption if p_ho > 0.0 else 0.0,
                tuple((peers[t].air_load, peers[t].sinr_db)
                      for t in block.peer_targets),
                config.peer_site_index if block.peer_targets else 0,
            )
            shared = block_cache.get(cache_key)
            if shared is not None:
                rtts[block.row_indices] = shared
                continue

        rng_air = stream_factory("campaign.air", block.label)
        rng_net = stream_factory("campaign.net", block.label)
        rng_ho = stream_factory("campaign.handover", block.label)
        own_upf = pre.upf_params[block.gateway_name]
        block_rtts = np.empty(block.row_indices.shape[0],
                              dtype=np.float64)
        pos = 0
        for i in block.sample_indices:
            gname = pre.sample_gnb[i]
            params = pre.air_params[gname]
            load = loads[gname]
            qmean = qmeans[gname]
            own_backhaul = pre.backhaul2[(gname, block.gateway_name)]
            bler = pre.sample_bler[i]
            for target in block.targets:
                # Own radio access + core legs.
                rtt = _sample_air_rtt(rng_air, params, load, qmean, bler)
                rtt += own_backhaul
                rtt += 2.0 * _sample_upf(rng_net, own_upf)

                meta = peer_meta.get(target)
                if meta is not None:
                    # Hairpin to a mobile peer.
                    peer, peer_qmean, peer_bler = meta
                    leg = 0.0
                    peer_gw = block.gateway_name \
                        if peer.gateway is None else peer.gateway
                    if peer_gw != block.gateway_name:
                        leg += pre.transit[
                            (block.gateway_node,
                             pre.gateway_node[peer_gw])
                        ].sample_round_trip(rng_net)
                    leg += 2.0 * _sample_upf(
                        rng_net, pre.upf_params[peer_gw])
                    leg += pre.backhaul2[(peer_gnb_name, peer_gw)]
                    leg += _sample_air_rtt(rng_air, peer_params,
                                           peer.air_load, peer_qmean,
                                           peer_bler)
                    rtt += leg
                else:
                    # Policy-routed internet to a wired target.
                    compiled, forwarding = \
                        pre.wired[(block.gateway_node, target)]
                    leg = compiled.sample_round_trip(rng_net)
                    leg += forwarding
                    rtt += leg

                # Handover interruption landing in the window.
                # 0.5 + 0.5*r is the expanded uniform(0.5, 1.0).
                if p_ho > 0.0 and rng_ho.random() < p_ho:
                    rtt += interruption * (0.5 + 0.5 * rng_ho.random())
                block_rtts[pos] = rtt
                pos += 1
        if block_cache is not None:
            block_cache[cache_key] = block_rtts
        rtts[block.row_indices] = block_rtts

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
        gateway_node = {name: config.gateways[name].node_name
                        for name in sorted(config.gateways)}
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
                peer_targets = []
                for target in targets:
                    peer = config.peers.get(target)
                    if peer is None:
                        key = (gateway.node_name, target)
                        if key not in wired:
                            wired[key] = self._wired_entry(gateway, target)
                        continue
                    peer_targets.append(target)
                    if target not in peer_names:
                        peer_names.append(target)
                    peer_gw = gateway if peer.gateway is None \
                        else config.gateways[peer.gateway]
                    gateway_tables(peer_gw)
                    if peer_gw.name != gateway.name:
                        tkey = (gateway.node_name, peer_gw.node_name)
                        if tkey not in transit:
                            transit[tkey] = self._transit_entry(
                                gateway, peer_gw)
                info = {"targets": tuple(targets),
                        "peer_targets": tuple(peer_targets),
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
        sample_bler = np.empty(len(samples), dtype=np.float64)
        for i in range(len(samples)):
            gnb, sinr_db = serving[i]
            sample_bler[i] = bler_of(
                sinr_db, target_bler=air_params[gnb.name].target_bler)

        # The dataset template: every column but the RTTs, in exactly
        # the order the scalar pipeline's ``add`` loop appends rows.
        total_rows = sum(
            len(cell_info[c]["indices"]) * len(cell_info[c]["targets"])
            for c in cell_order)
        times = np.empty(total_rows, dtype=np.float64)
        cols = np.empty(total_rows, dtype=np.int32)
        rows_arr = np.empty(total_rows, dtype=np.int32)
        target_col = np.empty(total_rows, dtype=np.int32)
        targets_list: list[str] = []
        target_ids: dict[str, int] = {}
        blocks: list[_CellBlock] = []
        row = 0
        for cell in cell_order:
            info = cell_info[cell]
            start = row
            for i in info["indices"]:
                t = samples[i].time
                for target in info["targets"]:
                    tid = target_ids.get(target)
                    if tid is None:
                        tid = len(targets_list)
                        targets_list.append(target)
                        target_ids[target] = tid
                    times[row] = t
                    cols[row] = cell.col
                    rows_arr[row] = cell.row
                    target_col[row] = tid
                    row += 1
            gateway = info["gateway"]
            blocks.append(_CellBlock(
                cell=cell, label=cell.label,
                targets=info["targets"],
                peer_targets=info["peer_targets"],
                gateway_name=gateway.name,
                gateway_node=gateway.node_name,
                gnb_names=tuple(info["gnb_order"]),
                sample_indices=tuple(info["indices"]),
                row_indices=np.arange(start, row),
            ))
        t3 = time.perf_counter()

        self.stage_seconds = {
            "route_walk": t1 - t0,
            "serving_matrix": t2 - t1,
            "tables": t3 - t2,
        }
        return KernelPrecompute(
            blocks=tuple(blocks),
            gnb_names=gnb_names,
            air_params=air_params,
            gnb_load=gnb_load,
            upf_params=upf_params,
            backhaul2=backhaul2,
            gateway_node=gateway_node,
            wired=wired,
            transit=transit,
            peer_target_names=tuple(peer_names),
            sample_gnb=sample_gnb,
            sample_bler=sample_bler,
            times=times,
            cols=cols,
            rows=rows_arr,
            target_col=target_col,
            targets=tuple(targets_list),
        )

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
