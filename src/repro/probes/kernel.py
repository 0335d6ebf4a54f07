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
2. :func:`sample_run` — per cell, *exactly* the stochastic draws of
   the scalar pipeline, in the same order, on the same named streams,
   recorded as that cell's draw *tape*; then one numpy pass over all
   rows that turns the tapes into the RTT column with the scalar
   pipeline's float operation order.  Only sampling-layer values
   (per-run loads, handover knobs, peer radio situations) are read
   from the campaign config here.

**Drawing a tape.**  The streams of every cell a run draws come from
one call of the run's stream factory (a registry's bulk
:meth:`~repro.sim.rng.RngRegistry.streams`, which seeds them all at
once).  Each of a cell's three streams draws one block of
raw 64-bit words (``bit_generator.random_raw``), and the run's blocks
are decoded with numpy the way numpy's ``Generator`` reads
words: ``random()`` is ``(w >> 11) * 2**-53``, and
``standard_exponential()`` is Marsaglia and Tsang's ziggurat, whose
fast path (98% of draws) is ``ri * we[idx]`` when ``ri < ke[idx]``,
with ``ri = w >> 11`` and ``idx = (w >> 3) & 0xFF``.  The two 256-entry
tables are module data, re-derived from the installed numpy by the
tests.  The slow paths are settled one at a time, exactly: the idx-0
tail as ``ZIGGURAT_EXP_R - log1p(-u)`` on the next word; a wedge test
by one real call on the stream rewound to the word, whose value and
next word show whether it accepted (two words) or rejected and redrew.

``campaign.net`` draws one (uniform, exponential) pair per M/M/1 queue
in a layout the build fixes (:class:`_NetLayout`), so its draws are
gathered and summed as arrays in the scalar op order: a direction's
queueing is a left fold (``np.cumsum`` along a row), and an idle queue
adds an exact 0.0 (``x + 0.0 == x`` for any sum of waits).
``campaign.air``'s layout hangs on HARQ outcomes, so a Python walk over
the decoded uniforms finds where each RTT's draws sit and how often it
retransmits, and numpy sums the RTTs; ``campaign.handover`` is walked
likewise in the few cells that draw.  Blocks are sized from each
walk's expected draws, and a walk that outruns its block redraws it
larger.  Afterwards every stream is rewound and advanced by exactly the
words read, so a registry's streams end where per-call draws leave
them.  On the first tape a process draws, a self-check compares decoded
draws with ``Generator``'s on a fixed stream that starts draws in every
ziggurat layer and takes every slow path; should numpy's generator ever
change, tapes are drawn one ``Generator`` call per draw
(:func:`_draw_tape_per_call`, the reference the tests hold the decoder
to).

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

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

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
class _NetLayout:
    """What one cell's ``campaign.net`` stream draws for each sample.

    One (uniform, exponential) pair per M/M/1 queue that draws, target
    after target in the scalar order: own UPF, the path's forward then
    reverse links, the peer gateway's UPF.  Pair columns count from the
    sample's first pair; -1 marks a queue that draws nothing.
    """

    #: per pair column: utilisation and exponential scale
    rho: tuple[float, ...]
    scale: tuple[float, ...]
    #: per target: its own UPF's column
    upf_at: tuple[int, ...]
    #: per target: whether it is a peer, that peer gateway's UPF column
    #: (-1 for a wired target), and what the leg adds after the path
    #: round trip — that UPF's service time, or the wired target's
    #: forwarding delay
    peer: tuple[bool, ...]
    add_at: tuple[int, ...]
    add_const: tuple[float, ...]
    #: per target: its compiled path (or None) and the column of the
    #: path's first link; the links follow it contiguously
    path: tuple[Optional[CompiledPath], ...]
    path_at: tuple[int, ...]
    #: the own UPF's service time
    service: float


def _net_layout(legs: tuple[tuple, ...], own: _UpfParams) -> _NetLayout:
    """The :class:`_NetLayout` of a cell's targets."""
    rho: list[float] = []
    scale: list[float] = []

    def queue(r: float, s: Optional[float]) -> int:
        if s is None:
            return -1
        rho.append(r)
        scale.append(s)
        return len(rho) - 1

    upf_at, add_at, add_const, path_at = [], [], [], []
    for peer_name, path, const in legs:
        upf_at.append(queue(own.rho, own.scale))
        path_at.append(len(rho))
        if path is not None:
            fwd, back = path.queue_links
            for r, s in fwd + back:
                queue(r, s)
        if peer_name is None:
            add_at.append(-1)
            add_const.append(const)
        else:
            add_at.append(queue(const.rho, const.scale))
            add_const.append(const.service_s)
    return _NetLayout(
        rho=tuple(rho), scale=tuple(scale), upf_at=tuple(upf_at),
        peer=tuple(name is not None for name, _, _ in legs),
        add_at=tuple(add_at), add_const=tuple(add_const),
        path=tuple(path for _, path, _ in legs), path_at=tuple(path_at),
        service=own.service_s)


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
    #: what the cell's ``campaign.net`` stream draws
    net: _NetLayout


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


#: ``streams(names) -> [Generator]``, one generator per name-parts
#: tuple: a registry's :meth:`~repro.sim.rng.RngRegistry.streams`,
#: which seeds all the streams it has not made yet in one bulk call.
StreamFactory = Callable[[Sequence[tuple]], list[np.random.Generator]]


#: The three per-cell streams a tape draws from, in creation order.
_STREAMS = ("campaign.air", "campaign.net", "campaign.handover")


def _draw_tape_per_call(pre: KernelPrecompute, block: _CellBlock,
                        streams: tuple[np.random.Generator, ...],
                        queued: tuple[bool, ...],
                        peer_draws: dict[str, tuple],
                        p_ho: float) -> np.ndarray:
    """One cell's draws, one ``Generator`` call each, as its tape.

    The reference walk (and the fallback when decoded draws are off):
    ``streams`` are the cell's :data:`_STREAMS`; ``queued`` flags, per
    ``block.gnb_names``, a non-zero clamped load (an own-air queueing
    draw); ``peer_draws`` maps each peer target to its ``(air params,
    queued, bler)``.

    The air draws replicate ``AirInterface.sample_rtt`` (UL + DL).
    ``Generator.uniform(0, h)`` computes ``h * next_double``, so the
    expanded ``h * random()`` form is bitwise- and stream-equivalent at
    a third of the call overhead; ``exponential(q)`` is likewise
    ``q * standard_exponential()`` (pinned on its own in
    ``tests/test_campaign_kernel.py``; like every equivalence this
    module relies on, also guarded by the kernel-vs-scalar and
    golden-digest tests).
    """
    rng_air, rng_net, rng_ho = streams
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


# -- decoded draws ------------------------------------------------------------

#: numpy's ``ziggurat_exp_r``: where the exponential ziggurat's tail
#: starts
ZIGGURAT_EXP_R = 7.69711747013104972
#: ``random()`` is ``(word >> 11) * 2**-53``
_U53 = 2.0 ** -53
_NO_WORDS = np.empty(0, dtype=np.uint64)


class _Short(Exception):
    """A walk needs more words than its stream's block holds."""


class _Words:
    """One stream's block of raw 64-bit words for one cell's tape.

    ``base``/``end`` locate the block in the :class:`_Decoded` arrays
    it was decoded into; ``at`` is the word the stream reads next.
    Drawing leaves the stream past the whole block; :meth:`leave` puts
    it where the per-call draws would.
    """

    __slots__ = ("gen", "state", "raw", "base", "end", "at")

    def __init__(self, gen: np.random.Generator, count: int):
        self.gen = gen
        self.state: Optional[dict] = None
        self.raw = _NO_WORDS
        self.base = self.end = self.at = 0
        if count:
            self.draw(count)

    def draw(self, count: int) -> None:
        """Draw ``count`` words from where the stream stood at first."""
        bitgen = self.gen.bit_generator
        if self.state is None:
            self.state = bitgen.state
        else:
            bitgen.state = self.state
        self.raw = bitgen.random_raw(count)
        self.at = count

    def seek(self, k: int):
        """The bit generator, set to read decoded word ``k`` next."""
        bitgen = self.gen.bit_generator
        k -= self.base
        if k < self.at:
            bitgen.state = self.state
            self.at = 0
        if k > self.at:
            bitgen.advance(k - self.at)
        self.at = k
        return bitgen

    def leave(self, end: int) -> None:
        """Put the stream after the words up to ``end``."""
        if self.state is None:
            return
        self.seek(end)
        if self.state["has_uint32"]:
            # advance() drops a buffered 32-bit half no draw here reads.
            bitgen = self.gen.bit_generator
            state = bitgen.state
            state["has_uint32"] = 1
            state["uinteger"] = self.state["uinteger"]
            bitgen.state = state


class _Decoded:
    """Streams' blocks of words, decoded in one numpy pass per add.

    ``uniform[k]`` is what ``random()`` returns on word ``k``.
    ``exp[k]`` is what ``standard_exponential()`` returns when word
    ``k`` takes the ziggurat's fast path: ``ri * we[idx]`` with
    ``ri = word >> 11`` and ``idx = (word >> 3) & 0xFF``, taken when
    ``ri < ke[idx]``; else -1.0, for :func:`_slow_exponential`.
    ``ri < 2**53``, so as a float64 it is exact, and so are the
    comparison and the products.
    """

    def __init__(self) -> None:
        self.words = _NO_WORDS
        self.uniform = np.empty(0)
        self.exp = np.empty(0)

    def add(self, blocks: list[_Words]) -> None:
        """Decode ``blocks`` after the words already held."""
        end = len(self.words)
        for words in blocks:
            words.base = end
            end += len(words.raw)
            words.end = end
        raw = np.concatenate([w.raw for w in blocks]) if blocks \
            else _NO_WORDS
        ri = (raw >> 11).astype(np.float64)
        idx = ((raw >> 3) & 0xFF).astype(np.intp)
        uniform = ri * _U53
        exp = ri * _ZIGGURAT_WE.take(idx)
        exp[ri >= _ZIGGURAT_KE_FLOAT.take(idx)] = -1.0
        if len(self.words):
            raw = np.concatenate((self.words, raw))
            uniform = np.concatenate((self.uniform, uniform))
            exp = np.concatenate((self.exp, exp))
        self.words, self.uniform, self.exp = raw, uniform, exp


def _slow_exponential(dec: _Decoded, words: _Words,
                      k: int) -> tuple[float, int]:
    """``standard_exponential()`` on word ``k``, off the fast path.

    Returns the value and the index of the next unread word.  The
    idx-0 tail reads one more uniform ``u``: ``ZIGGURAT_EXP_R -
    log1p(-u)``, with libm's ``log1p`` as numpy uses it.  A wedge test
    is settled by one real call on the stream rewound to word ``k``:
    an accepted candidate ``ri * we[idx]`` comes back having read one
    more word (the stream's next word shows it); a rejection redraws
    from the word after that, which decodes like any exponential.
    """
    if k + 2 >= words.end:
        raise _Short
    word = int(dec.words[k])
    idx = (word >> 3) & 0xFF
    if idx == 0:
        u = float(dec.uniform[k + 1])
        return ZIGGURAT_EXP_R - math.log1p(-u), k + 2
    bitgen = words.seek(k)
    value = words.gen.standard_exponential()
    after = bitgen.random_raw()
    # The call and the peek read at least three words: a redraw's
    # own seek goes back.
    words.at = k + 3 - words.base
    if value == (word >> 11) * float(_ZIGGURAT_WE[idx]) \
            and after == dec.words[k + 2]:
        end = k + 2
    else:
        redraw, end = float(dec.exp[k + 2]), k + 3
        if redraw < 0.0:
            redraw, end = _slow_exponential(dec, words, k + 2)
        if redraw != value:
            raise RuntimeError(
                f"decoded exponential {redraw!r} differs from numpy's "
                f"{value!r}")
    # The call read up to ``end``; the peek read one word more.
    words.at = end + 1 - words.base
    return value, end


def _fixed_draws(dec: _Decoded, blocks: list[_Words], counts: list[int],
                 is_exp: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Draw sequences whose kinds are known in advance, one per block.

    Block ``b`` makes the next ``counts[b]`` draws of ``is_exp``: a
    ``standard_exponential()`` where it is true, else a ``random()``.
    Each draw reads one word, except an exponential off the fast path;
    those are settled in word order, each shifting the draws after it.
    Returns the values, block after block, and the index after each
    block's last word read (-1 when its block ran short).
    """
    total = sum(counts)
    shifts = np.zeros(total + 1, dtype=np.intp)
    offsets: list[int] = []
    ends: list[int] = []
    settled_at: list[int] = []
    settled: list[float] = []
    candidates = np.flatnonzero(dec.exp < 0.0).tolist()
    c = 0
    first = 0
    for words, n in zip(blocks, counts):
        base = words.base
        offsets.append(base - first)
        while c < len(candidates) and candidates[c] < base:
            c += 1
        shift = 0
        after = base
        found: list[tuple[int, int, float]] = []
        try:
            while c < len(candidates) and candidates[c] < words.end:
                k = candidates[c]
                c += 1
                slot = k - base - shift
                if slot >= n:
                    break
                if k < after or not is_exp[first + slot]:
                    continue
                value, after = _slow_exponential(dec, words, k)
                found.append((slot, after - k - 1, value))
                shift += after - k - 1
            if base + n + shift > words.end:
                raise _Short
        except _Short:
            ends.append(-1)
            first += n
            continue
        for slot, extra, value in found:
            shifts[first + slot + 1] += extra
            settled_at.append(first + slot)
            settled.append(value)
        shifts[first + n] -= shift
        ends.append(base + n + shift)
        first += n
    pos = np.arange(total) + np.repeat(offsets, counts) \
        + np.cumsum(shifts[:total])
    # A short block's draws are garbage; keep them inside the arrays.
    np.minimum(pos, len(dec.words) - 1, out=pos)
    out = np.where(is_exp, dec.exp[pos], dec.uniform[pos])
    out[settled_at] = settled
    return out, ends


#: Seed and length of the decoder self-check: its exponentials start
#: in every ziggurat layer and take the idx-0 tail, accepted and
#: rejected wedges, and rejections redrawn in a wedge and in the tail
#: (``tests/test_campaign_kernel.py`` pins that coverage).
_CHECK_SEED = 224863
_CHECK_DRAWS = 1300


def _decoder_matches_numpy() -> bool:
    """Decoded draws equal ``Generator``'s: uniforms, exponentials and
    the stream's end state."""
    try:
        def stream() -> np.random.Generator:
            return np.random.Generator(np.random.PCG64(_CHECK_SEED))

        gen, ref = stream(), stream()
        words = _Words(gen, _CHECK_DRAWS + 64)
        dec = _Decoded()
        dec.add([words])
        values, (end,) = _fixed_draws(dec, [words], [_CHECK_DRAWS],
                                      np.ones(_CHECK_DRAWS, dtype=bool))
        words.leave(end)
        return end >= 0 \
            and np.array_equal(dec.uniform,
                               stream().random(len(dec.uniform))) \
            and np.array_equal(values,
                               ref.standard_exponential(_CHECK_DRAWS)) \
            and gen.bit_generator.state == ref.bit_generator.state
    except Exception:   # a changed generator API is a mismatch too
        return False


#: None until the first tape is drawn; then whether decoded draws
#: match numpy's.  When they do not, tapes are drawn call by call.
_DECODER_OK: Optional[bool] = None


def _decoder_ok() -> bool:
    global _DECODER_OK
    if _DECODER_OK is None:
        _DECODER_OK = _decoder_matches_numpy()
    return _DECODER_OK


# -- tapes from decoded draws -------------------------------------------------

class _AirHeads:
    """The run's distinct air RTT constants, one row per (radio config,
    queued) of a serving gNB and one per peer target.

    A walk step is ``(head, has_sr, queued, harq, bler)``; ``harq`` is
    how many HARQ draws a direction may make (0 when BLER is 0).
    """

    def __init__(self) -> None:
        self.rows: list[tuple] = []
        self.index: dict[tuple, tuple[int, int]] = {}

    def step(self, key: tuple, p: _AirParams, queued: bool, bler: float,
             peer: bool) -> tuple[tuple, float]:
        """The walk step of one air RTT, and a bound on the words it
        reads: each HARQ loop counts ``1 + (harq - 1) * bler`` words, at
        least its expected draws; a walk that outruns its block
        redraws it larger."""
        found = self.index.get(key)
        if found is None:
            found = self.index[key] = (len(self.rows), (
                2 + (not p.configured_grant) + 2 * queued))
            self.rows.append((p.proc_base, not p.configured_grant,
                              p.sr_span, p.grant_s, p.slot, queued,
                              p.harq_rtt_slots, peer))
        head, words = found
        harq = p.max_retx if bler > 0.0 else 0
        step = (head, not p.configured_grant, queued, harq, bler)
        return step, words + 2.0 * (1.0 + (harq - 1) * bler) \
            if harq else float(words)


def _walk_air(owns: list[tuple], pattern: list, U: list, slow: set,
              settle: Callable[[int], int], k: int,
              out: list[int]) -> int:
    """Walk one cell's ``campaign.air`` draws from word ``k``.

    Per sample, ``pattern`` lists the air RTTs: None for the sample's
    own step in ``owns``, else a peer target's step.  ``U`` holds the
    decoded uniforms; an exponential reads one word unless it is in
    ``slow``, which ``settle`` resolves.  Appends, per RTT, its head
    and the words its UL and DL halves start at and their HARQ
    retransmissions, then returns the next unread word.
    """
    extend = out.extend
    for own in owns:
        for step in pattern:
            head, has_sr, queued, harq, bler = own if step is None \
                else step
            start = k
            k += 1 + has_sr
            if queued:
                k = settle(k) if k in slow else k + 1
            ul_retx = 0
            if harq:
                k += 1
                if U[k - 1] < bler:
                    ul_retx = 1
                    while ul_retx < harq:
                        k += 1
                        if U[k - 1] >= bler:
                            break
                        ul_retx += 1
            dl_start = k
            k += 1
            if queued:
                k = settle(k) if k in slow else k + 1
            dl_retx = 0
            if harq:
                k += 1
                if U[k - 1] < bler:
                    dl_retx = 1
                    while dl_retx < harq:
                        k += 1
                        if U[k - 1] >= bler:
                            break
                        dl_retx += 1
            extend((head, start, dl_start, ul_retx, dl_retx))
    return k


def _air_terms(marks: np.ndarray, heads: _AirHeads, air: "_Decoded"
               ) -> np.ndarray:
    """The six tape entries of every walked air RTT, as rows.

    The scalar sums in their op order, over all RTTs at once: UL is
    ``((proc_base + sr_span * u) + grant_s) + slot * u`` (no SR terms
    under a configured grant), DL ``proc_base + slot * u``, each
    queueing draw its standard exponential (0.0 when not queued), and
    each HARQ term ``(retx * harq_rtt_slots) * slot``.
    """
    head, start, dl_start, ul_retx, dl_retx = marks.T
    proc, has_sr, sr_span, grant_s, slot, queued, harq_slots, _ = \
        (np.array(col)[head] for col in zip(*heads.rows))
    uniform, exp = air.uniform, air.exp
    align = start + has_sr
    ul = np.where(has_sr, (proc + sr_span * uniform[start]) + grant_s, proc)
    ul = ul + slot * uniform[align]
    dl = proc + slot * uniform[dl_start]
    ul_exp = np.where(queued, exp[np.where(queued, align + 1, 0)], 0.0)
    dl_exp = np.where(queued, exp[np.where(queued, dl_start + 1, 0)], 0.0)
    return np.stack((ul, ul_exp, (ul_retx * harq_slots) * slot,
                     dl, dl_exp, (dl_retx * harq_slots) * slot))


class _CellDraws:
    """One cell's three streams, drawn as blocks of raw words.

    ``campaign.air``'s layout hangs on HARQ outcomes, so a Python walk
    over the decoded uniforms finds where each RTT's draws sit, and
    :func:`_air_terms` sums them run-wide; ``campaign.handover`` draws
    only in the few cells with a handover probability, also walked.
    ``campaign.net``'s layout is fixed (:class:`_NetLayout`) apart
    from slow exponentials, so it decodes as arrays, run-wide.
    """

    def __init__(self, pre: KernelPrecompute, block: _CellBlock,
                 streams: tuple[np.random.Generator, ...],
                 queued: tuple[bool, ...], p_ho: float,
                 heads: _AirHeads, peer_steps: dict[str, tuple]):
        self.block = block
        self.p_ho = p_ho
        samples = len(block.sample_indices)
        self.records = samples * len(block.legs)
        self.pattern: list = []
        bound = 0.0
        for peer_name, _, _ in block.legs:
            self.pattern.append(None)
            if peer_name is not None:
                step, words = peer_steps[peer_name]
                self.pattern.append(step)
                bound += samples * words
        queued_by_gnb = dict(zip(block.gnb_names, queued))
        self.owns: list[tuple] = []
        for i in block.sample_indices:
            gname = pre.sample_gnb[i]
            q = queued_by_gnb[gname]
            step, words = heads.step((gname, q), pre.air_params[gname], q,
                                     pre.sample_bler[i], False)
            self.owns.append(step)
            bound += len(block.legs) * words
        self.pairs = len(block.net.rho) * samples
        self.air = _Words(streams[0], int(bound) + 16 + int(bound) // 16)
        self.net = _Words(streams[1], 2 * self.pairs + 8 + self.pairs // 16
                          if self.pairs else 0)
        self.ho = _Words(streams[2], 2 * self.records if p_ho > 0.0 else 0)
        self.ends = [0, 0, 0]

    def walk(self, air: "_Decoded") -> tuple[np.ndarray, list[float]]:
        """The cell's air marks (:func:`_walk_air`, as rows) and
        handover factors; :class:`_Short` or IndexError if a block ran
        out.  The walk reads its words as one list, air then handover."""
        base = self.air.base
        U = air.uniform[base:self.ho.end].tolist()
        slow = set(np.flatnonzero(air.exp[base:self.air.end] < 0.0)
                   .tolist())

        def settle(k: int) -> int:
            value, end = _slow_exponential(air, self.air, base + k)
            air.exp[base + k] = value
            return end - base

        marks: list[int] = []
        end = _walk_air(self.owns, self.pattern, U, slow, settle, 0, marks)
        if end > self.air.end - base:
            raise _Short
        k = self.ho.base - base
        ho = [0.0] * self.records
        if self.p_ho > 0.0:
            # 0.5 + 0.5*r is the expanded uniform(0.5, 1.0).
            p_ho = self.p_ho
            for r in range(self.records):
                k += 1
                if U[k - 1] < p_ho:
                    ho[r] = 0.5 + 0.5 * U[k]
                    k += 1
            if k > self.ho.end - base:
                raise _Short
        self.ends[0] = end
        self.ends[2] = k - (self.ho.base - base)
        rows = np.array(marks, dtype=np.intp).reshape(-1, 5)
        rows[:, 1:3] += base
        return rows, ho

    def redraw_net(self, net: "_Decoded") -> np.ndarray:
        """The net draws from a block redrawn larger until it fits."""
        is_exp = np.tile((False, True), self.pairs)
        while True:
            self.net.draw(2 * len(self.net.raw))
            net.add([self.net])
            values, (end,) = _fixed_draws(net, [self.net], [2 * self.pairs],
                                          is_exp)
            if end >= 0:
                self.ends[1] = end - self.net.base
                return values

    def leave(self) -> None:
        for words, used in zip((self.air, self.net, self.ho), self.ends):
            words.leave(words.base + used)


def _net_terms(cells: list[_CellDraws], values: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Per record: ``2 * own UPF latency`` and the net leg.

    The scalar sums in their op order: a direction's queueing folds
    left to right over its links (``np.cumsum`` along a row), an idle
    queue adds an exact 0.0, ``0.0 + x`` is ``x``, and
    ``exponential(s)`` is ``s * standard_exponential()``.
    """
    layouts = [cell.block.net for cell in cells]
    width = np.array([len(lay.rho) for lay in layouts], dtype=np.intp)
    targets = np.array([len(lay.peer) for lay in layouts], dtype=np.intp)
    samples = np.array([len(cell.block.sample_indices) for cell in cells],
                       dtype=np.intp)

    def flat(field: str, dtype) -> np.ndarray:
        out: list = []
        for lay in layouts:
            out.extend(getattr(lay, field))
        return np.array(out, dtype=dtype)

    def starts(sizes: np.ndarray) -> np.ndarray:
        return np.cumsum(sizes) - sizes

    # The pairs: each cell's columns, sample after sample.  The
    # trailing 0.0 is the wait of a queue that draws nothing.
    pairs = width * samples
    local = np.arange(pairs.sum()) - np.repeat(starts(pairs), pairs)
    col = np.repeat(starts(width), pairs) + local % np.repeat(width, pairs)
    waits = np.zeros(len(col) + 1)
    waits[:-1] = np.where(values[0::2] < flat("rho", np.float64)[col],
                          flat("scale", np.float64)[col] * values[1::2],
                          0.0)
    # The records: sample x target, and where their pairs start.
    records = samples * targets
    local = np.arange(records.sum()) - np.repeat(starts(records), records)
    per_sample = np.repeat(targets, records)
    sample = local // per_sample
    target = np.repeat(starts(targets), records) + local - sample \
        * per_sample
    first = np.repeat(starts(pairs), records) \
        + sample * np.repeat(width, records)

    def pair(field: str) -> np.ndarray:
        at = flat(field, np.intp)[target]
        return np.where(at >= 0, first + at, -1)

    upf = 2.0 * (waits[pair("upf_at")]
                 + np.repeat([lay.service for lay in layouts], records))
    add_const = flat("add_const", np.float64)[target]
    add = np.where(flat("peer", bool)[target],
                   2.0 * (waits[pair("add_at")] + add_const), add_const)
    # Path round trips, every record of one path at once.
    paths: list[CompiledPath] = []
    index: dict[int, int] = {}
    path_of: list[int] = []
    for lay in layouts:
        for path in lay.path:
            if path is not None and id(path) not in index:
                index[id(path)] = len(paths)
                paths.append(path)
            path_of.append(-1 if path is None else index[id(path)])
    path_of_record = np.array(path_of, dtype=np.intp)[target]
    link0 = first + flat("path_at", np.intp)[target]
    trips = np.zeros(len(add))
    for j, path in enumerate(paths):
        recs = np.flatnonzero(path_of_record == j)
        fwd, back = (len(links) for links in path.queue_links)
        links = waits[link0[recs, None] + np.arange(fwd + back)]
        qf = np.cumsum(links[:, :fwd], axis=1)[:, -1] if fwd else 0.0
        qb = np.cumsum(links[:, fwd:], axis=1)[:, -1] if back else 0.0
        trips[recs] = path.round_trip_of(qf, qb)
    return upf, trips + add


def _draw_tapes(pre: KernelPrecompute, todo: list[tuple],
                stream_factory: StreamFactory,
                peer_draws: dict[str, tuple]) -> list[np.ndarray]:
    """The tapes of the ``(block, queued, p_ho)`` cells in ``todo``.

    The cells' streams come from one ``stream_factory`` call.  Each
    stream draws one block of raw words, decoded with numpy (see the
    module docstring); a failed self-check or a stream of another bit
    generator draws call by call instead.
    """
    made = stream_factory([(name, block.label) for block, _, _ in todo
                           for name in _STREAMS])
    width = len(_STREAMS)
    streams = [tuple(made[i:i + width])
               for i in range(0, len(made), width)]
    if not _decoder_ok() or any(
            type(gen.bit_generator) is not np.random.PCG64
            for trio in streams for gen in trio):
        return [_draw_tape_per_call(pre, block, trio, queued, peer_draws,
                                    p_ho)
                for (block, queued, p_ho), trio in zip(todo, streams)]
    heads = _AirHeads()
    peer_steps = {name: heads.step((name,), *peer_draws[name], True)
                  for name in pre.peer_target_names}
    # Equal passes of at most _PASS_CELLS cells: each pass shares
    # numpy's per-call cost among its cells and holds only their words.
    passes = -(-len(todo) // _PASS_CELLS)
    cut = [len(todo) * i // passes for i in range(passes + 1)]
    tapes: list[np.ndarray] = []
    for a, b in zip(cut, cut[1:]):
        tapes += _decoded_tapes(
            [_CellDraws(pre, block, trio, queued, p_ho, heads, peer_steps)
             for (block, queued, p_ho), trio in zip(todo[a:b],
                                                     streams[a:b])],
            heads)
    return tapes


#: at most this many cells' words are decoded at once
_PASS_CELLS = 16


def _decoded_tapes(cells: list[_CellDraws],
                   heads: _AirHeads) -> list[np.ndarray]:
    """The cells' tapes from their decoded blocks; each stream is then
    left where per-call draws would leave it."""
    air = _Decoded()
    air.add([w for cell in cells for w in (cell.air, cell.ho)])
    marks: list[np.ndarray] = []
    ho: list[float] = []
    for cell in cells:
        while True:
            try:
                cell_marks, cell_ho = cell.walk(air)
                break
            except (_Short, IndexError):
                # Rare: redraw the cell's air and handover blocks
                # larger, decoded after the others.
                for words in (cell.air, cell.ho):
                    if words.state is not None:
                        words.draw(2 * len(words.raw))
                air.add([cell.air, cell.ho])
        marks.append(cell_marks)
        ho += cell_ho

    # Every record has one own air RTT, and a peer's right after it
    # for a peer target.
    rtts = np.concatenate(marks)
    terms = _air_terms(rtts, heads, air)
    peer_rtt = np.array([row[-1] for row in heads.rows] + [False])
    is_peer = peer_rtt[np.append(rtts[:, 0], len(heads.rows))]
    del air, marks, rtts
    own = np.flatnonzero(~is_peer[:-1])
    tape = np.empty((_TAPE_ROWS, len(own)))
    tape[:_PEER] = terms[:, own]
    tape[_PEER:_UPF] = np.where(is_peer[own + 1],
                                terms[:, np.minimum(own + 1,
                                                    terms.shape[1] - 1)],
                                0.0)
    tape[_HO] = ho
    del terms, ho

    net = _Decoded()
    net.add([cell.net for cell in cells])
    counts = [2 * cell.pairs for cell in cells]
    values, ends = _fixed_draws(net, [cell.net for cell in cells], counts,
                                np.tile((False, True), sum(counts) // 2))
    first = 0
    for cell, n, end in zip(cells, counts, ends):
        if end < 0:
            values[first:first + n] = cell.redraw_net(net)
        else:
            cell.ends[1] = end - cell.net.base
        first += n
    del net
    tape[_UPF], tape[_LEG] = _net_terms(cells, values)
    for cell in cells:
        cell.leave()
    bounds = np.cumsum([0] + [cell.records for cell in cells]).tolist()
    return [tape[:, a:b] for a, b in zip(bounds, bounds[1:])]


def sample_run(pre: KernelPrecompute, config: "CampaignConfig",
               stream_factory: StreamFactory,
               block_cache: Optional[dict] = None) -> MeasurementDataset:
    """One run's sampling phase against a shared precompute.

    Reads only sampling-layer values from ``config``; every stochastic
    draw replicates the scalar pipeline on the streams
    ``stream_factory`` hands out (one call for all the cells drawn).
    With a ``block_cache`` (shared across runs of one build group), a
    cell whose draw-consumption key matches an earlier run reuses that
    run's tape instead of re-drawing — bit-identical because per-cell
    streams restart from the same state for every run of the group.
    The cache gains one entry per cell drawn afresh.
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
    tapes: list[Optional[np.ndarray]] = []
    todo: list[tuple] = []
    missing: list[tuple[int, tuple]] = []
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
            todo.append((block, draws, p_ho))
            missing.append((len(tapes), key))
        tapes.append(tape)
    if todo:
        drawn = _draw_tapes(pre, todo, stream_factory, peer_draws)
        for (at, key), tape in zip(missing, drawn):
            tapes[at] = tape
            if block_cache is not None:
                block_cache[key] = tape
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
                net=_net_layout(info["legs"], upf_params[gateway.name]),
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
                             self.campaign.rng.streams, None)
        self.stage_seconds["sampling"] = time.perf_counter() - t3
        return dataset


# numpy's exponential ziggurat (``ke_double``/``we_double``), re-derived
# from the installed numpy by ``tests/test_campaign_kernel.py``.
_ZIGGURAT_KE = np.array((
    0x1C5214272497C6, 0x00000000000000, 0x137D5BD79C317E, 0x186EF58E3F3C10,
    0x1A9BB7320EB0AE, 0x1BD127F719447C, 0x1C951D0F88651A, 0x1D1BFE2D5C3972,
    0x1D7E5BD56B18B2, 0x1DC934DD172C70, 0x1E0409DFAC9DC8, 0x1E337B71D47836,
    0x1E5A8B177CB7A2, 0x1E7B42096F046C, 0x1E970DAF08AE3E, 0x1EAEF5B14EF09E,
    0x1EC3BD07B46556, 0x1ED5F6F08799CE, 0x1EE614AE6E5688, 0x1EF46ECA361CD0,
    0x1F014B76DDD4A4, 0x1F0CE313A796B6, 0x1F176369F1F77A, 0x1F20F20C452570,
    0x1F29AE1951A874, 0x1F31B18FB95532, 0x1F39125157C106, 0x1F3FE2EB6E694C,
    0x1F463332D788FA, 0x1F4C10BF1D3A0E, 0x1F51874C5C3322, 0x1F56A109C3ECC0,
    0x1F5B66D9099996, 0x1F5FE08210D08C, 0x1F6414DD445772, 0x1F6809F6859678,
    0x1F6BC52A2B02E6, 0x1F6F4B3D32E4F4, 0x1F72A07190F13A, 0x1F75C8974D09D6,
    0x1F78C71B045CC0, 0x1F7B9F12413FF4, 0x1F7E5346079F8A, 0x1F80E63BE21138,
    0x1F835A3DAD9162, 0x1F85B16056B912, 0x1F87ED89B24262, 0x1F8A10759374FA,
    0x1F8C1BBA3D39AC, 0x1F8E10CC45D04A, 0x1F8FF102013E16, 0x1F91BD968358E0,
    0x1F9377AC47AFD8, 0x1F95204F8B64DA, 0x1F96B878633892, 0x1F98410C968892,
    0x1F99BAE146BA80, 0x1F9B26BC697F00, 0x1F9C85561B717A, 0x1F9DD759CFD802,
    0x1F9F1D6761A1CE, 0x1FA058140936C0, 0x1FA187EB3A3338, 0x1FA2AD6F6BC4FC,
    0x1FA3C91ACE0682, 0x1FA4DB5FEE6AA2, 0x1FA5E4AA4D097C, 0x1FA6E55EE46782,
    0x1FA7DDDCA51EC4, 0x1FA8CE7CE6A874, 0x1FA9B793CE5FEE, 0x1FAA9970ADB858,
    0x1FAB745E588232, 0x1FAC48A3740584, 0x1FAD1682BF9FE8, 0x1FADDE3B5782C0,
    0x1FAEA008F21D6C, 0x1FAF5C2418B07E, 0x1FB012C25B7A12, 0x1FB0C41681DFF4,
    0x1FB17050B6F1FA, 0x1FB2179EB2963A, 0x1FB2BA2BDFA84A, 0x1FB358217F4E18,
    0x1FB3F1A6C9BE0C, 0x1FB486E10CACD6, 0x1FB517F3C793FC, 0x1FB5A500C5FDAA,
    0x1FB62E2837FE58, 0x1FB6B388C9010A, 0x1FB7353FB50798, 0x1FB7B368DC7DA8,
    0x1FB82E1ED6BA08, 0x1FB8A57B0347F6, 0x1FB919959A0F74, 0x1FB98A85BA7204,
    0x1FB9F861796F26, 0x1FBA633DEEE286, 0x1FBACB2F41EC16, 0x1FBB3048B49144,
    0x1FBB929CAEA4E2, 0x1FBBF23CC8029E, 0x1FBC4F39D22994, 0x1FBCA9A3E140D4,
    0x1FBD018A548F9E, 0x1FBD56FBDE729C, 0x1FBDAA068BD66A, 0x1FBDFAB7CB3F40,
    0x1FBE491C7364DE, 0x1FBE9540C9695E, 0x1FBEDF3086B128, 0x1FBF26F6DE6174,
    0x1FBF6C9E828AE2, 0x1FBFB031A904C4, 0x1FBFF1BA0FFDB0, 0x1FC03141024588,
    0x1FC06ECF5B54B2, 0x1FC0AA6D8B1426, 0x1FC0E42399698A, 0x1FC11BF9298A64,
    0x1FC151F57D1942, 0x1FC1861F770F4A, 0x1FC1B87D9E74B4, 0x1FC1E91620EA42,
    0x1FC217EED505DE, 0x1FC2450D3C83FE, 0x1FC27076864FC2, 0x1FC29A2F90630E,
    0x1FC2C23CE98046, 0x1FC2E8A2D2C6B4, 0x1FC30D654122EC, 0x1FC33087DE9C0E,
    0x1FC3520E0B7EC6, 0x1FC371FADF66F8, 0x1FC390512A2886, 0x1FC3AD137497FA,
    0x1FC3C844013348, 0x1FC3E1E4CCAB40, 0x1FC3F9F78E4DA8, 0x1FC4107DB85060,
    0x1FC4257877FD68, 0x1FC438E8B5BFC6, 0x1FC44ACF15112A, 0x1FC45B2BF447E8,
    0x1FC469FF6C4504, 0x1FC477495001B2, 0x1FC483092BFBB8, 0x1FC48D3E457FF6,
    0x1FC495E799D21A, 0x1FC49D03DD30B0, 0x1FC4A29179B432, 0x1FC4A68E8E07FC,
    0x1FC4A8F8EBFB8C, 0x1FC4A9CE16EA9E, 0x1FC4A90B41FA34, 0x1FC4A6AD4E28A0,
    0x1FC4A2B0C82E74, 0x1FC49D11E62DE2, 0x1FC495CC852DF4, 0x1FC48CDC265EC0,
    0x1FC4823BEC237A, 0x1FC475E696DEE6, 0x1FC467D6817E82, 0x1FC458059DC036,
    0x1FC4466D702E20, 0x1FC433070BCB98, 0x1FC41DCB0D6E0E, 0x1FC406B196BBF6,
    0x1FC3EDB248CB62, 0x1FC3D2C43E593C, 0x1FC3B5DE0591B4, 0x1FC396F599614C,
    0x1FC376005A4592, 0x1FC352F3069370, 0x1FC32DC1B22818, 0x1FC3065FBD7888,
    0x1FC2DCBFCBF262, 0x1FC2B0D3B99F9E, 0x1FC2828C8FFCF0, 0x1FC251DA79F164,
    0x1FC21EACB6D39E, 0x1FC1E8F18C6756, 0x1FC1B09637BB3C, 0x1FC17586DCCD10,
    0x1FC137AE74D6B6, 0x1FC0F6F6BB2414, 0x1FC0B348184DA4, 0x1FC06C898BAFF0,
    0x1FC022A092F364, 0x1FBFD5710F72B8, 0x1FBF84DD29488E, 0x1FBF30C52FC60A,
    0x1FBED907770CC6, 0x1FBE7D80327DDA, 0x1FBE1E094BA614, 0x1FBDBA7A354408,
    0x1FBD52A7B9F826, 0x1FBCE663C6201A, 0x1FBC757D2C4DE4, 0x1FBBFFBF63B7AA,
    0x1FBB84F23FE6A2, 0x1FBB04D9A0D18C, 0x1FBA7F351A70AC, 0x1FB9F3BF92B618,
    0x1FB9622ED4ABFC, 0x1FB8CA33174A16, 0x1FB82B76765B54, 0x1FB7859C5B895C,
    0x1FB6D840D55594, 0x1FB622F7D96942, 0x1FB5654C6F37E0, 0x1FB49EBFBF69D2,
    0x1FB3CEC803E746, 0x1FB2F4CF539C3E, 0x1FB21032442852, 0x1FB1203E5A9604,
    0x1FB0243042E1C2, 0x1FAF1B31C479A6, 0x1FAE045767E104, 0x1FACDE9DBF2D72,
    0x1FABA8E640060A, 0x1FAA61F399FF28, 0x1FA908656F66A2, 0x1FA79AB3508D3C,
    0x1FA61726D1F214, 0x1FA47BD48BEA00, 0x1FA2C693C5C094, 0x1FA0F4F47DF314,
    0x1F9F04336BBE0A, 0x1F9CF12B79F9BC, 0x1F9AB84415ABC4, 0x1F98555B782FB8,
    0x1F95C3ABD03F78, 0x1F92FDA9CEF1F2, 0x1F8FFCDA9AE41C, 0x1F8CB99E7385F8,
    0x1F892AEC479606, 0x1F8545F904DB8E, 0x1F80FDC336039A, 0x1F7C427839E926,
    0x1F7700A3582ACC, 0x1F71200F1A241C, 0x1F6A8234B7352A, 0x1F630000A8E266,
    0x1F5A66904FE3C4, 0x1F50724ECE1172, 0x1F44C7665C6FDA, 0x1F36E5A38A59A2,
    0x1F26143450340A, 0x1F113E047B0414, 0x1EF6AEFA57CBE6, 0x1ED38CA188151E,
    0x1EA2A61E122DB0, 0x1E5961C78B267C, 0x1DDDF62BAC0BB0, 0x1CDB4DD9E4E8C0,
), dtype=np.uint64)
_ZIGGURAT_WE = np.array((
    9.655740063209183e-16, 7.089014243955414e-18, 1.1639412496691224e-17,
    1.524391512353216e-17, 1.833284885723744e-17, 2.1089651094644866e-17,
    2.3611280778431382e-17, 2.595595772310894e-17, 2.8161735541977523e-17,
    3.0255041303213823e-17, 3.225508254836375e-17, 3.417632340185027e-17,
    3.6029969787344525e-17, 3.782490776869649e-17, 3.956832198097553e-17,
    4.1266117781759464e-17, 4.2923218084425256e-17, 4.4543777432823714e-17,
    4.613133981483186e-17, 4.768895725264636e-17, 4.921928043727963e-17,
    5.072462904503147e-17, 5.220704702792672e-17, 5.366834661718192e-17,
    5.511014372835095e-17, 5.653388673239667e-17, 5.794088004852767e-17,
    5.933230365208943e-17, 6.07092293284718e-17, 6.207263431163193e-17,
    6.342341280303077e-17, 6.476238575956142e-17, 6.609030925769405e-17,
    6.740788167872722e-17, 6.871574991183812e-17, 7.00145147340393e-17,
    7.130473549660643e-17, 7.258693422414648e-17, 7.386159921381792e-17,
    7.512918820723728e-17, 7.639013119550826e-17, 7.764483290797848e-17,
    7.88936750272979e-17, 8.013701816675454e-17, 8.137520364041762e-17,
    8.260855505210038e-17, 8.383737972539139e-17, 8.506196999385323e-17,
    8.628260436784113e-17, 8.749954859216183e-17, 8.871305660690252e-17,
    8.992337142215357e-17, 9.113072591597909e-17, 9.233534356381788e-17,
    9.353743910649129e-17, 9.47372191631295e-17, 9.593488279457997e-17,
    9.713062202221521e-17, 9.832462230649511e-17, 9.951706298915072e-17,
    1.0070811770242949e-16, 1.0189795474846941e-16, 1.030867374515422e-16,
    1.0427462448561886e-16, 1.0546177017945764e-16, 1.0664832480119147e-16,
    1.0783443482419485e-16, 1.0902024317583505e-16, 1.1020588947055781e-16,
    1.1139151022861975e-16, 1.1257723908165675e-16, 1.1376320696616847e-16,
    1.1494954230590093e-16, 1.1613637118402183e-16, 1.1732381750590458e-16,
    1.1851200315326694e-16, 1.1970104813034652e-16, 1.2089107070273855e-16,
    1.2208218752947062e-16, 1.2327451378884152e-16, 1.2446816329851125e-16,
    1.2566324863028985e-16, 1.2685988122003975e-16, 1.2805817147307494e-16,
    1.2925822886541196e-16, 1.3046016204120288e-16, 1.3166407890665726e-16,
    1.328700867207381e-16, 1.3407829218289994e-16, 1.3528880151811755e-16,
    1.3650172055943978e-16, 1.377171548282881e-16, 1.389352096127064e-16,
    1.4015599004375715e-16, 1.4137960117024852e-16, 1.4260614803196654e-16,
    1.4383573573157902e-16, 1.4506846950536877e-16, 1.4630445479294757e-16,
    1.4754379730609516e-16, 1.487866030968626e-16, 1.500329786250737e-16,
    1.5128303082535394e-16, 1.5253686717381255e-16, 1.537945957544997e-16,
    1.5505632532575771e-16, 1.5632216538658375e-16, 1.5759222624311761e-16,
    1.5886661907536842e-16, 1.6014545600429167e-16, 1.6142885015932787e-16,
    1.6271691574651305e-16, 1.640097681172718e-16, 1.653075238380037e-16,
    1.666103007605742e-16, 1.6791821809382289e-16, 1.6923139647620223e-16,
    1.7054995804966298e-16, 1.7187402653490317e-16, 1.7320372730810084e-16,
    1.745391874792534e-16, 1.7588053597224914e-16, 1.7722790360680065e-16,
    1.7858142318237326e-16, 1.7994122956424637e-16, 1.8130745977185016e-16,
    1.8268025306952523e-16, 1.8405975105985878e-16, 1.8544609777975695e-16,
    1.8683943979941927e-16, 1.882399263243892e-16, 1.8964770930086167e-16,
    1.9106294352443765e-16, 1.9248578675252438e-16, 1.9391639982058994e-16,
    1.9535494676249091e-16, 1.9680159493510374e-16, 1.982565151475019e-16,
    1.997198817949342e-16, 2.0119187299787347e-16, 2.0267267074641983e-16,
    2.0416246105035888e-16, 2.0566143409519179e-16, 2.071697844044737e-16,
    2.0868771100881597e-16, 2.1021541762192928e-16, 2.117531128241076e-16,
    2.133010102535779e-16, 2.1485932880616633e-16, 2.1642829284376047e-16,
    2.180081324120784e-16, 2.1959908346828707e-16, 2.212013881190496e-16,
    2.2281529486961805e-16, 2.2444105888463086e-16, 2.2607894226131737e-16,
    2.277292143158621e-16, 2.2939215188373114e-16, 2.3106803963482133e-16,
    2.3275717040435346e-16, 2.344598455404958e-16, 2.361763752697774e-16,
    2.3790707908142767e-16, 2.3965228613186235e-16, 2.4141233567062933e-16,
    2.431875774892256e-16, 2.44978372394307e-16, 2.4678509270692887e-16,
    2.4860812278958517e-16, 2.504478596029557e-16, 2.523047132944217e-16,
    2.541791078205812e-16, 2.560714816061771e-16, 2.579822882420531e-16,
    2.599119972249747e-16, 2.618610947423924e-16, 2.638300845054943e-16,
    2.658194886341845e-16, 2.678298485979525e-16, 2.698617262169489e-16,
    2.7191570472798185e-16, 2.739923899205815e-16, 2.760924113487617e-16,
    2.782164236246436e-16, 2.8036510780069835e-16, 2.825391728480253e-16,
    2.847393572388174e-16, 2.8696643064198177e-16, 2.8922119574179956e-16,
    2.915044901905293e-16, 2.9381718870700286e-16, 2.9616020533454657e-16,
    2.9853449587300453e-16, 3.009410605012618e-16, 3.0338094660850034e-16,
    3.058552518544861e-16, 3.08365127481531e-16, 3.1091178190342663e-16,
    3.134964845996663e-16, 3.1612057034671057e-16, 3.187854438219713e-16,
    3.2149258462067974e-16, 3.2424355273094516e-16, 3.2703999451822404e-16,
    3.298836492772283e-16, 3.3277635641716714e-16, 3.357200633553244e-16,
    3.387168342045505e-16, 3.417688593525637e-16, 3.448784660453424e-16,
    3.4804813010374423e-16, 3.5128048892229794e-16, 3.545783559224792e-16,
    3.5794473666042765e-16, 3.6138284682190606e-16, 3.6489613237645425e-16,
    3.6848829220956213e-16, 3.7216330360802073e-16, 3.7592545104162565e-16,
    3.7977935876688744e-16, 3.8373002787892137e-16, 3.8778287856078953e-16,
    3.919437984311429e-16, 3.962191980786775e-16, 4.0061607510565417e-16,
    4.051420882956573e-16, 4.0980564389030625e-16, 4.1461599642909046e-16,
    4.195833672073399e-16, 4.247190841824385e-16, 4.3003574816674707e-16,
    4.355474314693952e-16, 4.41269916903607e-16, 4.472209874259932e-16,
    4.534207798565834e-16, 4.598922204905932e-16, 4.666615664711476e-16,
    4.737590853262492e-16, 4.812199172829238e-16, 4.89085182739221e-16,
    4.97403423619194e-16, 5.06232507214416e-16, 5.156421828878083e-16,
    5.257175802022275e-16, 5.365640977112022e-16, 5.483144034258704e-16,
    5.61138745467516e-16, 5.752606481503332e-16, 5.909817641652103e-16,
    6.087231416180908e-16, 6.290979034877557e-16, 6.530492053564041e-16,
    6.821393079028929e-16, 7.192444966089362e-16, 7.706095350032097e-16,
    8.545517038584027e-16,
), dtype=np.float64)
_ZIGGURAT_KE_FLOAT = _ZIGGURAT_KE.astype(np.float64)
