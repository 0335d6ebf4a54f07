"""Kernel-vs-scalar equivalence for the drive-test campaign.

The measurement kernel (probes.kernel) must be *observationally
invisible*: for any scenario and seed, ``campaign.run()`` (kernel) and
``campaign.run(kernel=False)`` (the scalar reference pipeline) produce
byte-for-byte identical datasets.  These tests are the enforcement
mechanism for every precompute/vectorisation trick the kernel plays.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.probes.kernel as kernel
import test_golden_digests as golden
from repro.core.compiled import CompiledScenario
from repro.probes.kernel import CampaignKernel, sample_run
from repro.scenarios import build, get, klagenfurt
from repro.sim.rng import RngRegistry, stable_seed


def run_both(name: str, seed: int, density: float):
    scalar = build(get(name), seed=seed).campaign(density).run(kernel=False)
    kernel = build(get(name), seed=seed).campaign(density).run()
    return scalar, kernel


def assert_datasets_identical(a, b):
    assert len(a) == len(b)
    assert (a.times == b.times).all()
    assert (a.rtts == b.rtts).all()
    recs_a, recs_b = list(a.records()), list(b.records())
    for ra, rb in zip(recs_a, recs_b):
        assert ra == rb


@pytest.mark.parametrize("scenario", ["klagenfurt", "skopje"])
@pytest.mark.parametrize("seed", [7, 42, 123])
def test_kernel_bitwise_identical_to_scalar(scenario, seed):
    scalar, kernel = run_both(scenario, seed, density=2.0)
    assert_datasets_identical(scalar, kernel)


def test_kernel_identical_at_full_density():
    scalar, kernel = run_both("klagenfurt", 42, density=6.0)
    assert_datasets_identical(scalar, kernel)


def assert_kernel_identical_under(overrides):
    spec = get("klagenfurt").with_overrides(overrides)
    scalar = build(spec, seed=9).campaign(2.0).run(kernel=False)
    kernel = build(spec, seed=9).campaign(2.0).run()
    assert_datasets_identical(scalar, kernel)


def test_kernel_identical_under_spec_overrides():
    """Breakout reassignment and handover knobs flow through the kernel."""
    assert_kernel_identical_under({"campaign.handover_interruption_s": 0.06})


def test_kernel_identical_with_the_peer_behind_another_gateway(
        monkeypatch):
    """A peer behind another gateway takes the transit hairpin
    (``CampaignKernel._transit_entry``), compiled once per campaign."""
    calls = []
    transit_entry = CampaignKernel._transit_entry

    def counted(self, own, peer_gw):
        calls.append(peer_gw.name)
        return transit_entry(self, own, peer_gw)

    monkeypatch.setattr(CampaignKernel, "_transit_entry", counted)
    assert_kernel_identical_under({"campaign.peers.0.gateway": "frankfurt"})
    assert calls == ["frankfurt"]


def test_kernel_reports_stage_breakdown():
    campaign = build(get("klagenfurt"), seed=42).campaign(2.0)
    kern = CampaignKernel(campaign)
    assert kern.stage_seconds == {}
    kern.run()
    assert set(kern.stage_seconds) == {
        "route_walk", "serving_matrix", "tables", "sampling"}
    assert all(v >= 0.0 for v in kern.stage_seconds.values())


def assert_streams_left_as_scalar_leaves_them(name, density):
    sc_scalar = build(get(name), seed=42)
    sc_kernel = build(get(name), seed=42)
    scalar = sc_scalar.campaign(density).run(kernel=False)
    kernel = sc_kernel.campaign(density).run()
    assert_datasets_identical(scalar, kernel)
    streams = sorted(sc_scalar.rng)
    assert streams == sorted(sc_kernel.rng)
    for key in streams:
        a = sc_scalar.rng.stream(*key).bit_generator.state
        b = sc_kernel.rng.stream(*key).bit_generator.state
        assert a == b, key


@pytest.mark.parametrize("density", [2.0, 6.0])
@pytest.mark.parametrize("scenario", ["klagenfurt", "skopje"])
def test_kernel_leaves_streams_where_scalar_does(scenario, density):
    """After a run, every named stream sits at the same position."""
    assert_streams_left_as_scalar_leaves_them(scenario, density)


# ---------------------------------------------------------------------------
# Draw tapes: the numpy identity they rest on, and their cache keys
# ---------------------------------------------------------------------------

ZIGGURAT_EXP_R = kernel.ZIGGURAT_EXP_R


def test_exponential_is_scaled_standard_exponential():
    """The tapes keep ``standard_exponential()`` and scale it per run:
    ``Generator.exponential(q)`` must equal ``q * standard_exponential()``
    bit for bit and consume the stream identically, slow paths too."""
    scales = [0.0, 1e-9, 2.4e-3, 0.0125, 1.0, 3.7e4]
    a = np.random.Generator(np.random.PCG64(20240917))
    b = np.random.Generator(np.random.PCG64(20240917))
    tail = 0
    for i in range(200_000):
        q = scales[i % len(scales)]
        x = a.exponential(q)
        e = b.standard_exponential()
        assert x == q * e
        tail += e > ZIGGURAT_EXP_R
        # Interleaved uniforms: any difference in consumption shows.
        assert a.random() == b.random()
    assert tail > 0   # the tail path was exercised
    assert a.bit_generator.state == b.bit_generator.state


def _tape_variants(base):
    """One variant per draw-consumption key component, on top of a
    base where cell B2 (served by one gNB) has zero clamped load."""
    anchors = [list(pair) for pair in base.campaign.extra_load_anchors]
    zero = base.with_overrides(
        {"campaign.extra_load_anchors": anchors + [["B2", -0.9]]})
    return [
        zero,
        # zero-load site made non-zero
        base.with_overrides(
            {"campaign.extra_load_anchors": anchors + [["B2", 0.1]]}),
        zero.with_overrides({"campaign.peers.0.air_load": 0.0}),
        zero.with_overrides({"campaign.peers.0.air_load": 0.4}),
        zero.with_overrides({"campaign.peers.0.sinr_db": 3.0}),
        zero.with_overrides({"campaign.peer_site_index": 2}),
        zero.with_overrides({"campaign.handover_prob": []}),
        zero.with_overrides({"campaign.handover_prob":
                             [["E5", 0.35], ["B2", 0.6], ["C3", 0.9]]}),
        zero.with_overrides({"campaign.max_cell_load": 0.3}),
        zero.with_overrides({"campaign.handover_interruption_s": 0.11,
                             "campaign.max_cell_load": 0.3}),
    ]


@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_shared_tapes_match_the_scalar_oracle(order):
    """One ``block_cache`` across variants that flip every component
    of the draw-consumption key: each run must still equal the scalar
    pipeline (``run(kernel=False)``) bit for bit."""
    seed, density = 42, 2.0
    variants = _tape_variants(klagenfurt())
    if order == "reverse":
        variants = variants[::-1]
    compiled = CompiledScenario(variants[0], seed=seed, density=density)
    cache = {}
    for variant in variants:
        scalar = build(variant, seed=seed).campaign(density).run(
            kernel=False)
        taped = sample_run(compiled.precompute,
                           compiled._variant_config(variant),
                           RngRegistry(seed).streams, cache)
        assert_datasets_identical(scalar, taped)
    # Some cells were redrawn, most were shared; B2 was drawn both
    # without and with own-air queueing.
    cells = len(compiled.precompute.blocks)
    assert cells < len(cache) < cells * len(variants) // 2
    assert {key[1] for key in cache if key[0] == "B2"} == {(False,),
                                                           (True,)}


def test_tapes_are_keyed_by_the_peer_sites_air_constants():
    """Specs give every site one radio config, so only a precompute
    with a distinct config on one site can show that a tape drawn for
    one peer site is not reused for another: shared-cache runs must
    equal fresh ones."""
    spec = klagenfurt()
    compiled = CompiledScenario(spec, seed=42, density=2.0)
    pre = compiled.precompute
    other = pre.gnb_names[2]
    pre = dataclasses.replace(pre, air_params={
        **pre.air_params,
        other: dataclasses.replace(pre.air_params[other],
                                   configured_grant=True)})
    cache = {}
    for site in (0, 2, 0):
        config = compiled._variant_config(
            spec.with_overrides({"campaign.peer_site_index": site}))
        shared = sample_run(pre, config, RngRegistry(42).streams, cache)
        fresh = sample_run(pre, config, RngRegistry(42).streams, None)
        assert_datasets_identical(fresh, shared)


# ---------------------------------------------------------------------------
# Decoded draws: raw PCG64 words read as numpy's Generator reads them
# ---------------------------------------------------------------------------

M64 = (1 << 64) - 1
M128 = (1 << 128) - 1
KE = [int(k) for k in kernel._ZIGGURAT_KE]
WE = kernel._ZIGGURAT_WE.tolist()


def set_state(bitgen, state, inc):
    bitgen.state = {"bit_generator": "PCG64",
                    "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}


def pcg64_multiplier():
    """The LCG multiplier, read off numpy: one step from state 1."""
    bitgen = np.random.PCG64(0)
    set_state(bitgen, 1, 1)
    bitgen.advance(1)
    return (bitgen.state["state"]["state"] - 1) & M128


MULTIPLIER = pcg64_multiplier()


def emitting(word, hi):
    """A PCG64 state whose XSL-RR output is ``word``: the top six bits
    of ``hi`` rotate, ``hi ^ lo`` is the rotated-back word."""
    rot = hi >> 58
    return (hi << 64) | (hi ^ (((word << rot) | (word >> (64 - rot))) & M64))


def crafted(first, second=None, hi=0x0123456789ABCDEF):
    """A generator whose next raw words are ``first`` (and ``second``)."""
    s1 = emitting(first, hi & ((1 << 58) - 1))
    inc = 0xDA3E39CB94B95BDB
    if second is not None:
        s2 = emitting(second, 0x00FEDCBA98765432 ^ (hi << 7) & M64)
        if not (s2 - s1) & 1:          # the increment must be odd
            s2 ^= 1 << 64
        inc = (s2 - s1 * MULTIPLIER) & M128
    bitgen = np.random.PCG64(0)
    set_state(bitgen, s1, inc)
    bitgen.advance(M128)               # one step back
    return np.random.Generator(bitgen)


def ziggurat_word(idx, ri, low=0b101):
    return (ri << 11) | (idx << 3) | low


def decoded(gen, is_exp):
    """``is_exp``'s draws through the kernel's decoder; the generator
    is left where the draws leave it."""
    is_exp = np.asarray(is_exp, dtype=bool)
    words = kernel._Words(gen, len(is_exp) + len(is_exp) // 16 + 64)
    dec = kernel._Decoded()
    dec.add([words])
    values, (end,) = kernel._fixed_draws(dec, [words], [len(is_exp)],
                                         is_exp)
    assert end >= 0
    words.leave(end)
    return values.tolist(), end - words.base


def called(gen, is_exp):
    """The same draws, one ``Generator`` call each."""
    return [gen.standard_exponential() if e else gen.random()
            for e in is_exp]


def assert_decodes_like_numpy(make, is_exp):
    gen, ref = make(), make()
    values, used = decoded(gen, is_exp)
    assert values == called(ref, is_exp)
    assert gen.bit_generator.state == ref.bit_generator.state
    return used


def test_tables_rederive_from_numpy():
    """``we[idx]`` is the value of ``ri = 1`` (fast, or an accepted
    wedge: the next word is 0); ``ke[idx]`` the least ``ri`` that
    leaves the fast path (more than one word read)."""

    def one_word(idx, ri):
        word = ziggurat_word(idx, ri)
        probe = crafted(word)
        after = probe.bit_generator.random_raw(2)[1]
        gen = crafted(word)
        value = gen.standard_exponential()
        return gen.bit_generator.random_raw() == after \
            and value == ri * WE[idx]

    for idx in range(256):
        gen = crafted(ziggurat_word(idx, 1), 0)
        assert gen.standard_exponential() == WE[idx], idx
        lo, hi = 0, 1 << 53
        if not one_word(idx, lo):
            found = 0
        elif one_word(idx, hi - 1):
            found = hi
        else:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if one_word(idx, mid) else (lo, mid)
            found = hi
        assert found == KE[idx], idx


@pytest.mark.parametrize("idx", range(256))
def test_every_ziggurat_layer_decodes_like_numpy(idx):
    """Crafted words on both sides of ``ke[idx]``: the fast path's last
    ``ri`` and the slow path's first."""
    follow = 0x9E3779B97F4A7C15
    mixed = [True, False, True, True, False]
    if KE[idx] > 0:
        word = ziggurat_word(idx, KE[idx] - 1)
        assert assert_decodes_like_numpy(
            lambda: crafted(word, follow), [True]) == 1
        assert_decodes_like_numpy(lambda: crafted(word, follow), mixed)
    if KE[idx] < 1 << 53:
        word = ziggurat_word(idx, KE[idx])
        assert assert_decodes_like_numpy(
            lambda: crafted(word, follow), [True]) >= 2
        assert_decodes_like_numpy(lambda: crafted(word, follow), mixed)


def first_wedge_layer():
    return next(i for i in range(1, 256) if KE[i] < 1 << 53)


def test_slow_paths_decode_like_numpy():
    """The idx-0 tail, an accepted and a rejected wedge, and a
    rejection whose redraw leaves the fast path again."""
    top = (1 << 53) - 1
    tail = ziggurat_word(0, top)
    assert assert_decodes_like_numpy(lambda: crafted(tail, 1 << 40),
                                     [True, False]) == 3
    value, _ = decoded(crafted(tail, 1 << 40), [True])
    assert value[0] > ZIGGURAT_EXP_R
    for idx in range(1, 256):
        if KE[idx] == 1 << 53:
            continue
        # Either end of the wedge, against a uniform of 0 or almost 1:
        # an accept reads two words, a reject more.
        used = set()
        for ri in (max(KE[idx], 1), top):
            for second in (0, M64):
                word = ziggurat_word(idx, ri)
                used.add(assert_decodes_like_numpy(
                    lambda: crafted(word, second), [True]) == 2)
                assert_decodes_like_numpy(lambda: crafted(word, second),
                                          [True, False, True])
        assert used == {True, False}, idx
    # Nested: search the free state bits for a third word that is
    # itself off the fast path.
    reject = ziggurat_word(first_wedge_layer(), top)
    nested = 0
    for hi in range(1, 2000):
        third = int(crafted(reject, M64, hi=hi).bit_generator
                    .random_raw(3)[2])
        idx3 = (third >> 3) & 0xFF
        if third >> 11 >= KE[idx3]:
            assert assert_decodes_like_numpy(
                lambda: crafted(reject, M64, hi=hi), [True, False]) >= 5
            nested += 1
            if nested == 5:
                break
    assert nested == 5


def test_a_million_mixed_draws_decode_like_numpy():
    """Seeded runs of uniforms and exponentials, from a stream already
    drawn from; array calls consume exactly like scalar ones."""
    pattern = np.random.default_rng(20240601)
    runs = pattern.integers(1, 64, size=32_000)
    is_exp = np.repeat(np.arange(len(runs)) % 2 == 1, runs)[:1_000_000]
    assert len(is_exp) == 1_000_000

    def make():
        gen = np.random.Generator(np.random.PCG64(stable_seed(7, "mix")))
        gen.random(3)
        return gen

    gen, ref = make(), make()
    values, _ = decoded(gen, is_exp)
    expected = []
    edges = np.flatnonzero(np.diff(is_exp.astype(np.int8))) + 1
    for part in np.split(is_exp, edges):
        draw = ref.standard_exponential if part[0] else ref.random
        expected.extend(draw(len(part)).tolist())
    assert values == expected
    assert gen.bit_generator.state == ref.bit_generator.state


def test_leaving_a_stream_keeps_its_buffered_half_word():
    def make():
        bitgen = np.random.PCG64(5)
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = 1, 0xDEADBEEF
        bitgen.state = state
        return np.random.Generator(bitgen)

    assert_decodes_like_numpy(make, [False, True] * 50)


def exponential_paths(seed, count):
    """The ziggurat layers ``count`` ``standard_exponential()`` calls
    on ``PCG64(seed)`` start in, and the slow paths they take."""
    words = np.random.PCG64(seed).random_raw(count + 64).tolist()
    gen = np.random.Generator(np.random.PCG64(seed))

    def slow(word):
        return word >> 11 >= KE[(word >> 3) & 0xFF]

    layers, kinds = set(), set()
    k = 0
    for _ in range(count):
        gen.standard_exponential()
        after = words.index(int(gen.bit_generator.random_raw()), k + 1)
        gen.bit_generator.advance(M128)   # undo the peek
        layers.add((words[k] >> 3) & 0xFF)
        if after - k > 1:
            redraw = words[k + 2]
            if (words[k] >> 3) & 0xFF == 0:
                kinds.add("tail")
            elif after - k == 2:
                kinds.add("wedge accept")
            elif not slow(redraw):
                kinds.add("wedge reject")
            else:
                kinds.add("reject, redraw in the tail"
                          if (redraw >> 3) & 0xFF == 0
                          else "reject, redraw in a wedge")
        k = after
    return layers, kinds


def test_self_check_covers_every_layer_and_slow_path():
    layers, kinds = exponential_paths(kernel._CHECK_SEED,
                                      kernel._CHECK_DRAWS)
    assert layers == set(range(256))
    assert kinds == {"tail", "wedge accept", "wedge reject",
                     "reject, redraw in the tail",
                     "reject, redraw in a wedge"}
    assert kernel._decoder_matches_numpy()


def test_self_check_fails_on_a_wrong_table_entry(monkeypatch):
    for table in ("_ZIGGURAT_WE", "_ZIGGURAT_KE_FLOAT"):
        for idx in (0, 1, 128, 255):
            broken = getattr(kernel, table).copy()
            if table == "_ZIGGURAT_WE":
                broken[idx] *= 1.0 + 2.0 ** -40
            else:
                broken[idx] = broken[idx] // 2 if broken[idx] else 2.0 ** 52
            with monkeypatch.context() as patch:
                patch.setattr(kernel, table, broken)
                assert not kernel._decoder_matches_numpy(), (table, idx)


# ---------------------------------------------------------------------------
# The self-check: lazy, once, and a fallback that keeps every oracle
# ---------------------------------------------------------------------------

@pytest.fixture
def decoder_off(monkeypatch):
    """The self-check fails: tapes are drawn one call per draw."""
    calls = []
    per_call = kernel._draw_tape_per_call

    def counted(*args):
        calls.append(1)
        return per_call(*args)

    monkeypatch.setattr(kernel, "_decoder_matches_numpy", lambda: False)
    monkeypatch.setattr(kernel, "_DECODER_OK", None)
    monkeypatch.setattr(kernel, "_draw_tape_per_call", counted)
    yield calls
    assert calls, "the per-call fallback never ran"


@pytest.mark.parametrize("scenario", sorted(golden.GOLDEN_SHA256))
def test_golden_digests_hold_drawing_call_by_call(decoder_off, scenario):
    golden.test_golden_summary_digest(scenario)


@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_shared_tapes_hold_drawing_call_by_call(decoder_off, order):
    test_shared_tapes_match_the_scalar_oracle(order)


def test_self_check_runs_once(monkeypatch):
    checks = []

    def check():
        checks.append(1)
        return True

    monkeypatch.setattr(kernel, "_decoder_matches_numpy", check)
    monkeypatch.setattr(kernel, "_DECODER_OK", None)
    compiled = CompiledScenario(klagenfurt(), seed=42, density=2.0)
    config = compiled._variant_config(klagenfurt())
    for _ in range(2):
        sample_run(compiled.precompute, config, RngRegistry(42).streams)
    assert checks == [1]


def test_self_check_waits_for_the_first_tape():
    """Neither importing the kernel nor ``repro --version`` probes
    numpy; the first tape drawn does."""
    code = """
import contextlib, io, json
import repro.probes.kernel as kernel
seen = [kernel._DECODER_OK]
from repro.__main__ import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        main(["--version"])
    except SystemExit:
        pass
seen.append(kernel._DECODER_OK)
from repro.core.evaluation import InfrastructureEvaluation
InfrastructureEvaluation(seed=42, mean_positions_per_cell=2.0).run()
seen.append(kernel._DECODER_OK)
print(json.dumps(seen))
"""
    src = Path(kernel.__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [None, None, True]


def test_other_bit_generators_are_drawn_call_by_call(monkeypatch):
    """Raw words decode as PCG64's; a stream of another bit generator
    takes the per-call path."""
    compiled = CompiledScenario(klagenfurt(), seed=42, density=2.0)
    config = compiled._variant_config(klagenfurt())

    def mt19937(names):
        return [np.random.Generator(np.random.MT19937(stable_seed(*parts)))
                for parts in names]

    mixed = sample_run(compiled.precompute, config, mt19937)
    monkeypatch.setattr(kernel, "_DECODER_OK", False)
    per_call = sample_run(compiled.precompute, config, mt19937)
    assert_datasets_identical(per_call, mixed)


@pytest.mark.parametrize("scenario", ["klagenfurt", "skopje"])
def test_walks_that_outrun_their_blocks_redraw_them(monkeypatch, scenario):
    """Blocks a third of their size: air, handover and net walks run
    out, redraw larger, and still match the scalar path bit for bit,
    streams included."""
    init = kernel._Words.__init__
    draw = kernel._Words.draw
    redraws = []

    def small(self, gen, count):
        init(self, gen, max(count // 3, 1) if count else 0)

    def counted(self, count):
        if self.state is not None:
            redraws.append(count)
        draw(self, count)

    monkeypatch.setattr(kernel._Words, "__init__", small)
    monkeypatch.setattr(kernel._Words, "draw", counted)
    assert_streams_left_as_scalar_leaves_them(scenario, 6.0)
    assert redraws
