"""Kernel-vs-scalar equivalence for the drive-test campaign.

The measurement kernel (probes.kernel) must be *observationally
invisible*: for any scenario and seed, ``campaign.run()`` (kernel) and
``campaign.run(kernel=False)`` (the scalar reference pipeline) produce
byte-for-byte identical datasets.  These tests are the enforcement
mechanism for every precompute/vectorisation trick the kernel plays.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.compiled import CompiledScenario
from repro.probes.kernel import CampaignKernel, sample_run
from repro.scenarios import build, get, klagenfurt
from repro.sim.rng import RngRegistry


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


def test_kernel_leaves_streams_where_scalar_does():
    """After a run, every named stream sits at the same position."""
    sc_scalar = build(get("klagenfurt"), seed=42)
    sc_kernel = build(get("klagenfurt"), seed=42)
    sc_scalar.campaign(2.0).run(kernel=False)
    sc_kernel.campaign(2.0).run()
    streams = sorted(sc_scalar.rng)
    assert streams == sorted(sc_kernel.rng)
    for key in streams:
        a = sc_scalar.rng.stream(*key).random()
        b = sc_kernel.rng.stream(*key).random()
        assert a == b


# ---------------------------------------------------------------------------
# Draw tapes: the numpy identity they rest on, and their cache keys
# ---------------------------------------------------------------------------

#: Start of the ziggurat's tail region for the standard exponential:
#: draws beyond it come from the slow tail path.
ZIGGURAT_EXP_R = 7.69711747013104972


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
                           RngRegistry(seed).stream, cache)
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
        shared = sample_run(pre, config, RngRegistry(42).stream, cache)
        fresh = sample_run(pre, config, RngRegistry(42).stream, None)
        assert_datasets_identical(fresh, shared)
