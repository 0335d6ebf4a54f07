"""Tests for deterministic RNG streams and monitors."""

import hashlib
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import repro.sim.rng as rng_module
from repro.sim import RngRegistry, SeriesMonitor
from repro.sim.rng import pcg64_many, stable_seed


# ---------------------------------------------------------------------------
# RngRegistry
# ---------------------------------------------------------------------------

def test_same_name_same_sequence():
    a = RngRegistry(seed=7).stream("channel", "C1")
    b = RngRegistry(seed=7).stream("channel", "C1")
    assert np.array_equal(a.random(16), b.random(16))


def test_different_names_differ():
    reg = RngRegistry(seed=7)
    a = reg.fresh("channel", "C1")
    b = reg.fresh("channel", "C2")
    assert not np.array_equal(a.random(16), b.random(16))


def test_different_seeds_differ():
    a = RngRegistry(seed=1).stream("x")
    b = RngRegistry(seed=2).stream("x")
    assert not np.array_equal(a.random(16), b.random(16))


def test_stream_is_cached_and_stateful():
    reg = RngRegistry(seed=3)
    s1 = reg.stream("mob")
    first = s1.random(4)
    s2 = reg.stream("mob")
    assert s1 is s2
    # continues the sequence rather than restarting
    assert not np.array_equal(first, s2.random(4))


def test_creation_order_does_not_matter():
    reg1 = RngRegistry(seed=11)
    a1 = reg1.stream("a").random(8)
    b1 = reg1.stream("b").random(8)

    reg2 = RngRegistry(seed=11)
    b2 = reg2.stream("b").random(8)
    a2 = reg2.stream("a").random(8)

    assert np.array_equal(a1, a2)
    assert np.array_equal(b1, b2)


def test_spawn_creates_independent_namespace():
    reg = RngRegistry(seed=5)
    child = reg.spawn("campaign", 0)
    assert child.seed != reg.seed
    # deterministic: same spawn path gives same child seed
    assert reg.spawn("campaign", 0).seed == child.seed


def test_empty_stream_name_rejected():
    with pytest.raises(ValueError):
        RngRegistry(seed=0).stream()


def test_non_int_seed_rejected():
    with pytest.raises(TypeError):
        RngRegistry(seed="42")  # type: ignore[arg-type]


def test_stable_seed_is_stable():
    assert stable_seed("a", 1, 2.5) == stable_seed("a", 1, 2.5)
    assert stable_seed("a") != stable_seed("b")


@given(st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=4))
def test_stable_seed_in_64bit_range(parts):
    s = stable_seed(*parts)
    assert 0 <= s < 2 ** 64


def test_stable_seed_no_separator_collision():
    # "ab"+"c" must differ from "a"+"bc"
    assert stable_seed("ab", "c") != stable_seed("a", "bc")


# ---------------------------------------------------------------------------
# Bulk seeding
# ---------------------------------------------------------------------------

EDGE_SEEDS = [0, 1, 2, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]


def test_bulk_state_words_are_seed_sequences():
    """Every row is ``SeedSequence(seed).generate_state(4, uint64)``:
    the edge seeds and 10k ``stable_seed`` values."""
    seeds = EDGE_SEEDS + [stable_seed("bulk", i) for i in range(10_000)]
    words = rng_module._state_words(seeds)
    assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
    for seed, row in zip(seeds, words):
        want = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        assert np.array_equal(row, want), seed


def test_bulk_seeded_generators_are_pcg64s():
    seeds = EDGE_SEEDS + [stable_seed("gen", i) for i in range(200)]
    for seed, made in zip(seeds, pcg64_many(seeds)):
        ref = np.random.PCG64(seed)
        assert made.state == ref.state, seed
        assert np.random.Generator(made).normal() \
            == np.random.Generator(ref).normal()
    assert pcg64_many([]) == []


def test_a_bulk_seeded_generator_pickles():
    gen = np.random.Generator(pcg64_many([stable_seed("pickle")])[0])
    gen.random(3)
    copy = pickle.loads(pickle.dumps(gen))
    assert np.array_equal(copy.random(8), gen.random(8))


def test_registry_streams_equal_stream_calls():
    names = [("campaign.air", "C1"), ("campaign.net", "C1"),
             ("campaign.air", "C1"), ("x", 2)]
    bulk, single = RngRegistry(seed=9), RngRegistry(seed=9)
    kept = bulk.stream("campaign.net", "C1")
    kept.random(5)
    made = bulk.streams(names)
    # cached streams are handed back where they stand; repeats alias
    assert made[1] is kept and made[0] is made[2]
    single.stream("campaign.net", "C1").random(5)
    for gen, name in zip(made, names):
        assert gen is bulk.stream(*name)
        assert gen.bit_generator.state \
            == single.stream(*name).bit_generator.state
    assert list(bulk) == list(single)
    with pytest.raises(ValueError):
        bulk.streams([()])


def test_a_failed_bulk_self_check_seeds_one_by_one(monkeypatch):
    """Should the self-check fail, bulk calls build ``PCG64(seed)``
    each, and the golden digests still hold."""
    from test_golden_digests import GOLDEN_SHA256
    from repro.core.evaluation import InfrastructureEvaluation

    state_words = rng_module._state_words
    monkeypatch.setattr(rng_module, "_BULK_OK", None)
    monkeypatch.setattr(rng_module, "_state_words",
                        lambda seeds: state_words(seeds) ^ np.uint64(1))
    seeds = [stable_seed("fallback", i) for i in range(5)]
    for seed, made in zip(seeds, pcg64_many(seeds)):
        assert made.state == np.random.PCG64(seed).state
    assert rng_module._BULK_OK is False
    for scenario, digest in GOLDEN_SHA256.items():
        summary = InfrastructureEvaluation(
            seed=42, scenario=scenario).run().summary()
        assert hashlib.sha256(summary.canonical_json().encode(
            "utf-8")).hexdigest() == digest


def test_bulk_self_check_waits_for_the_first_bulk_call():
    """Neither importing the module nor ``repro --version`` probes
    numpy's seeding; the first bulk call does, once."""
    code = """
import contextlib, io, json
import repro.sim.rng as rng
seen = [rng._BULK_OK]
from repro.__main__ import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        main(["--version"])
    except SystemExit:
        pass
seen.append(rng._BULK_OK)
rng.RngRegistry(1).streams([("a",), ("b",)])
seen.append(rng._BULK_OK)
print(json.dumps(seen))
"""
    src = Path(rng_module.__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [None, None, True]


# ---------------------------------------------------------------------------
# SeriesMonitor
# ---------------------------------------------------------------------------

def test_series_monitor_summary():
    mon = SeriesMonitor("rtt")
    for t, v in enumerate([1.0, 2.0, 3.0, 4.0]):
        mon.record(float(t), v)
    s = mon.summary()
    assert s.count == 4
    assert s.mean == pytest.approx(2.5)
    assert s.minimum == 1.0 and s.maximum == 4.0
    assert s.std == pytest.approx(np.std([1, 2, 3, 4], ddof=1))


def test_series_monitor_empty_summary_is_nan():
    s = SeriesMonitor().summary()
    assert s.count == 0
    assert math.isnan(s.mean)


def test_series_monitor_growth_beyond_initial_capacity():
    mon = SeriesMonitor()
    n = 10_000
    mon.extend(np.arange(n, dtype=float), np.arange(n, dtype=float))
    assert mon.count == n
    assert mon.summary().maximum == n - 1


def test_series_monitor_extend_shape_mismatch():
    mon = SeriesMonitor()
    with pytest.raises(ValueError):
        mon.extend(np.zeros(3), np.zeros(4))


def test_series_monitor_views_are_readonly():
    mon = SeriesMonitor()
    mon.record(0.0, 1.0)
    with pytest.raises(ValueError):
        mon.values[0] = 99.0


def test_fraction_below():
    mon = SeriesMonitor()
    mon.extend(np.zeros(10), np.arange(10, dtype=float))
    assert mon.fraction_below(5.0) == pytest.approx(0.5)
    assert mon.fraction_below(0.0) == 0.0
    assert mon.fraction_below(100.0) == 1.0


def test_fraction_below_empty_raises():
    with pytest.raises(ValueError):
        SeriesMonitor().fraction_below(1.0)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=200))
def test_series_monitor_matches_numpy(values):
    mon = SeriesMonitor()
    for i, v in enumerate(values):
        mon.record(float(i), v)
    s = mon.summary()
    assert s.mean == pytest.approx(np.mean(values), rel=1e-9, abs=1e-9)
    assert s.minimum == min(values)
    assert s.maximum == max(values)
