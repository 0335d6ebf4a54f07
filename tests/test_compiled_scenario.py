"""Compiled scenarios, the two-tier cache, and the batched executor.

Three contracts:

* **equivalence** — ``CompiledScenario.evaluate`` (with and without a
  shared block cache) reproduces a from-scratch
  ``InfrastructureEvaluation`` summary bit for bit, across scenarios,
  seeds, and every class of sampling-layer override;
* **reuse** — a campaign-only sweep of any width performs exactly one
  scenario build and one kernel precompute, the cache serves memory
  then disk, and a corrupted disk entry is detected and rebuilt;
* **invalidation** — a build-layer edit changes the build key and
  recompiles; evaluating a spec under the wrong compiled world is
  refused.
"""

import pickle

import pytest

from repro.core.compiled import CompiledScenario
from repro.core.evaluation import InfrastructureEvaluation
from repro.fleet import (
    BatchExecutor,
    CompiledScenarioCache,
    SweepAxis,
    SweepSpec,
    run_sweep,
)
from repro.fleet.compiled import COMPILED_DIR
from repro.probes.kernel import precompute_count
from repro.scenarios import build_count, build_key, klagenfurt, skopje

SEED, DENSITY = 42, 2.0

def _sampling_overrides(spec):
    """Every class of sampling-layer override this spec supports."""
    overrides = [
        {"campaign.handover_interruption_s": 0.09,
         "campaign.max_cell_load": 0.9},
        {"campaign.peers.0.air_load": 0.31,
         "campaign.peers.0.sinr_db": 5.0},
        {"campaign.peer_site_index": 2},
        {"description": "same world, different words"},
    ]
    if spec.campaign.extra_load_anchors:
        overrides.append({"campaign.extra_load_anchors.0.1": 0.5})
    if spec.campaign.handover_prob:
        overrides.append({"campaign.handover_prob.0.1": 0.4})
    return tuple(overrides)


def _reference_summary(spec, seed=SEED, density=DENSITY):
    return InfrastructureEvaluation(
        seed=seed, mean_positions_per_cell=density, scenario=spec
    ).run().summary()


# ---------------------------------------------------------------------------
# Equivalence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("base", [klagenfurt, skopje],
                         ids=["klagenfurt", "skopje"])
@pytest.mark.parametrize("seed", [42, 7, 123])
def test_compiled_evaluate_matches_full_pipeline(base, seed):
    spec = base()
    compiled = CompiledScenario(spec, seed=seed, density=DENSITY)
    shared_blocks = {}
    for override in ({},) + _sampling_overrides(spec):
        variant = spec.with_overrides(override) if override else spec
        expected = _reference_summary(variant, seed=seed).canonical_json()
        # Fresh evaluation and block-sharing evaluation must both match.
        assert compiled.evaluate(variant).canonical_json() == expected
        assert compiled.evaluate(
            variant, block_cache=shared_blocks
        ).canonical_json() == expected


def test_compiled_scenario_survives_pickling():
    spec = klagenfurt()
    compiled = pickle.loads(pickle.dumps(
        CompiledScenario(spec, seed=SEED, density=DENSITY)))
    variant = spec.with_overrides(
        {"campaign.extra_load_anchors.0.1": 0.5})
    assert compiled.evaluate(variant).canonical_json() \
        == _reference_summary(variant).canonical_json()


def test_wrong_build_key_is_refused():
    spec = klagenfurt()
    compiled = CompiledScenario(spec, seed=SEED, density=DENSITY)
    edited = spec.with_overrides({"radio.sites.0.load": 0.9})
    with pytest.raises(ValueError, match="build key"):
        compiled.evaluate(edited)


def test_peer_site_index_guard_matches_campaign():
    spec = klagenfurt()
    compiled = CompiledScenario(spec, seed=SEED, density=DENSITY)
    bad = spec.with_overrides({"campaign.peer_site_index": 99})
    with pytest.raises(ValueError, match="peer site index 99 out of "
                                         "range"):
        compiled.evaluate(bad)


# ---------------------------------------------------------------------------
# The cache: memory tier, disk tier, corruption, invalidation
# ---------------------------------------------------------------------------

def test_memory_tier_reuses_and_disk_tier_revives(tmp_path):
    spec = klagenfurt()
    cache = CompiledScenarioCache(tmp_path / COMPILED_DIR)
    first = cache.get(spec, SEED, DENSITY)
    assert cache.stats.builds == 1 and cache.stats.stores == 1
    assert cache.get(spec, SEED, DENSITY) is first
    assert cache.stats.memory_hits == 1

    # A fresh process (modelled by a fresh cache over the same
    # directory) unpickles instead of rebuilding.
    revived = CompiledScenarioCache(tmp_path / COMPILED_DIR)
    compiled = revived.get(spec, SEED, DENSITY)
    assert revived.stats.builds == 0 and revived.stats.disk_hits == 1
    assert compiled.build_key == first.build_key
    variant = spec.with_overrides({"campaign.extra_load_anchors.0.1": 0.4})
    assert compiled.evaluate(variant).canonical_json() \
        == _reference_summary(variant).canonical_json()


def test_sampling_edit_reuses_build_layer_edit_recompiles(tmp_path):
    spec = klagenfurt()
    cache = CompiledScenarioCache(tmp_path / COMPILED_DIR)
    cache.get(spec, SEED, DENSITY)

    sampling = spec.with_overrides({"campaign.max_cell_load": 0.5})
    assert cache.get(sampling, SEED, DENSITY).build_key \
        == build_key(spec, SEED, DENSITY)
    assert cache.stats.builds == 1          # reused, not recompiled

    rebuilt = spec.with_overrides({"radio.sites.0.load": 0.9})
    assert cache.get(rebuilt, SEED, DENSITY).build_key \
        != build_key(spec, SEED, DENSITY)
    assert cache.stats.builds == 2          # build-layer edit rebuilds


@pytest.mark.parametrize("corruption", ["truncate", "flip", "garbage"],
                         ids=["truncated", "bit-flipped", "not-json"])
def test_corrupt_disk_entry_is_detected_and_rebuilt(tmp_path, corruption):
    spec = klagenfurt()
    directory = tmp_path / COMPILED_DIR
    CompiledScenarioCache(directory).get(spec, SEED, DENSITY)
    entry, = directory.rglob("*.pkl")
    raw = entry.read_bytes()
    if corruption == "truncate":
        entry.write_bytes(raw[:len(raw) // 2])
    elif corruption == "flip":
        head, _, blob = raw.partition(b"\n")
        entry.write_bytes(head + b"\n" + blob[:-1]
                          + bytes([blob[-1] ^ 0xFF]))
    else:
        entry.write_bytes(b"not a compiled scenario")

    cache = CompiledScenarioCache(directory)
    compiled = cache.get(spec, SEED, DENSITY)
    assert cache.stats.corrupt == 1 and cache.stats.builds == 1
    assert compiled.evaluate(spec).canonical_json() \
        == _reference_summary(spec).canonical_json()
    # The rebuild re-stored a good entry.
    assert CompiledScenarioCache(directory).get(
        spec, SEED, DENSITY).build_key == compiled.build_key


def test_stale_schema_disk_entry_is_a_counted_miss(tmp_path, monkeypatch):
    """An entry pickled under an older ``CompiledScenario.SCHEMA`` is
    rejected (counted as corrupt), deleted and rebuilt."""
    spec = klagenfurt()
    directory = tmp_path / COMPILED_DIR
    CompiledScenarioCache(directory).get(spec, SEED, DENSITY)
    monkeypatch.setattr(CompiledScenario, "SCHEMA",
                        CompiledScenario.SCHEMA + 1)
    cache = CompiledScenarioCache(directory)
    compiled = cache.get(spec, SEED, DENSITY)
    assert cache.stats.corrupt == 1 and cache.stats.builds == 1
    assert cache.stats.disk_hits == 0
    assert compiled.schema == CompiledScenario.SCHEMA
    # The rebuilt entry is current and serves the next process.
    revived = CompiledScenarioCache(directory)
    revived.get(spec, SEED, DENSITY)
    assert revived.stats.disk_hits == 1 and revived.stats.corrupt == 0


def test_lru_capacity_bounds_the_memory_tier(monkeypatch):
    monkeypatch.setattr("repro.fleet.compiled.MEMORY_CAPACITY", 1)
    spec = klagenfurt()
    cache = CompiledScenarioCache()
    cache.get(spec, SEED, DENSITY)
    cache.get(spec, SEED + 1, DENSITY)      # evicts the first
    with cache._lock:
        assert len(cache._memory) == 1
    cache.get(spec, SEED, DENSITY)          # no disk tier: rebuilds
    assert cache.stats.builds == 3 and cache.stats.memory_hits == 0


# ---------------------------------------------------------------------------
# The batched executor inside a sweep
# ---------------------------------------------------------------------------

def _campaign_sweep(n_variants, seeds=(42,)):
    values = tuple(0.03 + 0.001 * i for i in range(n_variants))
    return SweepSpec(
        bases=(klagenfurt(),),
        axes=(SweepAxis("campaign.handover_interruption_s", values),),
        seeds=seeds,
        density=DENSITY,
    )


def test_campaign_only_sweep_builds_exactly_once():
    sweep = _campaign_sweep(100)
    builds0, pre0 = build_count(), precompute_count()
    result = run_sweep(sweep)
    assert len(result) == 100 and result.backend == "batch"
    assert build_count() - builds0 == 1
    assert precompute_count() - pre0 == 1
    assert result.exec_stats["builds_performed"] == 1
    assert result.exec_stats["builds_reused"] == 99


def test_batch_records_are_bit_identical_to_serial():
    sweep = SweepSpec(
        bases=(klagenfurt(), skopje()),
        axes=(SweepAxis("campaign.handover_interruption_s",
                        (0.03, 0.06)),
              SweepAxis("campaign.peers.0.air_load", (0.31, 0.62)),),
        seeds=(42, 43, 44),
        density=DENSITY,
    )
    batch = run_sweep(sweep, executor="batch")
    serial = run_sweep(sweep, executor="serial")
    assert batch.backend == "batch" and serial.backend == "serial"
    assert [r.to_dict() for r in batch.records] \
        == [r.to_dict() for r in serial.records]


def test_batch_executor_map_and_disk_backed_sweep(tmp_path):
    sweep = _campaign_sweep(3)
    runs = sweep.expand()
    with BatchExecutor() as executor:
        outcome, = executor.map(runs[:1])
    assert outcome.record.run_id == runs[0].run_id

    # A cache directory wires up the compiled store: the second sweep
    # reuses the result cache, the compiled world is on disk for the
    # next cold process.
    first = run_sweep(sweep, cache=tmp_path / "cache")
    assert first.exec_stats["builds_performed"] == 1
    assert (tmp_path / "cache" / COMPILED_DIR).is_dir()
    second = run_sweep(sweep, cache=tmp_path / "cache")
    assert second.exec_stats["result_cache_hits"] == 3
    assert second.exec_stats["builds_performed"] == 0
    assert [r.to_dict() for r in second.records] \
        == [r.to_dict() for r in first.records]
