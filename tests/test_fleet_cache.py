"""Tests for the content-addressed result cache and resumable fleets:
digest stability, hit/miss/corruption semantics, the zero-recompute
guarantee, and FleetStore.resume."""

import json

import pytest

from repro.core.compiled import CompiledScenario
from repro.core.evaluation import InfrastructureEvaluation
from repro.fleet import (
    CachingExecutor,
    FleetStore,
    ResultCache,
    SerialExecutor,
    SweepAxis,
    SweepSpec,
    run_key,
    run_one,
    run_sweep,
)
from repro.fleet.cache import canonical_dumps
from repro.fleet.sweep import RunRecord
from repro.scenarios import klagenfurt, skopje

AXIS = "campaign.handover_interruption_s"
DENSITY = 2.0


def small_sweep(**kwargs) -> SweepSpec:
    defaults = dict(
        bases=(klagenfurt(),),
        axes=(SweepAxis(AXIS, (30e-3, 60e-3)),),
        seeds=(42,),
        density=DENSITY,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


@pytest.fixture
def eval_counter(monkeypatch):
    """Counts every run evaluation this test triggers — a full
    InfrastructureEvaluation or a compiled-scenario sampling phase
    (the batch backend's unit of work)."""
    calls = []
    real_run = InfrastructureEvaluation.run
    real_evaluate = CompiledScenario.evaluate

    def counting_run(self, *args, **kwargs):
        calls.append(1)
        return real_run(self, *args, **kwargs)

    def counting_evaluate(self, *args, **kwargs):
        calls.append(1)
        return real_evaluate(self, *args, **kwargs)

    monkeypatch.setattr(InfrastructureEvaluation, "run", counting_run)
    monkeypatch.setattr(CompiledScenario, "evaluate", counting_evaluate)
    return calls


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------

def test_run_key_is_stable_and_input_sensitive():
    spec = klagenfurt()
    key = run_key(spec, 42, DENSITY)
    assert len(key) == 64 and int(key, 16) >= 0
    # stable across calls and across a JSON round-trip of the spec
    assert run_key(spec, 42, DENSITY) == key
    assert run_key(type(spec).from_json(spec.to_json()), 42, DENSITY) == key
    # every component of (spec, seed, density) is load-bearing
    assert run_key(spec, 43, DENSITY) != key
    assert run_key(spec, 42, DENSITY + 1) != key
    assert run_key(spec.with_overrides({AXIS: 31e-3}), 42, DENSITY) != key
    assert run_key(skopje(), 42, DENSITY) != key


def test_canonical_dumps_ignores_key_order():
    assert canonical_dumps({"b": 1, "a": [1.5, {"y": 2, "x": 3}]}) == \
        canonical_dumps({"a": [1.5, {"x": 3, "y": 2}], "b": 1})


def test_summary_canonical_json_is_digest_stable():
    record = run_one(klagenfurt().to_json(), 42, DENSITY)
    text = record.summary.canonical_json()
    rebuilt = type(record.summary).from_dict(json.loads(text))
    assert rebuilt.canonical_json() == text


# ---------------------------------------------------------------------------
# ResultCache store semantics
# ---------------------------------------------------------------------------

def test_cache_put_get_round_trip(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    record = run_one(klagenfurt().to_json(), 42, DENSITY)
    key = run_key(klagenfurt(), 42, DENSITY)
    assert cache.get(key) is None
    assert key not in cache
    cache.put(key, record)
    assert key in cache
    assert len(cache) == 1
    loaded = cache.get(key)
    assert loaded.to_dict() == record.to_dict()
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.stores == 1


def test_corrupted_entry_is_detected_and_dropped(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    record = run_one(klagenfurt().to_json(), 42, DENSITY)
    key = run_key(klagenfurt(), 42, DENSITY)
    path = cache.put(key, record)

    # Flip a value inside the stored record: the payload digest no
    # longer matches, so the entry must read as a miss and be removed.
    entry = json.loads(path.read_text())
    entry["record"]["seed"] = 99
    path.write_text(json.dumps(entry))
    assert cache.get(key) is None
    assert cache.stats.corrupt == 1
    assert not path.exists()

    # Unparseable garbage is handled the same way.
    cache.put(key, record)
    cache.path_for(key).write_text("{not json")
    assert cache.get(key) is None
    assert cache.stats.corrupt == 2


# ---------------------------------------------------------------------------
# CachingExecutor: the zero-recompute guarantee
# ---------------------------------------------------------------------------

def test_warm_sweep_runs_zero_evaluations(tmp_path, eval_counter):
    sweep = small_sweep(seeds=(42, 43))
    cache = tmp_path / "cache"
    cold = run_sweep(sweep, cache=cache)
    assert len(eval_counter) == sweep.run_count
    assert cold.cached_count == 0

    del eval_counter[:]
    warm = run_sweep(sweep, cache=cache)
    assert eval_counter == []                 # nothing recomputed
    assert warm.cached_count == len(warm) == sweep.run_count
    assert [r.to_dict() for r in warm.records] == \
        [r.to_dict() for r in cold.records]   # bit-identical


def test_corrupt_entry_triggers_exactly_one_recompute(tmp_path,
                                                      eval_counter):
    sweep = small_sweep(seeds=(42, 43))
    cache = ResultCache(tmp_path / "cache")
    cold = run_sweep(sweep, cache=cache)
    victim = cache.path_for(sweep.expand()[1].spec_key())
    victim.write_text("truncated garba")

    del eval_counter[:]
    warm = run_sweep(sweep, cache=cache)
    assert len(eval_counter) == 1             # only the corrupt one
    assert warm.cached_count == len(warm) - 1
    assert [r.to_dict() for r in warm.records] == \
        [r.to_dict() for r in cold.records]


def test_cache_serves_across_sweeps_with_different_labels(tmp_path,
                                                          eval_counter):
    cache = tmp_path / "cache"
    run_sweep(small_sweep(), cache=cache)

    # Same (spec, seed, density) points reached through a renamed axis:
    # different run ids and variant labels, same content addresses.
    relabelled = small_sweep(
        axes=(SweepAxis(AXIS, (30e-3, 60e-3), name="handover"),))
    del eval_counter[:]
    result = run_sweep(relabelled, cache=cache)
    assert eval_counter == []
    assert result.cached_count == len(result)
    assert [r.axis_value("handover") for r in result.records] == \
        [30e-3, 60e-3]                        # labels follow the sweep


def test_caching_executor_map_hits_and_stores(tmp_path, eval_counter):
    run = small_sweep().expand()[0]
    with CachingExecutor(SerialExecutor(), tmp_path / "cache") as executor:
        cold, = executor.map([run])
        warm, = executor.map([run])
    assert not cold.cached and warm.cached
    assert warm.wall_s == 0.0
    assert warm.record.to_dict() == cold.record.to_dict()
    assert len(eval_counter) == 1


# ---------------------------------------------------------------------------
# Resumable fleets
# ---------------------------------------------------------------------------

def test_resume_runs_only_the_missing_records(tmp_path, eval_counter):
    sweep = small_sweep(seeds=(42, 43))
    out = tmp_path / "fleet"
    complete = run_sweep(sweep, out=out)
    store = FleetStore(out)

    victims = [complete.records[1].run_id, complete.records[2].run_id]
    for run_id in victims:
        (out / "runs" / f"{run_id}.json").unlink()
    assert {run.run_id for run in store.missing_runs()} == set(victims)

    del eval_counter[:]
    resumed = store.resume()
    assert len(eval_counter) == 2             # only the deleted pair
    assert [r.to_dict() for r in resumed.records] == \
        [r.to_dict() for r in complete.records]
    assert resumed.cached_count == len(resumed) - 2
    # the directory is whole again
    assert store.missing_runs() == ()
    assert store.read_manifest()["complete"] is True


def test_resume_parses_each_record_once(tmp_path, monkeypatch):
    """A resume reads every record file on disk once: the reused
    records are the ones it checked, not a second read of them."""
    sweep = small_sweep(seeds=(42, 43))
    out = tmp_path / "fleet"
    complete = run_sweep(sweep, out=out)
    (out / "runs" / f"{complete.records[1].run_id}.json").unlink()
    parses = []
    from_json = RunRecord.from_json.__func__

    def counting_from_json(cls, text):
        parses.append(1)
        return from_json(cls, text)
    monkeypatch.setattr(RunRecord, "from_json",
                        classmethod(counting_from_json))
    resumed = FleetStore(out).resume()
    assert len(parses) == len(complete) - 1
    assert resumed.cached_count == len(complete) - 1
    assert [r.to_dict() for r in resumed.records] == \
        [r.to_dict() for r in complete.records]


def test_interrupted_sweep_leaves_a_resumable_directory(tmp_path):
    """Kill the executor after the first record: begin() + streamed
    writes must leave enough on disk for resume() to finish the job."""
    sweep = small_sweep(seeds=(42, 43))
    out = tmp_path / "fleet"

    class Boom(RuntimeError):
        pass

    class ExplodingExecutor(SerialExecutor):
        def map(self, runs):
            yield from super().map(runs[:1])
            raise Boom("simulated crash mid-sweep")

    with pytest.raises(Boom):
        run_sweep(sweep, executor=ExplodingExecutor(), out=out)

    store = FleetStore(out)
    assert store.read_manifest()["complete"] is False
    assert len(store.missing_runs()) == sweep.run_count - 1

    resumed = store.resume()
    assert len(resumed) == sweep.run_count
    assert resumed.cached_count == 1          # the survivor was reused
    assert [r.to_dict() for r in resumed.records] == \
        [r.to_dict() for r in run_sweep(sweep).records]


def test_resume_on_missing_manifest_is_clean_error(tmp_path):
    with pytest.raises(FileNotFoundError, match="no fleet manifest"):
        FleetStore(tmp_path / "nowhere").resume()


def test_future_manifest_schema_is_rejected(tmp_path):
    out = tmp_path / "fleet"
    run_sweep(small_sweep(), out=out)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["schema"] = 99
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="schema 99 is newer"):
        FleetStore(out).resume()


def test_v1_manifest_still_loads(tmp_path):
    out = tmp_path / "fleet"
    result = run_sweep(small_sweep(), out=out)
    manifest = json.loads((out / "manifest.json").read_text())
    for key in ("schema", "backend", "complete"):
        del manifest[key]
    for entry in manifest["runs"]:
        del entry["cached"]
    (out / "manifest.json").write_text(json.dumps(manifest))
    loaded = FleetStore(out).load()
    assert [r.to_dict() for r in loaded.records] == \
        [r.to_dict() for r in result.records]
    assert loaded.backend == "serial"
    assert loaded.cached_count == 0


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_cache_second_invocation_is_all_cached(tmp_path, capsys):
    from repro.__main__ import main

    args = ["sweep", "--scenario", "klagenfurt",
            "--set", f"{AXIS}=0.03,0.06", "--seeds", "42",
            "--density", "2", "--cache", str(tmp_path / "cache")]
    assert main(args) == 0
    cold = capsys.readouterr().out
    assert "records reused" not in cold
    assert main(args) == 0
    warm = capsys.readouterr().out
    assert "cache/resume: 2/2 records reused without recompute" in warm


def test_cli_resume_finishes_truncated_fleet(tmp_path, capsys):
    from repro.__main__ import main

    out = tmp_path / "fleet"
    assert main(["sweep", "--scenario", "klagenfurt",
                 "--set", f"{AXIS}=0.03,0.06", "--seeds", "42",
                 "--density", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    victim = next(iter((out / "runs").glob("*.json")))
    victim.unlink()

    assert main(["sweep", "--resume", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "re-ran 1 missing runs, reused 1" in stdout
    assert "cache/resume: 1/2 records reused without recompute" in stdout
    assert victim.exists()


def test_cli_resume_without_out_is_clean_error(capsys):
    from repro.__main__ import main

    assert main(["sweep", "--resume"]) == 2
    assert "--resume needs --out" in capsys.readouterr().err
