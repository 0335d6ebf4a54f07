"""Tests for content-verified run identity and cross-fleet comparison:
spec_key stamping, the stale-record resume fix, v2 (digest-less)
records (they load and compare but answer no run), cache staging hardening, FleetResult validation, and
the compare report + CLI gates."""

import json
import shutil
import threading

import pytest

from repro.core.compiled import CompiledScenario
from repro.core.evaluation import InfrastructureEvaluation
from repro.fleet import (
    SCHEMA_VERSION,
    FleetResult,
    FleetStore,
    RecordSet,
    ResultCache,
    RunRecord,
    SweepAxis,
    SweepSpec,
    compare_paths,
    compare_record_sets,
    comparison_summary,
    parse_fail_on,
    record_matches_spec,
    run_key,
    run_sweep,
)

from repro.scenarios import klagenfurt

AXIS = "campaign.handover_interruption_s"
DENSITY = 2.0


def small_sweep(values=(30e-3, 60e-3), seeds=(42,), **kwargs) -> SweepSpec:
    defaults = dict(
        bases=(klagenfurt(),),
        axes=(SweepAxis(AXIS, tuple(values)),),
        seeds=tuple(seeds),
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


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    """One result cache shared by the module's fleets, so the variants
    they have in common are computed exactly once."""
    return tmp_path_factory.mktemp("shared") / "cache"


@pytest.fixture(scope="module")
def fleet_a(tmp_path_factory, shared_cache):
    """Baseline fleet: axis values (0.03, 0.06), one seed."""
    out = tmp_path_factory.mktemp("fleet-a") / "a"
    return out, run_sweep(small_sweep(), cache=shared_cache, out=out)


@pytest.fixture(scope="module")
def fleet_b(tmp_path_factory, shared_cache):
    """Drifted-grid fleet: one axis value overridden (0.06 -> 0.09)."""
    out = tmp_path_factory.mktemp("fleet-b") / "b"
    return out, run_sweep(small_sweep(values=(30e-3, 90e-3)),
                          cache=shared_cache, out=out)


def downgrade_to_v2(directory) -> None:
    """Strip a fleet directory back to manifest schema v2: no
    spec_key anywhere, exactly what a pre-v3 writer produced."""
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["schema"] = 2
    for entry in manifest["runs"]:
        entry.pop("spec_key", None)
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    for run_file in (directory / "runs").glob("*.json"):
        payload = json.loads(run_file.read_text())
        payload.pop("spec_key", None)
        run_file.write_text(json.dumps(payload, indent=2) + "\n")


def drifted_copy(records, scale: float) -> tuple:
    """Records with mobile mean scaled by ``scale`` but identities kept
    — what the same fleet looks like after an implementation change."""
    drifted = []
    for record in records:
        data = record.to_dict()
        data["summary"]["gap"]["mobile_mean_s"] *= scale
        drifted.append(RunRecord.from_dict(data))
    return tuple(drifted)


# ---------------------------------------------------------------------------
# spec_key stamping
# ---------------------------------------------------------------------------

def test_records_are_stamped_with_content_digest(fleet_a):
    out, result = fleet_a
    for run, record in zip(result.sweep.expand(), result.records):
        assert record.spec_key == run.spec_key() == \
            run_key(run.scenario, run.seed, run.density)
        assert record_matches_spec(record, run)
    # the digest is persisted in both the run files and the manifest
    run_file = json.loads(
        (out / "runs" / f"{result.records[0].run_id}.json").read_text())
    assert run_file["spec_key"] == result.records[0].spec_key
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schema"] == SCHEMA_VERSION == 3
    assert [e["spec_key"] for e in manifest["runs"]] == \
        [r.spec_key for r in result.records]


def test_cache_hits_stamp_digestless_records(tmp_path, fleet_a,
                                             eval_counter):
    """A cache entry whose record does not carry the key it is stored
    under is a corrupt miss — a digest-less entry as much as one from
    another run — so the run is recomputed and the entry replaced."""
    _, result = fleet_a
    run, other = result.sweep.expand()
    cache = ResultCache(tmp_path / "cache")
    legacy = RunRecord.from_dict(
        {k: v for k, v in result.records[0].to_dict().items()
         if k != "spec_key"})
    assert not legacy.spec_key
    cache.put(run.spec_key(), legacy)
    cache.put(other.spec_key(), result.records[0])
    assert cache.get(run.spec_key()) is None
    assert cache.get(other.spec_key()) is None
    assert cache.stats.corrupt == 2 and len(cache) == 0

    cache.put(run.spec_key(), legacy)
    served = run_sweep(small_sweep(values=(30e-3,)), cache=cache)
    assert served.cached_count == 0 and len(eval_counter) == 1
    assert served.records[0].to_dict() == result.records[0].to_dict()
    assert cache.get(run.spec_key()).to_dict() == \
        result.records[0].to_dict()


# ---------------------------------------------------------------------------
# The stale-record resume bug
# ---------------------------------------------------------------------------

def test_resume_recomputes_runs_invalidated_by_spec_edit(
        tmp_path, fleet_a, eval_counter):
    """Editing an axis value in manifest.json and resuming must re-run
    exactly the affected runs — run_id alone (positional, unchanged by
    the edit) used to let the stale record through silently."""
    out, result = fleet_a
    fleet = tmp_path / "fleet"
    shutil.copytree(out, fleet)
    store = FleetStore(fleet)

    manifest = json.loads(store.manifest_path.read_text())
    manifest["sweep"]["axes"][0]["values"] = [30e-3, 90e-3]
    store.manifest_path.write_text(json.dumps(manifest))

    missing = store.missing_runs()
    assert [r.run_id for r in missing] == ["klagenfurt-v001-s42"]
    assert missing[0].scenario.campaign.handover_interruption_s == 90e-3

    resumed = store.resume()
    assert len(eval_counter) == 1             # only the edited variant
    assert resumed.cached_count == len(resumed) - 1
    by_value = {r.axis_value(AXIS): r for r in resumed.records}
    assert sorted(by_value) == [30e-3, 90e-3]
    # the untouched variant was reused bit-for-bit, the edited one is
    # genuinely recomputed under the new spec
    assert by_value[30e-3].to_dict() == result.records[0].to_dict()
    assert by_value[90e-3].spec_key == missing[0].spec_key()
    assert store.missing_runs() == ()
    assert store.read_manifest()["complete"] is True


def test_v2_fleet_round_trips_and_resume_falls_back(
        tmp_path, fleet_a, eval_counter):
    """Digest-less (v2) fleets still load and round-trip, but their
    records answer no run: resume recomputes every one of them."""
    out, result = fleet_a
    fleet = tmp_path / "fleet"
    shutil.copytree(out, fleet)
    downgrade_to_v2(fleet)
    store = FleetStore(fleet)

    # round-trip: the new loader reads v2 records (no spec_key) and a
    # reloaded record serializes back to its original v2 payload
    loaded = FleetStore(fleet).load()
    assert [r.spec_key for r in loaded.records] == ["", ""]
    first = (fleet / "runs" / f"{loaded.records[0].run_id}.json")
    assert loaded.records[0].to_dict() == json.loads(first.read_text())
    assert [r.summary.to_dict() for r in loaded.records] == \
        [r.summary.to_dict() for r in result.records]

    # a digest-less record cannot show which spec it was computed
    # from, so it satisfies no run of the expansion
    runs = result.sweep.expand()
    assert not any(record_matches_spec(record, run)
                   for record, run in zip(loaded.records, runs))
    assert [r.run_id for r in store.missing_runs()] == \
        [r.run_id for r in runs]
    resumed = store.resume()
    assert len(eval_counter) == len(runs)
    assert resumed.cached_count == 0
    # the recomputed records are the stamped v3 ones, bit for bit
    assert [r.to_dict() for r in resumed.records] == \
        [r.to_dict() for r in result.records]
    assert store.read_manifest()["schema"] == 3
    assert store.missing_runs() == ()


# ---------------------------------------------------------------------------
# FleetResult validation (silent zip truncation)
# ---------------------------------------------------------------------------

def test_fleet_result_rejects_mismatched_metadata_lengths(fleet_a):
    _, result = fleet_a
    with pytest.raises(ValueError, match="run_wall_s has 1 entries"):
        FleetResult(sweep=result.sweep, records=result.records,
                    run_wall_s=(0.5,))
    with pytest.raises(ValueError, match="cached has 1 entries"):
        FleetResult(sweep=result.sweep, records=result.records,
                    cached=(True,))
    # empty metadata means "unknown" and stays allowed
    bare = FleetResult(sweep=result.sweep, records=result.records)
    assert bare.run_wall_s == () and bare.cached == ()


# ---------------------------------------------------------------------------
# Cache staging hardening
# ---------------------------------------------------------------------------

def test_concurrent_puts_on_one_key_leave_a_valid_entry(
        tmp_path, fleet_a):
    _, result = fleet_a
    cache = ResultCache(tmp_path / "cache")
    record = result.records[0]
    key = record.spec_key
    errors = []

    def hammer():
        try:
            for _ in range(10):
                cache.put(key, record)
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    loaded = cache.get(key)
    assert loaded is not None
    assert loaded.to_dict() == record.to_dict()
    assert len(cache) == 1
    # every writer staged under its own name; nothing left behind
    assert list(cache.path_for(key).parent.glob("*.tmp")) == []


# ---------------------------------------------------------------------------
# Cross-fleet comparison
# ---------------------------------------------------------------------------

def test_self_comparison_is_all_zero_deltas(fleet_a):
    out, result = fleet_a
    comparison = compare_paths([out, out])
    assert comparison.baseline != comparison.candidates[0]  # #2 suffix
    assert comparison.added == () and comparison.removed == ()
    assert len(comparison.deltas) == result.sweep.variant_count
    for delta in comparison.deltas:
        assert delta.identical_runs == len(delta.common_seeds) == 1
        for metric in delta.metrics:
            assert metric.delta == 0.0 and metric.pct == 0.0
    assert comparison.failures([("mobile_mean_ms", 0.0)]) == ()


def test_grid_drift_reports_added_and_removed_variants(fleet_a, fleet_b):
    (out_a, _), (out_b, _) = fleet_a, fleet_b
    comparison = compare_paths([out_a, out_b])
    assert len(comparison.deltas) == 1        # the shared 0.03 variant
    assert comparison.deltas[0].identical_runs == 1
    [(fleet, added_key)] = comparison.added
    assert fleet == "b" and dict(added_key)[AXIS] == 90e-3
    [(_, removed_key)] = comparison.removed
    assert dict(removed_key)[AXIS] == 60e-3
    # drifted grids fail any gate, even one the deltas satisfy
    failures = comparison.failures([("mobile_mean_ms", 50.0)])
    assert len(failures) == 2
    assert any("not in baseline" in message for message in failures)


def test_metric_drift_trips_only_the_moved_metric(fleet_a):
    _, result = fleet_a
    baseline = RecordSet("before", result.records)
    candidate = RecordSet("after", drifted_copy(result.records, 1.10))
    comparison = compare_record_sets(baseline, [candidate])
    assert comparison.added == () and comparison.removed == ()
    for delta in comparison.deltas:
        by_name = {m.metric: m for m in delta.metrics}
        assert by_name["mobile_mean_ms"].pct == pytest.approx(10.0)
        assert by_name["detour_km"].delta == 0.0
    assert comparison.failures([("mobile_mean_ms", 5.0)]) != ()
    assert comparison.failures([("mobile_mean_ms", 15.0)]) == ()
    assert comparison.failures([("detour_km", 0.0)]) == ()


def test_relabelled_axis_aligns_by_content(fleet_a):
    """A renamed axis changes every variant key; content identity must
    pair the variants anyway instead of reporting grid drift."""
    _, result = fleet_a
    renamed = []
    for record in result.records:
        data = record.to_dict()
        data["variant"] = [["handover", value]
                           for _, value in data["variant"]]
        renamed.append(RunRecord.from_dict(data))
    comparison = compare_record_sets(
        RecordSet("orig", result.records),
        [RecordSet("renamed", tuple(renamed))])
    assert comparison.added == () and comparison.removed == ()
    assert all(d.renamed for d in comparison.deltas)
    assert all(m.delta == 0.0 for d in comparison.deltas
               for m in d.metrics)
    assert "[= scenario=klagenfurt" in comparison_summary(comparison)


def test_comparison_between_v2_and_v3_fleets_aligns(tmp_path, fleet_a):
    """A digest-less fleet and a stamped one of the same campaign pair
    by grid coordinates, but no digest-less pair counts as identical
    inputs."""
    out, result = fleet_a
    legacy = tmp_path / "legacy"
    shutil.copytree(out, legacy)
    downgrade_to_v2(legacy)
    comparison = compare_paths([out, legacy])
    assert comparison.added == () and comparison.removed == ()
    assert comparison.paired_runs == len(result.records)
    assert comparison.identical_runs == 0
    assert all(m.delta == 0.0 for d in comparison.deltas
               for m in d.metrics)


def test_density_separates_same_seed_records(fleet_a):
    """A shared cache can hold the same (scenario, seed) at two
    sampling densities; they are different variants, not a silent
    seed-dict collision."""
    _, result = fleet_a
    other_density = []
    for record in result.records:
        data = record.to_dict()
        data["density"] = 6.0
        data["spec_key"] = "f" * 64
        other_density.append(RunRecord.from_dict(data))
    mixed = RecordSet("mixed", result.records + tuple(other_density))
    variants = mixed.variants()
    assert len(variants) == 2 * result.sweep.variant_count
    assert all(len(records) == 1 for records in variants.values())
    densities = {dict(key)["density"] for key in variants}
    assert densities == {DENSITY, 6.0}


def test_interrupted_fleet_contributes_streamed_records(
        tmp_path, fleet_a):
    """A fleet killed mid-sweep (skeleton manifest, complete: false)
    loads the records that reached runs/, not the manifest's empty
    run list."""
    out, result = fleet_a
    fleet = tmp_path / "interrupted"
    shutil.copytree(out, fleet)
    manifest = json.loads((fleet / "manifest.json").read_text())
    manifest["complete"] = False
    manifest["runs"] = []
    (fleet / "manifest.json").write_text(json.dumps(manifest))
    (fleet / "runs" / f"{result.records[1].run_id}.json").unlink()

    partial = RecordSet.from_path(fleet)
    assert len(partial) == 1
    comparison = compare_paths([out, fleet])
    assert len(comparison.deltas) == 1
    assert comparison.added == ()
    assert len(comparison.removed) == 1       # the run that never landed


def test_comparison_loads_result_caches(shared_cache, fleet_a, fleet_b):
    """A content-addressed cache is a record set too: it holds the
    union of every sweep that filled it."""
    (out_a, _), _ = fleet_a, fleet_b
    records = RecordSet.from_path(shared_cache)
    assert len(records) == 3                  # 0.03, 0.06, 0.09
    comparison = compare_paths([shared_cache, out_a])
    assert comparison.removed != ()           # 0.09 has no counterpart
    assert comparison.added == ()


def test_comparison_export_round_trips(tmp_path, fleet_a, fleet_b):
    (out_a, _), (out_b, _) = fleet_a, fleet_b
    comparison = compare_paths([out_a, out_b])
    parsed = json.loads(comparison.to_json())
    assert parsed["baseline"] == "a"
    assert len(parsed["deltas"][0]["metrics"]) == 4
    assert [AXIS, 90e-3] in parsed["added"][0]["variant"]

    csv_path = comparison.to_csv(tmp_path / "deltas.csv")
    lines = (tmp_path / "deltas.csv").read_text().splitlines()
    assert lines[0].startswith("fleet,status,variant,metric")
    statuses = {line.split(",")[1] for line in lines[1:]}
    assert statuses == {"common", "added", "removed"}
    assert csv_path == str(tmp_path / "deltas.csv")


def test_compare_paths_baseline_selection_and_errors(
        tmp_path, fleet_a, fleet_b):
    (out_a, _), (out_b, _) = fleet_a, fleet_b
    flipped = compare_paths([out_a, out_b], baseline=str(out_b))
    assert flipped.removed and dict(flipped.removed[0][1])[AXIS] == 90e-3
    with pytest.raises(ValueError, match="at least two"):
        compare_paths([out_a])
    with pytest.raises(ValueError, match="is not among"):
        compare_paths([out_a, out_b], baseline="nonsense")
    with pytest.raises(FileNotFoundError, match="neither a fleet"):
        compare_paths([out_a, tmp_path / "empty"])


def test_parse_fail_on_validates_gates():
    assert parse_fail_on("mobile_mean_ms:2.5") == ("mobile_mean_ms", 2.5)
    with pytest.raises(ValueError, match="METRIC:PCT"):
        parse_fail_on("no_such_metric:2")
    with pytest.raises(ValueError, match="METRIC:PCT"):
        parse_fail_on("mobile_mean_ms")
    with pytest.raises(ValueError, match="must be a number"):
        parse_fail_on("mobile_mean_ms:tight")
    with pytest.raises(ValueError, match=">= 0"):
        parse_fail_on("mobile_mean_ms:-1")


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_compare_self_passes_tight_gates(fleet_a, capsys):
    from repro.__main__ import main

    out, _ = fleet_a
    assert main(["compare", str(out), str(out),
                 "--fail-on", "mobile_mean_ms:0.01",
                 "--fail-on", "exceedance_percent:0.01"]) == 0
    captured = capsys.readouterr()
    assert "Fleet comparison" in captured.out
    assert "all gates passed" in captured.err


def test_cli_compare_drifted_grid_fails_gate(fleet_a, fleet_b,
                                             tmp_path, capsys):
    from repro.__main__ import main

    (out_a, _), (out_b, _) = fleet_a, fleet_b
    csv_path = tmp_path / "deltas.csv"
    assert main(["compare", str(out_a), str(out_b),
                 "--fail-on", "mobile_mean_ms:0.01",
                 "--csv", str(csv_path)]) == 1
    captured = capsys.readouterr()
    assert "not in baseline" in captured.err
    assert "FAIL" in captured.err
    assert csv_path.exists()


def test_cli_compare_json_output(fleet_a, capsys):
    from repro.__main__ import main

    out, _ = fleet_a
    assert main(["compare", str(out), str(out), "--json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["added"] == [] and parsed["removed"] == []


def test_cli_compare_usage_errors(fleet_a, tmp_path, capsys):
    from repro.__main__ import main

    out, _ = fleet_a
    assert main(["compare", str(out)]) == 2
    assert "at least two" in capsys.readouterr().err
    assert main(["compare", str(out), str(tmp_path / "missing")]) == 2
    assert "neither a fleet" in capsys.readouterr().err
    assert main(["compare", str(out), str(out),
                 "--fail-on", "bogus:1"]) == 2
    assert "METRIC:PCT" in capsys.readouterr().err


def test_cli_non_compare_commands_reject_stray_paths(fleet_a, capsys):
    """The DIR positionals belong to compare; any other command must
    still error on unexpected positionals instead of ignoring them."""
    from repro.__main__ import main

    out, _ = fleet_a
    with pytest.raises(SystemExit) as excinfo:
        main(["evaluate", str(out)])
    assert excinfo.value.code == 2
    assert "unrecognized arguments for evaluate" in \
        capsys.readouterr().err
