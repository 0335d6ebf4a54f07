"""Tests for the fleet execution engine: sweep expansion, the
serial/parallel runner, determinism, the on-disk store, and reporting."""

import json
from dataclasses import replace

import pytest

from repro.core import EvaluationSummary, InfrastructureEvaluation
from repro.fleet import (
    FleetResult,
    FleetStore,
    RunRecord,
    RunSpec,
    SweepAxis,
    SweepSpec,
    fleet_summary,
    run_one,
    run_sweep,
)
from repro.fleet.sweep import pack_runs, unpack_runs
from repro.scenarios import klagenfurt, skopje
from test_compiled_scenario import _sampling_overrides

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


@pytest.fixture(scope="module")
def result() -> FleetResult:
    """One small serial fleet shared by the read-only tests."""
    return run_sweep(small_sweep(seeds=(42, 43)))


# ---------------------------------------------------------------------------
# Sweep declaration + expansion
# ---------------------------------------------------------------------------

def test_cartesian_expansion_counts():
    sweep = small_sweep(
        bases=(klagenfurt(), skopje()),
        axes=(SweepAxis(AXIS, (30e-3, 60e-3)),
              SweepAxis("campaign.max_cell_load", (0.9, 0.93))),
        seeds=(42, 43, 44))
    assert sweep.variant_count == 2 * 2 * 2
    assert sweep.run_count == 8 * 3
    runs = sweep.expand()
    assert len(runs) == 24
    assert len({run.run_id for run in runs}) == 24


def test_zip_expansion_walks_axes_in_lockstep():
    sweep = small_sweep(
        axes=(SweepAxis(AXIS, (30e-3, 60e-3)),
              SweepAxis("campaign.max_cell_load", (0.9, 0.93))),
        mode="zip")
    assert sweep.variant_count == 2
    values = [(run.scenario.campaign.handover_interruption_s,
               run.scenario.campaign.max_cell_load)
              for run in sweep.expand()]
    assert values == [(30e-3, 0.9), (60e-3, 0.93)]


def test_run_count_of_a_huge_sweep_is_arithmetic():
    # 10 axes x 10 values: 10**10 variants, far too many to list.
    axes = tuple(SweepAxis(f"campaign.axis_{i}", tuple(range(10)))
                 for i in range(10))
    huge = small_sweep(axes=axes, seeds=(42, 43))
    assert huge.variant_count == 10 ** 10
    assert huge.run_count == 2 * 10 ** 10
    assert small_sweep(axes=axes, mode="zip").run_count == 10
    assert small_sweep(axes=()).variant_count == 1
    assert small_sweep(axes=(), mode="zip").variant_count == 1


def test_zip_rejects_unequal_axis_lengths():
    with pytest.raises(ValueError, match="share one length"):
        small_sweep(axes=(SweepAxis(AXIS, (30e-3, 60e-3)),
                          SweepAxis("campaign.max_cell_load", (0.9,))),
                    mode="zip")


def test_expansion_applies_overrides():
    runs = small_sweep().expand()
    assert [run.scenario.campaign.handover_interruption_s
            for run in runs] == [30e-3, 60e-3]
    # the base spec itself is untouched
    assert klagenfurt().campaign.handover_interruption_s \
        not in (30e-3, 60e-3)


def test_multi_base_variant_names_the_scenario():
    runs = small_sweep(bases=(klagenfurt(), skopje()), seeds=(42,)).expand()
    assert ("scenario", "klagenfurt") in runs[0].variant
    assert ("scenario", "skopje") in runs[-1].variant


def test_sweep_validation():
    with pytest.raises(ValueError, match="at least one base"):
        small_sweep(bases=())
    with pytest.raises(ValueError, match="at least one seed"):
        small_sweep(seeds=())
    with pytest.raises(ValueError, match="unknown sweep mode"):
        small_sweep(mode="diagonal")
    with pytest.raises(ValueError, match="no values"):
        SweepAxis(AXIS, ())
    with pytest.raises(ValueError, match="unique"):
        small_sweep(bases=(klagenfurt(), klagenfurt()))
    with pytest.raises(ValueError, match="seeds must be unique"):
        small_sweep(seeds=(42, 42, 43))


def test_sweep_spec_json_round_trip():
    sweep = small_sweep(bases=(klagenfurt(), skopje()),
                        seeds=(42, 43), mode="cartesian")
    assert SweepSpec.from_json(sweep.to_json()) == sweep
    # through a real encode/decode, not just to_dict
    assert SweepSpec.from_dict(
        json.loads(json.dumps(sweep.to_dict()))) == sweep


# ---------------------------------------------------------------------------
# Compact run lists: bases + per-run overrides
# ---------------------------------------------------------------------------

def _round_trip(runs):
    """Through pack_runs, real JSON, and unpack_runs."""
    payload = json.loads(json.dumps(pack_runs(runs)))
    back = unpack_runs(payload)
    assert back == list(runs)
    assert [run.spec_key() for run in back] == \
        [run.spec_key() for run in runs]
    return payload


def _build_and_whole_overrides(spec):
    """Build-layer edits and whole-value replacements, on top of every
    sampling-layer override class ``test_compiled_scenario`` checks."""
    return (
        {"radio.sites.0.load": 0.9},
        {"radio.shadowing_sigma_db": 4.5,
         "population.density_threshold": 800.0},
        {"campaign.peers.0.gateway": "replaced-gateway"},
        # whole-tuple replacement with a new length
        {"campaign.extra_load_anchors": [["A1", 0.1], ["B2", 0.2],
                                         ["C3", 0.3]]},
        {"campaign.extra_load_range": None},
    )


@pytest.mark.parametrize("base", [klagenfurt, skopje],
                         ids=["klagenfurt", "skopje"])
def test_pack_unpack_round_trips_every_override_class(base):
    spec = base()
    overrides = (_sampling_overrides(spec)
                 + _build_and_whole_overrides(spec))
    variants = [spec] + [spec.with_overrides(patch) for patch in overrides]
    # An int where the base holds a float (``with_overrides`` would
    # promote it): no override reproduces that leaf, so the enclosing
    # layer or pair goes whole — and at the top level, only a base of
    # its own can carry it.
    sites = spec.radio.sites
    variants.append(replace(spec, radio=replace(
        spec.radio, sites=(replace(sites[0], load=0),) + sites[1:])))
    whole = ["radio.sites.0"]
    anchors = spec.campaign.extra_load_anchors
    if anchors:
        variants.append(replace(spec, campaign=replace(
            spec.campaign,
            extra_load_anchors=((anchors[0][0], 0),) + anchors[1:])))
        whole.append("campaign.extra_load_anchors.0")
    variants.append(replace(spec, detour_circuity=2))
    runs = [RunSpec(run_id=f"r{index}", scenario=variant, seed=42,
                    density=2.0, variant=(("case", index),))
            for index, variant in enumerate(variants)]
    payload = _round_trip(runs)
    packed = payload["runs"]
    assert [run["base"] for run in packed] == [0] * (len(runs) - 1) + [1]
    assert packed[0]["overrides"] == {}
    assert packed[1 + overrides.index(
        {"campaign.peers.0.air_load": 0.31,
         "campaign.peers.0.sinr_db": 5.0})]["overrides"] == \
        {"campaign.peers.0.air_load": 0.31, "campaign.peers.0.sinr_db": 5.0}
    assert [list(run["overrides"]) for run in packed[-1 - len(whole):-1]] \
        == [[path] for path in whole]


def test_pack_unpack_round_trips_sweeps_and_shrinks_them():
    sweep = small_sweep(
        bases=(klagenfurt(), skopje()), seeds=(42, 43),
        axes=(SweepAxis(AXIS, (30e-3, 60e-3)),
              SweepAxis("campaign.peers.0.air_load", (0.31, 0.62)),
              SweepAxis("radio.shadowing_sigma_db", (5.0, 7.0))))
    runs = sweep.expand()
    payload = _round_trip(runs)
    assert [base["name"] for base in payload["bases"]] == \
        ["klagenfurt", "skopje"]
    full = len(json.dumps([run.to_dict() for run in runs]))
    assert len(json.dumps(payload)) * 5 < full
    # Rebuilt runs share their base's unpatched layers.
    back = unpack_runs(payload)
    assert back[1].scenario.nodes is back[0].scenario.nodes


def test_unpack_reads_full_run_dicts_and_rejects_tampering():
    runs = small_sweep().expand()
    assert unpack_runs({"runs": [run.to_dict() for run in runs]}) == \
        list(runs)
    payload = pack_runs(runs)
    payload["runs"][1]["overrides"][AXIS] = 45e-3
    with pytest.raises(ValueError, match="spec_key"):
        unpack_runs(payload)
    payload = pack_runs(runs)
    payload["runs"][0]["base"] = 7
    with pytest.raises(ValueError, match="no base"):
        unpack_runs(payload)


# ---------------------------------------------------------------------------
# run_one + the summary record
# ---------------------------------------------------------------------------

def test_run_one_produces_portable_record():
    record = run_one(klagenfurt().to_json(), 42, DENSITY)
    assert record.scenario == "klagenfurt"
    assert record.seed == 42
    assert record.summary.sample_count > 0
    assert record.summary.gap.mobile_wired_factor > 1.0
    assert RunRecord.from_json(record.to_json()) == record


def test_summary_matches_full_evaluation():
    full = InfrastructureEvaluation(
        seed=42, mean_positions_per_cell=DENSITY).run()
    summary = full.summary()
    assert summary == EvaluationSummary.from_dict(
        json.loads(json.dumps(summary.to_dict())))
    assert summary.mean_matrix_ms == tuple(
        tuple(row) for row in full.statistics.mean_matrix_ms().tolist())
    assert summary.gap == full.gap
    assert summary.sample_count == len(full.dataset)


# ---------------------------------------------------------------------------
# Determinism (the RngRegistry stream contract)
# ---------------------------------------------------------------------------

def test_same_spec_and_seed_is_bit_identical():
    spec_json = klagenfurt().to_json()
    first = run_one(spec_json, 42, DENSITY)
    second = run_one(spec_json, 42, DENSITY)
    assert first.to_dict() == second.to_dict()


def test_serial_and_parallel_records_are_bit_identical():
    sweep = small_sweep(seeds=(42, 43))
    serial = run_sweep(sweep, jobs=1)
    parallel = run_sweep(sweep, jobs=2)
    assert [r.to_dict() for r in serial.records] == \
        [r.to_dict() for r in parallel.records]


def test_different_seeds_differ(result):
    by_seed = result.group_by("seed")
    assert set(by_seed) == {42, 43}
    a, b = (group[0] for group in by_seed.values())
    assert a.summary.mean_matrix_ms != b.summary.mean_matrix_ms


# ---------------------------------------------------------------------------
# Store + aggregation + reporting
# ---------------------------------------------------------------------------

def test_store_round_trip(tmp_path, result):
    store = FleetStore(tmp_path / "fleet")
    paths = store.save(result)
    assert (tmp_path / "fleet" / "manifest.json").exists()
    assert (tmp_path / "fleet" / "summary.csv").exists()
    assert len(list((tmp_path / "fleet" / "runs").iterdir())) == 4
    loaded = store.load()
    assert loaded.sweep == result.sweep
    assert [r.to_dict() for r in loaded.records] == \
        [r.to_dict() for r in result.records]
    assert set(paths) == ({"manifest", "summary.csv"}
                          | {r.run_id for r in result.records})


def test_manifest_carries_timing_not_records(tmp_path, result):
    FleetStore(tmp_path).save(result)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert SweepSpec.from_dict(manifest["sweep"]) == result.sweep
    assert len(manifest["runs"]) == len(result)
    assert all("wall_s" in entry for entry in manifest["runs"])
    # records themselves stay timing-free so executions compare equal
    assert "wall_s" not in result.records[0].to_dict()


def test_group_by_axis(result):
    groups = result.group_by(AXIS)
    assert set(groups) == {30e-3, 60e-3}
    assert all(len(records) == 2 for records in groups.values())


def test_summary_rows_aggregate_across_seeds(result):
    header, rows = result.summary_rows()
    assert header[0] == "scenario"
    assert AXIS in header
    assert len(rows) == 2                      # one row per variant
    seeds_column = header.index("seeds")
    assert all(row[seeds_column] == 2 for row in rows)


def test_csv_export(tmp_path, result):
    path = result.to_csv(tmp_path / "fleet.csv")
    lines = (tmp_path / "fleet.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + len(result)
    assert lines[0].startswith("run_id,scenario,seed,density")
    assert AXIS in lines[0]
    assert path.endswith("fleet.csv")


def test_fleet_summary_renders(result):
    text = fleet_summary(result)
    assert "Fleet summary" in text
    assert "4 runs" in text
    assert "jobs=1" in text


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_sweep_smoke(tmp_path, capsys):
    from repro.__main__ import main

    out = tmp_path / "fleet"
    assert main(["sweep", "--scenario", "klagenfurt",
                 "--set", f"{AXIS}=0.03,0.06",
                 "--seeds", "42", "--jobs", "1",
                 "--density", "2", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "2 variants x 1 seeds = 2 runs" in stdout
    assert "Fleet summary" in stdout
    assert (out / "manifest.json").exists()
    assert (out / "summary.csv").exists()
    assert len(list((out / "runs").iterdir())) == 2


def test_cli_sweep_seed_range_and_both_cities(tmp_path, capsys):
    from repro.__main__ import main

    assert main(["sweep", "--scenario", "klagenfurt,skopje",
                 "--seeds", "42:44", "--density", "2"]) == 0
    stdout = capsys.readouterr().out
    assert "2 variants x 2 seeds = 4 runs" in stdout
    assert "klagenfurt" in stdout and "skopje" in stdout


def test_cli_sweep_bad_axis_path_is_clean_error(capsys):
    from repro.__main__ import main

    assert main(["sweep", "--scenario", "klagenfurt",
                 "--set", "campaign.frobnicate=1", "--seeds", "42"]) == 2
    assert "no field 'frobnicate'" in capsys.readouterr().err


def test_cli_sweep_malformed_set_is_clean_error(capsys):
    from repro.__main__ import main

    assert main(["sweep", "--scenario", "klagenfurt",
                 "--set", "no-equals-sign"]) == 2
    assert "--set wants" in capsys.readouterr().err
