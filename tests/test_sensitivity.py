"""Tests for the calibration sensitivity analysis."""

from unittest import mock

import pytest

from repro.core import SensitivityAnalysis
from repro.fleet import BatchExecutor, SerialExecutor
from repro.scenarios import build_count, build_key, klagenfurt


def captured_plans(call):
    """Run ``call()``; return each run list it hands to
    :meth:`BatchExecutor.map`, in call order."""
    plans = []
    original = BatchExecutor.map

    def spy(self, runs):
        plans.append(list(runs))
        return original(self, plans[-1])

    with mock.patch.object(BatchExecutor, "map", spy):
        call()
    return plans


def record_bytes(executor, runs):
    """Every record of ``runs`` through ``executor``, as JSON text."""
    with executor:
        return [outcome.record.to_json() for outcome in executor.map(runs)]


@pytest.fixture(scope="module")
def analysis():
    return SensitivityAnalysis(seed=42, mean_positions_per_cell=2.0)


@pytest.fixture(scope="module")
def baseline(analysis):
    return analysis.baseline()


def test_baseline_matches_default_campaign(baseline):
    assert 0.060 < baseline.mobile_mean_s < 0.090
    assert baseline.scale == 1.0


@pytest.mark.parametrize("knob", SensitivityAnalysis.KNOBS)
def test_increasing_any_knob_increases_mean(analysis, baseline, knob):
    """Every knob models a latency *cost*; scaling one up must not
    reduce the field mean (monotone mechanism, not a fitted artifact)."""
    result = analysis.run_knob(knob, 1.3)
    assert result.mobile_mean_s >= baseline.mobile_mean_s - 1e-4


def test_elasticities_are_moderate(analysis):
    """No single knob dominates: all elasticities stay below 1.5, so a
    20% calibration error moves the headline by far less than the
    reproduction tolerance."""
    for knob, value in analysis.elasticities(scale=1.2).items():
        assert -0.1 < value < 1.5, knob


def test_downscaling_reduces_mean(analysis, baseline):
    result = analysis.run_knob("cgnat_load", 0.7)
    assert result.mobile_mean_s < baseline.mobile_mean_s


def test_unknown_knob_rejected(analysis):
    with pytest.raises(KeyError):
        analysis.run_knob("flux_capacitor", 1.1)
    with pytest.raises(KeyError, match="flux_capacitor"):
        analysis.spec_for("flux_capacitor", 1.1)


def _leaves(value, prefix=""):
    """Dotted path -> scalar for every leaf of a ``to_dict`` payload."""
    if not isinstance(value, (dict, list)):
        return {prefix: value}
    items = value.items() if isinstance(value, dict) else enumerate(value)
    out = {}
    for key, item in items:
        out.update(_leaves(item, f"{prefix}.{key}".lstrip(".")))
    return out


_CAMPAIGN = klagenfurt().campaign
_VIENNA = [g.name for g in _CAMPAIGN.gateways].index("vienna")
INTENDED_PATHS = {
    "buffer_service": {"radio.buffer_service_s"},
    "cgnat_load": {f"campaign.gateways.{_VIENNA}.load"},
    "cell_load": {"campaign.extra_load_range.0",
                  "campaign.extra_load_range.1"}
    | {f"campaign.extra_load_anchors.{i}.1"
       for i in range(len(_CAMPAIGN.extra_load_anchors))},
    "peer_load": {f"campaign.peers.{i}.air_load"
                  for i in range(len(_CAMPAIGN.peers))},
    "handover_interruption": {"campaign.handover_interruption_s"},
}


@pytest.mark.parametrize("knob", SensitivityAnalysis.KNOBS)
def test_knob_spec_changes_only_its_fields(analysis, knob):
    base = _leaves(klagenfurt().to_dict())
    variant = _leaves(analysis.spec_for(knob, 1.2).to_dict())
    assert variant.keys() == base.keys()
    changed = {path for path in base if variant[path] != base[path]}
    assert changed == INTENDED_PATHS[knob]


@pytest.mark.parametrize("knob", SensitivityAnalysis.KNOBS)
def test_knob_build_key(analysis, knob):
    """Peer load and the interruption are sampling-layer what-ifs and
    share the baseline's compiled build; the other knobs rebuild."""
    base = build_key(klagenfurt(), 42, 2.0)
    key = build_key(analysis.spec_for(knob, 1.2), 42, 2.0)
    if knob in ("peer_load", "handover_interruption"):
        assert key == base
    else:
        assert key != base


def test_unit_scale_is_the_baseline_spec(analysis):
    for knob in SensitivityAnalysis.KNOBS:
        assert analysis.spec_for(knob, 1.0) == klagenfurt()


def test_elasticity_requires_perturbation(baseline):
    with pytest.raises(ValueError):
        baseline.elasticity(baseline)


def test_sweep_shape(analysis):
    sweep = analysis.sweep(scales=(0.9, 1.1))
    assert set(sweep) == set(SensitivityAnalysis.KNOBS)
    for results in sweep.values():
        assert [r.scale for r in results] == [0.9, 1.1]


@pytest.mark.parametrize("method, builds", [("elasticities", 4),
                                            ("sweep", 7)])
def test_study_is_one_batch_sharing_builds(analysis, method, builds):
    """The whole study is one run list in one ``map`` call; the knobs
    that keep the baseline build key reuse its compiled world, and
    the records equal the serial oracle's."""
    before = build_count()
    plan, = captured_plans(getattr(analysis, method))
    assert build_count() - before == builds
    assert len({run.run_id for run in plan}) == len(plan)
    assert record_bytes(BatchExecutor(), plan) == \
        record_bytes(SerialExecutor(), plan)


def test_plan_variants_name_knob_and_scale(analysis):
    run, = analysis.plan([("peer_load", 0.8)])
    assert run.variant == (("knob", "peer_load"), ("scale", 0.8))
    assert run.scenario == analysis.spec_for("peer_load", 0.8)
    assert (run.seed, run.density) == (42, 2.0)
