"""Tests for the 6G upgrade study (Section VI outlook)."""

import pytest

from repro import units
from repro.core import SixGUpgradeStudy
from repro.fleet import BatchExecutor, SerialExecutor
from repro.scenarios import build_count
from test_sensitivity import captured_plans, record_bytes


@pytest.fixture(scope="module")
def upgrade_reports():
    return SixGUpgradeStudy(seed=42, mean_positions_per_cell=2.0).run()


def test_upgrade_arms_are_ordered(upgrade_reports):
    """Each remedy helps; the combination dominates."""
    r = upgrade_reports
    baseline = r["5G (measured)"].mobile_mean_s
    edge = r["5G + edge breakout"].mobile_mean_s
    sixg = r["6G radio, core unchanged"].mobile_mean_s
    both = r["6G + edge breakout"].mobile_mean_s
    assert edge < baseline
    assert sixg < baseline
    assert both < min(edge, sixg)


def test_only_upgraded_arms_meet_the_ar_budget(upgrade_reports):
    study = SixGUpgradeStudy
    assert not study.meets_requirement(upgrade_reports["5G (measured)"])
    assert study.meets_requirement(
        upgrade_reports["6G + edge breakout"])


def test_6g_with_edge_beats_wired(upgrade_reports):
    """The paper's aim: 'sub-1 ms latencies to achieve competitiveness
    with wired networks'.  The upgraded mobile field undercuts the
    wired baseline."""
    report = upgrade_reports["6G + edge breakout"]
    assert report.mobile_mean_s < report.wired_mean_s
    assert report.mobile_mean_s < units.ms(3.0)


def test_edge_breakout_alone_does_not_fix_the_radio(upgrade_reports):
    """Edge breakout removes the wired detour, but the 5G air interface
    plus loaded-cell buffering still dominates the budget."""
    report = upgrade_reports["5G + edge breakout"]
    assert report.mobile_mean_s > units.ms(20.0)


def test_upgrade_arms_are_one_batch_matching_the_serial_oracle():
    study = SixGUpgradeStudy(seed=42, mean_positions_per_cell=2.0)
    before = build_count()
    plan, = captured_plans(study.run)
    assert build_count() - before == 4
    assert [run.scenario for run in plan] == \
        [study.arm_spec(arm) for arm in study.ARMS]
    assert [dict(run.variant)["arm"] for run in plan] == \
        [arm.name for arm in study.ARMS]
    assert record_bytes(BatchExecutor(), plan) == \
        record_bytes(SerialExecutor(), plan)


def test_default_scenario_untouched_by_new_parameters():
    from repro.scenarios import build, klagenfurt
    sc = build(klagenfurt(), seed=42)
    assert sc.campaign_config.default_gateway == "vienna"
    assert sc.radio_config.generation.value == "5g"
