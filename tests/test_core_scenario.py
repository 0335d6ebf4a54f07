"""Integration tests for the Klagenfurt scenario and Section IV artifacts.

These are the reproduction's acceptance tests: they assert the *shape*
of the paper's findings (who wins, by what factor, where extremes sit)
at the default seed, with tolerances documented against the paper's
published values.
"""

import dataclasses

import numpy as np
import pytest

from repro import units
from repro.core import GapAnalysis, InfrastructureEvaluation
from repro.geo.grid import CellId
from repro.scenarios import build, klagenfurt


@pytest.fixture(scope="module")
def scenario():
    return build(klagenfurt(), seed=42)


@pytest.fixture(scope="module")
def evaluation():
    return InfrastructureEvaluation(seed=42).run()


# ---------------------------------------------------------------------------
# Scenario structure (Fig. 1)
# ---------------------------------------------------------------------------

def test_grid_is_6x7_42_cells(scenario):
    assert scenario.grid.cols == 6
    assert scenario.grid.rows == 7
    assert scenario.grid.cell_count == 42


def test_exactly_33_cells_traversed(scenario):
    """Paper: 'we traversed 33 cells (marked from A - F and 1 - 7)'."""
    assert len(scenario.traversed_cells) == 33
    assert len(scenario.masked_cells) == 9


def test_masked_cells_are_border_low_density(scenario):
    """Masked cells sit in border regions below 1000 inhabitants/km2."""
    for cell in scenario.masked_cells:
        assert scenario.grid.is_border(cell)
        assert scenario.population.cell_density(
            scenario.grid, cell) < 1000.0


def test_university_probe_in_e3(scenario):
    probe = scenario.topology.node("probe-uni")
    assert scenario.grid.locate(probe.location) == \
        CellId.from_label("E3")


def test_c2_to_e3_under_5km(scenario):
    """Paper: mobile node in C2, probe in E3, 'separated by less than
    5 km'."""
    c2 = scenario.grid.cell_center(CellId.from_label("C2"))
    e3 = scenario.grid.cell_center(CellId.from_label("E3"))
    assert c2.distance_to(e3) < 5_000.0


def test_anchor_cells_are_traversed(scenario):
    for label in ("C1", "C2", "C3", "B3", "E5"):
        assert CellId.from_label(label) in scenario.traversed_cells


# ---------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------

def test_table1_has_exactly_10_hops(scenario):
    assert scenario.reference_trace().hop_count == 10


def test_table1_hop_names_match_paper(scenario):
    trace = scenario.reference_trace()
    labels = [h.label for h in trace.hops]
    assert labels[0] == "10.12.128.1"
    assert labels[1] == "unn-37-19-223-61.datapacket.com [37.19.223.61]"
    assert labels[2] == "vl204.vie-itx1-core-2.cdn77.com [185.156.45.138]"
    assert labels[3] == "zetservers.peering.cz [185.0.20.31]"
    assert labels[4] == "vie-dr2-cr1.zet.net [103.246.249.33]"
    assert labels[5] == "amanet-cust.zet.net [185.104.63.33]"
    assert labels[6] == ("ae2-97.mx204-1.ix.vie.at.as39912.net "
                         "[185.211.219.155]")
    assert labels[7] == "003-228-016-195.ascus.at [195.16.228.3]"
    assert labels[8] == "180-246-016-195.ascus.at [195.16.246.180]"
    assert labels[9] == "195.140.139.133"


def test_table1_rtt_near_65ms(scenario):
    """Paper: 'an overall RTL of 65 ms caused by 10 network hops'."""
    total = scenario.reference_trace().total_rtt_s
    assert units.ms(55.0) < total < units.ms(75.0)


def test_table1_private_first_hop(scenario):
    trace = scenario.reference_trace()
    first = scenario.topology.node(trace.hops[0].node_name)
    assert first.address.is_private()


# ---------------------------------------------------------------------------
# Fig. 4
# ---------------------------------------------------------------------------

def test_fig4_detour_is_2544_km(scenario):
    """Paper: 'This route covers a total distance of 2544 km.'"""
    assert scenario.detour_route_km() == pytest.approx(2544.0, rel=0.02)


def test_fig4_edge_breakout_detour_spans_the_whole_trace():
    """The breakout trace never reaches the Vienna exchange, so its
    loop is the whole (local) trace, far shorter than the detour."""
    spec = klagenfurt(edge_breakout=True)
    assert spec.detour_loop_end == ""
    detour = build(spec, seed=42).detour_route_km()
    assert detour == pytest.approx(501.0, abs=0.1)


def test_fig4_loop_end_off_the_trace_is_a_value_error():
    spec = dataclasses.replace(klagenfurt(), detour_loop_end="gw-kla")
    with pytest.raises(ValueError, match="'gw-kla'"):
        build(spec, seed=42).detour_route_km()


def test_fig4_route_leaves_the_country(scenario):
    trace = scenario.reference_trace()
    countries = set()
    for hop in trace.hops:
        node = scenario.topology.node(hop.node_name)
        if node.location.lat > 49.0:
            countries.add("CZ")
        elif node.location.lon > 20.0:
            countries.add("RO")
        else:
            countries.add("AT")
    assert countries == {"AT", "CZ", "RO"}


# ---------------------------------------------------------------------------
# Fig. 2 / Fig. 3 (the drive-test campaign)
# ---------------------------------------------------------------------------

def test_fig2_mean_range_matches_paper(evaluation):
    """Paper: 61 ms at C1 up to 110 ms at C3."""
    stats = evaluation.statistics
    low = stats.min_mean_cell()
    high = stats.max_mean_cell()
    assert low.cell.label == "C1"
    assert high.cell.label == "C3"
    assert low.mean_s == pytest.approx(units.ms(61.0), rel=0.05)
    assert high.mean_s == pytest.approx(units.ms(110.0), rel=0.05)


def test_fig3_std_extremes_match_paper(evaluation):
    """Paper: sigma from 1.8 ms (B3) to 46.4 ms (E5)."""
    stats = evaluation.statistics
    low = stats.min_std_cell()
    high = stats.max_std_cell()
    assert low.cell.label == "B3"
    assert high.cell.label == "E5"
    assert low.std_s < units.ms(4.0)
    assert high.std_s == pytest.approx(units.ms(46.4), rel=0.15)


def test_fig2_masked_cells_render_as_zero(evaluation):
    matrix = evaluation.statistics.mean_matrix_ms()
    for cell in evaluation.scenario.masked_cells:
        assert matrix[cell.row, cell.col] == 0.0


def test_fig2_all_traversed_cells_measured(evaluation):
    measured = {a.cell for a in evaluation.statistics.measured_cells()}
    assert measured == set(evaluation.scenario.traversed_cells)


def test_every_cell_exceeds_the_20ms_budget(evaluation):
    for agg in evaluation.statistics.measured_cells():
        assert agg.mean_s > units.ms(20.0)


# ---------------------------------------------------------------------------
# Gap analysis (Section IV-C)
# ---------------------------------------------------------------------------

def test_wired_baseline_in_7_to_12ms(evaluation):
    """Paper [3]: wired measurements of 7-12 ms to the cloud region."""
    mean = float(np.mean(evaluation.wired_rtts_s))
    assert units.ms(7.0) < mean < units.ms(12.0)


def test_mobile_wired_factor_of_seven(evaluation):
    """Paper: 'the mean RTL for mobile nodes surpasses that of wired
    nodes by a factor of seven'."""
    assert evaluation.gap.mobile_wired_factor == pytest.approx(7.0,
                                                               abs=0.8)


def test_exceedance_approximately_270_percent(evaluation):
    """Paper: 'exceeds the identified requirements ... by approximately
    270%'."""
    assert evaluation.gap.exceedance_percent == pytest.approx(270.0,
                                                              abs=20.0)


def test_gap_summary_mentions_key_numbers(evaluation):
    text = evaluation.gap.summary()
    assert "C1" in text and "C3" in text
    assert "%" in text


def test_figures_render(evaluation):
    fig2 = evaluation.figure2()
    assert "A" in fig2 and "0.0" in fig2
    fig3 = evaluation.figure3()
    assert "Standard Deviation" in fig3
    table = evaluation.table1()
    assert "zetservers.peering.cz" in table
    assert evaluation.figure4_km() == pytest.approx(2544.0, rel=0.02)


def test_campaign_is_deterministic():
    """Same seed -> identical dataset."""
    a = build(klagenfurt(), seed=7).run_campaign(2.0)
    b = build(klagenfurt(), seed=7).run_campaign(2.0)
    assert len(a) == len(b)
    assert np.array_equal(a.rtts, b.rtts)


def test_different_seed_changes_samples_not_shape():
    a = build(klagenfurt(), seed=7).run_campaign(2.0)
    b = build(klagenfurt(), seed=8).run_campaign(2.0)
    assert not np.array_equal(a.rtts[:min(len(a), len(b))],
                              b.rtts[:min(len(a), len(b))])


def test_gap_analysis_validation(evaluation):
    with pytest.raises(ValueError):
        GapAnalysis(requirement_s=0.0)
    with pytest.raises(ValueError):
        GapAnalysis().report(evaluation.statistics, np.array([]))


def test_evaluation_validation():
    with pytest.raises(ValueError):
        InfrastructureEvaluation(mean_positions_per_cell=0.0)


def test_save_artifacts_round_trip(tmp_path):
    result = InfrastructureEvaluation(
        seed=42, mean_positions_per_cell=2.0).run()
    paths = result.save_artifacts(tmp_path / "artifacts")
    expected = {"figure2.txt", "figure3.txt", "table1.txt",
                "gap_summary.txt", "campaign.csv", "wired_baseline.csv"}
    assert set(paths) == expected
    # every returned path points at the file actually written
    from pathlib import Path
    for name, path in paths.items():
        assert Path(path) == tmp_path / "artifacts" / name
        assert Path(path).is_file() and Path(path).stat().st_size > 0
    fig2 = (tmp_path / "artifacts" / "figure2.txt").read_text()
    assert "Urban Mean Round-trip Time Latency" in fig2
    gap = (tmp_path / "artifacts" / "gap_summary.txt").read_text()
    assert "fig4 detour" in gap
    # the CSV reloads into an identical-size dataset
    from repro.probes import MeasurementDataset
    loaded = MeasurementDataset.load_csv(tmp_path / "artifacts"
                                         / "campaign.csv")
    assert len(loaded) == len(result.dataset)
