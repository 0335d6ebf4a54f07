"""Fig. 1 — the grid-segmentation scenario.

Regenerates the evaluation geometry: the 6x7 grid of 1 km cells around
the University of Klagenfurt, 33 of 42 cells traversed (the rest are
low-density border cells), probe in E3, mobile reference in C2.

Timed work: full scenario construction (grid + population + radio +
internet topology + BGP tables + campaign config).
"""

from repro.geo.grid import CellId
from repro.scenarios import build, klagenfurt


def test_fig1_scenario_construction(benchmark):
    scenario = benchmark(lambda: build(klagenfurt(), seed=42))

    # Fig. 1 facts.
    assert scenario.grid.cols == 6 and scenario.grid.rows == 7
    assert scenario.grid.cell_size_m == 1000.0
    assert len(scenario.traversed_cells) == 33
    assert len(scenario.masked_cells) == 9
    for cell in scenario.masked_cells:
        assert scenario.grid.is_border(cell)
    # Reference geometry of Section IV-B.
    probe = scenario.topology.node("probe-uni")
    assert scenario.grid.locate(probe.location) == CellId.from_label("E3")
    c2 = scenario.grid.cell_center(CellId.from_label("C2"))
    assert c2.distance_to(probe.location) < 5_000.0

    print("\nFig. 1 scenario: 6x7 grid, 1 km cells; "
          f"{len(scenario.traversed_cells)} traversed / "
          f"{len(scenario.masked_cells)} masked border cells; "
          "probe in E3, mobile reference in C2 (< 5 km apart)")


def test_fig1_drive_route_covers_traversed_cells(benchmark, scenario):
    def build_route():
        return scenario.drive_route(mean_positions_per_cell=6.0)

    route = benchmark(build_route)
    assert set(route.visit_order) == set(scenario.traversed_cells)
    # Serpentine order: consecutive visited cells are close.
    for a, b in zip(route.visit_order, route.visit_order[1:]):
        assert abs(a.row - b.row) <= 1
