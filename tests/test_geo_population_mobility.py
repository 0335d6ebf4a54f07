"""Tests for the radial population model and the drive-test route."""

import pytest

from repro.geo import (
    CellId,
    DriveTestRoute,
    GeoPoint,
    Grid,
    RadialPopulationModel,
)
from repro.sim import RngRegistry


@pytest.fixture
def grid():
    return Grid(origin=GeoPoint(46.653, 14.255), cell_size_m=1000.0,
                cols=6, rows=7)


@pytest.fixture
def rng():
    return RngRegistry(seed=1234)


# ---------------------------------------------------------------------------
# Population models
# ---------------------------------------------------------------------------

def test_radial_density_peaks_at_centre(grid):
    centre = grid.cell_center(CellId.from_label("C4"))
    model = RadialPopulationModel(centre, core_density=4200.0)
    assert model.density_at(centre) == pytest.approx(4200.0)
    edge = grid.cell_center(CellId.from_label("A1"))
    assert model.density_at(edge) < 4200.0


def test_radial_density_monotone_decreasing(grid):
    centre = grid.cell_center(CellId.from_label("C4"))
    model = RadialPopulationModel(centre)
    d = [model.density_at(centre.destination(90.0, r))
         for r in (0.0, 500.0, 1500.0, 3000.0, 6000.0)]
    assert all(a > b for a, b in zip(d, d[1:]))


def test_radial_density_floor_far_away(grid):
    centre = grid.cell_center(CellId.from_label("C4"))
    model = RadialPopulationModel(centre, floor=40.0)
    remote = centre.destination(0.0, 60_000.0)
    assert model.density_at(remote) == pytest.approx(40.0, rel=0.01)


def test_contour_radius_inverse(grid):
    centre = grid.cell_center(CellId.from_label("C4"))
    model = RadialPopulationModel(centre, core_density=4200.0,
                                  scale_m=2000.0, floor=40.0)
    r = model.contour_radius_m(1000.0)
    assert model.density_at(centre.destination(45.0, r)) == pytest.approx(
        1000.0, rel=0.01)


def test_contour_radius_out_of_range(grid):
    centre = grid.cell_center(CellId.from_label("C4"))
    model = RadialPopulationModel(centre, core_density=4200.0, floor=40.0)
    with pytest.raises(ValueError):
        model.contour_radius_m(10.0)   # below floor
    with pytest.raises(ValueError):
        model.contour_radius_m(9000.0)  # above core


def test_radial_validation(grid):
    centre = grid.cell_center(CellId.from_label("C4"))
    with pytest.raises(ValueError):
        RadialPopulationModel(centre, core_density=0.0)
    with pytest.raises(ValueError):
        RadialPopulationModel(centre, core_density=100.0, floor=200.0)


# ---------------------------------------------------------------------------
# DriveTestRoute
# ---------------------------------------------------------------------------

def test_drive_test_visits_exactly_target_cells(grid, rng):
    targets = [CellId.from_label(x) for x in ("B2", "C2", "C3", "D4")]
    route = DriveTestRoute(grid, targets, rng.stream("drive"))
    visited = {s.cell for s in route.walk()}
    assert visited == set(targets)


def test_drive_test_min_samples_respected(grid, rng):
    targets = [CellId.from_label("B2")]
    route = DriveTestRoute(grid, targets, rng.stream("drive"),
                           mean_samples_per_cell=1.0, min_samples=10)
    samples = list(route.walk())
    assert len(samples) >= 10


def test_drive_test_traffic_weight_scales_counts(grid, rng):
    heavy = CellId.from_label("C3")
    light = CellId.from_label("B2")
    route = DriveTestRoute(
        grid, [heavy, light], rng.stream("drive"),
        traffic_weight={heavy: 4.0, light: 1.0},
        mean_samples_per_cell=30.0)
    counts = {heavy: 0, light: 0}
    for s in route.walk():
        counts[s.cell] += 1
    assert counts[heavy] > counts[light]


def test_drive_test_times_are_monotone(grid, rng):
    targets = [CellId.from_label(x) for x in ("A1", "B1", "C1")]
    route = DriveTestRoute(grid, targets, rng.stream("drive"))
    times = [s.time for s in route.walk()]
    assert all(a < b for a, b in zip(times, times[1:]))


def test_drive_test_positions_inside_reported_cell(grid, rng):
    targets = [CellId.from_label(x) for x in ("C2", "D2", "E5")]
    route = DriveTestRoute(grid, targets, rng.stream("drive"))
    for s in route.walk():
        assert grid.locate(s.position) == s.cell


def test_drive_test_deterministic_given_stream(grid):
    targets = [CellId.from_label(x) for x in ("B2", "C2")]
    r1 = DriveTestRoute(grid, targets, RngRegistry(9).stream("d"))
    r2 = DriveTestRoute(grid, targets, RngRegistry(9).stream("d"))
    s1 = [(s.time, s.position.lat, s.position.lon) for s in r1.walk()]
    s2 = [(s.time, s.position.lat, s.position.lon) for s in r2.walk()]
    assert s1 == s2


def test_drive_test_validation(grid, rng):
    with pytest.raises(ValueError):
        DriveTestRoute(grid, [], rng.stream("d"))
    with pytest.raises(KeyError):
        DriveTestRoute(grid, [CellId(20, 20)], rng.stream("d"))
    with pytest.raises(ValueError):
        DriveTestRoute(grid, [CellId(0, 0)], rng.stream("d"),
                       mean_samples_per_cell=0.0)


def test_drive_test_follows_serpentine_order(grid, rng):
    targets = [CellId.from_label(x) for x in ("A1", "C1", "F2", "A2")]
    route = DriveTestRoute(grid, targets, rng.stream("drive"))
    seen = []
    for s in route.walk():
        if not seen or seen[-1] != s.cell:
            seen.append(s.cell)
    assert [c.label for c in seen] == ["A1", "C1", "F2", "A2"]
