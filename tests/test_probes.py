"""Tests for the measurement framework (probes, datasets, stats, ping)."""

import numpy as np
import pytest

from repro.geo import CellId, GeoPoint, Grid
from repro.probes import (
    CellStatistics,
    MeasurementDataset,
    MeasurementRecord,
    Probe,
    ProbeKind,
    ProbeRegistry,
)


@pytest.fixture
def grid():
    return Grid(GeoPoint(46.653, 14.255), cell_size_m=1000.0, cols=6, rows=7)


# ---------------------------------------------------------------------------
# ProbeRegistry
# ---------------------------------------------------------------------------

def test_probe_registry_register_and_lookup():
    reg = ProbeRegistry()
    p = reg.register(Probe(1, "anchor", "node-a", GeoPoint(46.62, 14.30),
                           ProbeKind.ANCHOR))
    assert reg.probe(1) is p
    assert reg.by_name("anchor") is p
    assert len(reg) == 1
    assert reg.anchors() == [p]


def test_probe_registry_duplicates_rejected():
    reg = ProbeRegistry()
    reg.register(Probe(1, "a", "n1", GeoPoint(46.62, 14.30)))
    with pytest.raises(ValueError):
        reg.register(Probe(1, "b", "n2", GeoPoint(46.62, 14.30)))
    with pytest.raises(ValueError):
        reg.register(Probe(2, "a", "n2", GeoPoint(46.62, 14.30)))


def test_probe_registry_missing_lookups():
    reg = ProbeRegistry()
    with pytest.raises(KeyError):
        reg.probe(9)
    with pytest.raises(KeyError):
        reg.by_name("ghost")
    with pytest.raises(LookupError):
        reg.nearest(GeoPoint(46.0, 14.0))


def test_probe_nearest_and_in_cell(grid):
    reg = ProbeRegistry()
    inside = grid.cell_center(CellId.from_label("C3"))
    far = grid.cell_center(CellId.from_label("F7"))
    reg.register(Probe(1, "near", "n1", inside))
    reg.register(Probe(2, "far", "n2", far))
    assert reg.nearest(inside).name == "near"
    assert [p.name for p in reg.in_cell(grid, CellId.from_label("C3"))] \
        == ["near"]


def test_probe_validation():
    with pytest.raises(ValueError):
        Probe(-1, "x", "n", GeoPoint(0, 0))
    with pytest.raises(ValueError):
        Probe(1, "", "n", GeoPoint(0, 0))


# ---------------------------------------------------------------------------
# MeasurementDataset
# ---------------------------------------------------------------------------

def test_dataset_add_and_query(grid):
    ds = MeasurementDataset()
    c3 = CellId.from_label("C3")
    b2 = CellId.from_label("B2")
    ds.add(0.0, c3, "probe", 0.065)
    ds.add(1.0, c3, "probe", 0.067)
    ds.add(2.0, b2, "peer-1", 0.050)
    assert len(ds) == 3
    assert ds.rtts_in(c3).tolist() == [0.065, 0.067]
    assert ds.cells_observed() == sorted([b2, c3])


def test_dataset_negative_rtt_rejected():
    ds = MeasurementDataset()
    with pytest.raises(ValueError):
        ds.add(0.0, CellId(0, 0), "t", -1.0)
    with pytest.raises(ValueError):
        MeasurementRecord(0.0, CellId(0, 0), "t", -1.0)


def test_dataset_growth():
    ds = MeasurementDataset()
    cell = CellId(0, 0)
    for i in range(5000):
        ds.add(float(i), cell, "t", 0.05)
    assert len(ds) == 5000
    assert ds.rtts.shape == (5000,)


def test_dataset_from_columns_equals_add_loop():
    """The bulk constructor must build exactly the state ``add`` does."""
    rows = [(0.0, CellId.from_label("C3"), "probe", 0.065),
            (1.0, CellId.from_label("C3"), "peer-1", 0.050),
            (2.0, CellId.from_label("B2"), "probe", 0.048),
            (3.0, CellId.from_label("B2"), "peer-1", 0.061)]
    reference = MeasurementDataset()
    for time, cell, target, rtt in rows:
        reference.add(time, cell, target, rtt)

    bulk = MeasurementDataset.from_columns(
        np.array([r[0] for r in rows]),
        np.array([r[1].col for r in rows], dtype=np.int32),
        np.array([r[1].row for r in rows], dtype=np.int32),
        np.array([0, 1, 0, 1], dtype=np.int32),
        ["probe", "peer-1"],                # first-appearance order
        np.array([r[3] for r in rows]))
    assert len(bulk) == len(reference)
    assert bulk.rtts.tolist() == reference.rtts.tolist()
    assert bulk.times.tolist() == reference.times.tolist()
    assert [r.target for r in bulk.records()] \
        == [r.target for r in reference.records()]
    assert bulk.cells_observed() == reference.cells_observed()
    # Arrays are copied, and the dataset stays appendable.
    bulk.add(4.0, CellId.from_label("A1"), "probe", 0.02)
    assert len(bulk) == 5


def test_dataset_from_columns_validates():
    times = np.zeros(2)
    cols = np.zeros(2, dtype=np.int32)
    rows = np.zeros(2, dtype=np.int32)
    with pytest.raises(ValueError, match="share one length"):
        MeasurementDataset.from_columns(
            times, cols, rows, np.zeros(3, dtype=np.int32), ["t"],
            np.zeros(2))
    with pytest.raises(ValueError, match="non-negative"):
        MeasurementDataset.from_columns(
            times, cols, rows, np.zeros(2, dtype=np.int32), ["t"],
            np.array([0.1, -0.1]))
    with pytest.raises(ValueError, match="out of range"):
        MeasurementDataset.from_columns(
            times, cols, rows, np.array([0, 1], dtype=np.int32), ["t"],
            np.zeros(2))
    with pytest.raises(ValueError, match="unique"):
        MeasurementDataset.from_columns(
            times, cols, rows, np.zeros(2, dtype=np.int32), ["t", "t"],
            np.zeros(2))
    # Empty columns give a working, appendable dataset.
    empty = MeasurementDataset.from_columns(
        np.empty(0), np.empty(0, dtype=np.int32),
        np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32), [],
        np.empty(0))
    assert len(empty) == 0
    empty.add(0.0, CellId(0, 0), "t", 0.05)
    assert len(empty) == 1


def test_dataset_records_round_trip():
    ds = MeasurementDataset()
    ds.add(1.5, CellId.from_label("C2"), "probe", 0.0655)
    rec = next(ds.records())
    assert rec.cell.label == "C2"
    assert rec.target == "probe"
    assert rec.rtt_s == pytest.approx(0.0655)


def test_dataset_csv_round_trip(tmp_path):
    ds = MeasurementDataset()
    ds.add(0.0, CellId.from_label("C1"), "probe", 0.0612)
    ds.add(5.0, CellId.from_label("E5"), "peer-1", 0.1043)
    path = tmp_path / "campaign.csv"
    ds.save_csv(path)
    loaded = MeasurementDataset.load_csv(path)
    assert len(loaded) == 2
    assert loaded.rtts_in(CellId.from_label("C1"))[0] == pytest.approx(
        0.0612, abs=1e-6)


def test_dataset_csv_missing_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="missing columns"):
        MeasurementDataset.load_csv(path)


def test_dataset_readonly_views():
    ds = MeasurementDataset()
    ds.add(0.0, CellId(0, 0), "t", 0.05)
    with pytest.raises(ValueError):
        ds.rtts[0] = 9.9


# ---------------------------------------------------------------------------
# CellStatistics
# ---------------------------------------------------------------------------

def fill(ds, cell, values):
    for i, v in enumerate(values):
        ds.add(float(i), cell, "t", v)


def test_stats_masking_below_threshold(grid):
    ds = MeasurementDataset()
    full = CellId.from_label("C3")
    sparse = CellId.from_label("A1")
    fill(ds, full, [0.06] * 12)
    fill(ds, sparse, [0.06] * 9)     # below the 10-sample threshold
    stats = CellStatistics(grid, ds)
    assert not stats.aggregate(full).masked
    agg = stats.aggregate(sparse)
    assert agg.masked and agg.mean_s == 0.0 and agg.std_s == 0.0
    assert agg.count == 9
    assert sparse in [a.cell for a in stats.masked_cells()]


def test_stats_mean_and_std(grid):
    ds = MeasurementDataset()
    cell = CellId.from_label("C3")
    values = [0.060, 0.062, 0.064, 0.066] * 5
    fill(ds, cell, values)
    stats = CellStatistics(grid, ds)
    agg = stats.aggregate(cell)
    assert agg.mean_s == pytest.approx(np.mean(values))
    assert agg.std_s == pytest.approx(np.std(values, ddof=1))


def test_stats_extreme_cells(grid):
    ds = MeasurementDataset()
    lo, hi = CellId.from_label("C1"), CellId.from_label("C3")
    steady, wild = CellId.from_label("B3"), CellId.from_label("E5")
    fill(ds, lo, [0.061] * 12)
    fill(ds, hi, [0.110] * 12)
    fill(ds, steady, [0.070 + 0.0001 * i for i in range(12)])
    fill(ds, wild, [0.060, 0.150] * 6)
    stats = CellStatistics(grid, ds)
    assert stats.min_mean_cell().cell == lo
    assert stats.max_mean_cell().cell == hi
    assert stats.min_std_cell().cell in (lo, hi, steady)  # zeros tie
    assert stats.max_std_cell().cell == wild


def test_stats_overall_mean_excludes_masked(grid):
    ds = MeasurementDataset()
    fill(ds, CellId.from_label("C1"), [0.060] * 12)
    fill(ds, CellId.from_label("C2"), [0.080] * 12)
    fill(ds, CellId.from_label("A1"), [9.0] * 3)   # masked outlier
    stats = CellStatistics(grid, ds)
    assert stats.overall_mean_s() == pytest.approx(0.070)


def test_stats_matrices(grid):
    ds = MeasurementDataset()
    fill(ds, CellId.from_label("C1"), [0.061] * 12)
    stats = CellStatistics(grid, ds)
    mat = stats.mean_matrix_ms()
    assert mat.shape == (7, 6)
    assert mat[0, 2] == pytest.approx(61.0)
    assert mat[6, 5] == 0.0  # untouched cell masked as 0.0


def test_stats_sort_the_measured_cells_once(grid, monkeypatch):
    """The headline numbers reuse the sorted list construction made;
    callers get copies of it."""
    import repro.probes.stats as stats_module

    ds = MeasurementDataset()
    fill(ds, CellId.from_label("C3"), [0.061] * 12)
    fill(ds, CellId.from_label("A2"), [0.070, 0.090] * 6)
    fill(ds, CellId.from_label("B1"), [0.05] * 3)   # masked
    sorts = []

    def counted(*args, **kwargs):
        sorts.append(1)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(stats_module, "sorted", counted, raising=False)
    stats = CellStatistics(grid, ds)
    assert len(sorts) == 1
    stats.min_mean_cell(), stats.max_mean_cell(), stats.overall_mean_s()
    stats.min_std_cell(), stats.max_std_cell()
    assert len(sorts) == 1
    cells = stats.measured_cells()
    assert [a.cell.label for a in cells] == ["A2", "C3"]
    cells.clear()
    assert stats.max_mean_cell().cell == CellId.from_label("A2")


def test_pairwise_sums_match_numpy_for_every_length():
    """numpy's pairwise sum, emulated for lengths 1..128 (under 8, the
    8-block tail) and handed to numpy above that: sums, means and
    standard deviations for every length 1..1000, bit for bit."""
    import repro.probes.stats as stats_module

    def pairwise_sums(values, starts, lengths):
        sums = stats_module._PairwiseSums(starts, lengths, len(values))
        return sums(np.append(values, -0.0))

    rng = np.random.default_rng(32)
    for n in range(1, 1001):
        # magnitudes spread over six decades, so rounding shows
        values = rng.exponential(0.05, n) * 10.0 ** rng.uniform(-3, 3, n)
        start, length = np.array([0]), np.array([n])
        if n <= 128:
            assert pairwise_sums(values, start, length)[0] \
                == np.add.reduce(values), n
        if n == 1:
            continue     # std(ddof=1) of one sample is numpy's nan
        means, stds = stats_module._moments(values, start, length,
                                            np.array([True]))
        assert means[0] == values.mean(), n
        assert stds[0] == values.std(ddof=1), n
    # Many slices at once, of mixed lengths, in one array.
    lengths = rng.integers(1, 129, 60)
    starts = np.cumsum(lengths) - lengths
    values = rng.exponential(0.05, int(lengths.sum()))
    assert np.array_equal(
        pairwise_sums(values, starts, lengths),
        [np.add.reduce(values[a:a + n]) for a, n in zip(starts, lengths)])


def test_stats_on_interleaved_rows_equal_masked_numpy(grid):
    """Rows of many cells in shuffled order (a cell over 128 samples,
    cells under 8 and under 10, one sample off the grid): every cell's
    mean and std equal numpy's on the cell's mask, bit for bit."""
    rng = np.random.default_rng(7)
    sizes = {"A1": 3, "A2": 9, "B4": 10, "C3": 17, "D6": 64, "E5": 129,
             "F7": 300, "C1": 1}
    rows = [(CellId.from_label(label), float(rng.exponential(0.05)))
            for label, size in sizes.items() for _ in range(size)]
    rows.append((CellId(8, 2), 0.5))     # outside the 6 x 7 grid
    ds = MeasurementDataset()
    for index in rng.permutation(len(rows)).tolist():
        cell, rtt = rows[index]
        ds.add(float(index), cell, "t", rtt)
    stats = CellStatistics(grid, ds)
    cols, rows_ = ds.cell_columns()
    for cell in grid.cells():
        values = ds.rtts[(cols == cell.col) & (rows_ == cell.row)]
        agg = stats.aggregate(cell)
        assert agg.count == values.size
        if values.size < 10:
            assert agg.masked and agg.mean_s == agg.std_s == 0.0
        else:
            assert not agg.masked
            assert agg.mean_s == float(values.mean())
            assert agg.std_s == float(values.std(ddof=1))
    assert [a.cell.label for a in stats.measured_cells()] == \
        ["B4", "C3", "D6", "E5", "F7"]


def test_stats_empty_dataset_raises(grid):
    stats = CellStatistics(grid, MeasurementDataset())
    with pytest.raises(ValueError):
        stats.overall_mean_s()
    with pytest.raises(ValueError):
        stats.min_mean_cell()


def test_stats_validation(grid):
    with pytest.raises(ValueError):
        CellStatistics(grid, MeasurementDataset(), min_samples=0)
    stats = CellStatistics(grid, MeasurementDataset())
    with pytest.raises(KeyError):
        stats.aggregate(CellId(20, 20))
