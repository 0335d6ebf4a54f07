"""Fig. 3 — per-cell standard deviation of the RTL.

Paper values reproduced (default seed):

* sigma spans **~1.8 ms at B3** (Frankfurt-breakout cell: long but
  deterministic path) to **~46.4 ms at E5** (coverage boundary:
  handover interruptions inside measurement windows);
* "large variance highlights significant inter-cell and intra-cell
  latency differences".

Timed work: the per-cell aggregation over the campaign dataset.
"""

from repro import units
from repro.probes import CellStatistics


def test_fig3_std_aggregation(benchmark, evaluation):
    def aggregate():
        return CellStatistics(evaluation.scenario.grid, evaluation.dataset)

    stats = benchmark(aggregate)

    low = stats.min_std_cell()
    high = stats.max_std_cell()
    assert low.cell.label == "B3"
    assert high.cell.label == "E5"
    assert low.std_s < units.ms(4.0)          # paper: 1.8 ms
    assert units.ms(38.0) < high.std_s < units.ms(55.0)  # paper: 46.4 ms

    # Inter-cell spread: the std-dev field itself varies by >10x.
    assert high.std_s / low.std_s > 10.0

    print("\n" + evaluation.figure3())
    print(f"\npaper:    1.8 ms (B3) .. 46.4 ms (E5)")
    print(f"measured: {units.to_ms(low.std_s):.1f} ms ({low.cell.label}) "
          f".. {units.to_ms(high.std_s):.1f} ms ({high.cell.label})")
