#!/usr/bin/env python
"""Custom measurement campaigns over the simulated infrastructure.

Demonstrates the lower-level campaign API: build the scenario, inspect
the radio layer, run a drive test with a different sampling intensity,
export the dataset to CSV, and compare two seeds — the kind of workflow
the paper's future-work section describes ("expand the geographical
scope ... refine our findings").

Run:  python examples/measurement_campaign.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import units
from repro.core import InfrastructureEvaluation
from repro.geo.grid import CellId
from repro.scenarios import BuiltScenario, build, klagenfurt


def inspect_radio(scenario: BuiltScenario) -> None:
    print("Radio layer:")
    for gnb in scenario.radio.gnbs():
        cell = scenario.grid.locate(gnb.location)
        print(f"  {gnb.name}: cell {cell.label}, "
              f"base load {gnb.load:.2f}, "
              f"{gnb.config.generation.value} "
              f"{gnb.config.numerology}")
    # Coverage check at the anchor cells.
    for label in ("C1", "C3", "B3", "E5"):
        pos = scenario.grid.cell_center(CellId.from_label(label))
        gnb, sinr = scenario.radio.serving(pos)
        print(f"  {label}: served by {gnb.name} at {sinr:.1f} dB")


def run_and_summarise(seed: int, positions: float) -> None:
    result = InfrastructureEvaluation(seed, positions).run()
    print(f"\nseed={seed}, ~{positions:.0f} positions/cell "
          f"-> {len(result.dataset)} samples")
    print("  " + result.gap.summary().replace("\n", "\n  "))


def export_csv(scenario: BuiltScenario) -> None:
    dataset = scenario.run_campaign(2.0)
    path = Path(tempfile.gettempdir()) / "klagenfurt_campaign.csv"
    dataset.save_csv(path)
    print(f"\nExported {len(dataset)} samples to {path}")
    # Round-trip check
    from repro.probes import MeasurementDataset
    loaded = MeasurementDataset.load_csv(path)
    assert len(loaded) == len(dataset)
    print(f"  re-loaded OK; overall mean "
          f"{units.to_ms(float(np.mean(loaded.rtts))):.1f} ms")


def main() -> None:
    inspect_radio(build(klagenfurt(), seed=42))
    run_and_summarise(seed=42, positions=6.0)
    run_and_summarise(seed=1234, positions=6.0)
    export_csv(build(klagenfurt(), seed=42))


if __name__ == "__main__":
    main()
