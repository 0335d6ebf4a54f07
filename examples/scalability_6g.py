#!/usr/bin/env python
"""Scalability analysis (Sections II-C / III-C): 5G vs 6G.

Reports the requirements verdicts for the paper's application
portfolio under 5G and 6G, and the smart-city / smart-factory
aggregate arithmetic.

Run:  python examples/scalability_6g.py
"""

from repro import units
from repro.apps import SmartCityDeployment, all_profiles, FactoryLine
from repro.core import (
    FIVE_G_CAPABILITY,
    SIX_G_CAPABILITY,
    RequirementsAnalysis,
    render_comparison_table,
)


def requirements_matrix() -> None:
    rows = []
    for capability in (FIVE_G_CAPABILITY, SIX_G_CAPABILITY):
        analysis = RequirementsAnalysis(capability)
        for verdict in analysis.judge_all(all_profiles()):
            rows.append([
                verdict.generation, verdict.application,
                "ok" if verdict.latency_ok else "FAIL",
                "ok" if verdict.bandwidth_ok else "FAIL",
                "ok" if verdict.density_ok else "FAIL",
                verdict.latency_headroom,
            ])
    print(render_comparison_table(
        ["gen", "application", "latency", "bandwidth", "density",
         "headroom"],
        rows, title="Requirements analysis (Section III)"))


def aggregates() -> None:
    city = SmartCityDeployment()
    line = FactoryLine()
    print()
    print(f"Smart city: {city.intersections:,} intersections -> "
          f"{units.to_mbps(city.aggregate_bps):,.0f} Mbps aggregate; "
          f"fits 5G peak: {city.fits_in(FIVE_G_CAPABILITY.peak_rate_bps)}, "
          f"fits 6G peak: {city.fits_in(SIX_G_CAPABILITY.peak_rate_bps)}")
    print(f"Smart factory line: {units.to_tb(line.daily_volume_bits):.0f} "
          f"TB/day -> {units.to_mbps(line.mean_rate_bps):.0f} Mbps "
          f"sustained across {line.sensors:,} sensors")


def main() -> None:
    requirements_matrix()
    aggregates()


if __name__ == "__main__":
    main()
