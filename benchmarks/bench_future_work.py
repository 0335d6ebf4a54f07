"""Section VI outlook — the 6G upgrade study as a bench.

Not a figure of the paper, but the validation its conclusion promises:
the full campaign re-run over upgrade arms — only **6G + edge
breakout** brings every cell under the 20 ms AR budget and undercuts
the wired baseline ("competitiveness with wired networks").
"""

from repro import units
from repro.core import SixGUpgradeStudy


def test_6g_upgrade_arms(benchmark):
    study = SixGUpgradeStudy(seed=42, mean_positions_per_cell=2.0)

    def run_all_arms():
        return study.run()

    reports = benchmark.pedantic(run_all_arms, rounds=1, iterations=1)

    baseline = reports["5G (measured)"]
    upgraded = reports["6G + edge breakout"]
    assert not SixGUpgradeStudy.meets_requirement(baseline)
    assert SixGUpgradeStudy.meets_requirement(upgraded)
    assert upgraded.mobile_mean_s < baseline.mobile_mean_s / 20.0
    assert upgraded.mobile_mean_s < upgraded.wired_mean_s

    print("\ncampaign mean RTL per upgrade arm:")
    for name, report in reports.items():
        meets = "meets 20 ms" if SixGUpgradeStudy.meets_requirement(
            report) else "misses 20 ms"
        print(f"  {name}: {units.to_ms(report.mobile_mean_s):.1f} ms "
              f"({meets})")
