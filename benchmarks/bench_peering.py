"""Section V-A — local peering optimization.

Paper claims reproduced:

* local peering collapses the multi-country detour to a metro hop
  (the Gupta et al. pattern: IXP peering shrinking 300+ ms paths);
* round-trip latency approaches **~1 ms** (Horvath [3]);
* the AS path drops from six systems to two.

Timed work: the full what-if — IXP creation, peering session, BGP
re-convergence, re-trace.
"""

from repro import units
from repro.core import LocalPeeringExperiment
from repro.scenarios import build, klagenfurt


def test_local_peering_experiment(benchmark):
    def run_experiment():
        scenario = build(klagenfurt(), seed=42)
        return LocalPeeringExperiment(scenario).run()

    outcome = benchmark(run_experiment)

    assert outcome.detour_eliminated
    assert outcome.after_rtt_s < units.ms(1.5)       # paper: ~1 ms
    assert outcome.before_rtt_s > units.ms(55.0)
    assert len(outcome.before_as_path) == 6
    assert len(outcome.after_as_path) == 2
    assert outcome.before_path_km > 2000.0
    assert outcome.after_path_km < 20.0

    print(f"\npaper:    detour removal; RTT down to ~1 ms")
    print(f"measured: {units.to_ms(outcome.before_rtt_s):.1f} ms / "
          f"{outcome.before_path_km:.0f} km  ->  "
          f"{units.to_ms(outcome.after_rtt_s):.2f} ms / "
          f"{outcome.after_path_km:.1f} km "
          f"({outcome.rtt_reduction_factor:.0f}x)")
