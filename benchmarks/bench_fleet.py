"""Fleet engine — serial vs. parallel execution of a parameter sweep.

Measures the wall-clock of the same 8-variant x 4-seed fleet (both
registered cities x four handover-interruption settings) executed
by the ``batch`` backend in one process and with its 8 build-key
groups spread over 4 processes, and pins the engine's core contract:
the two executions produce bit-identical run records.

Run directly::

    PYTHONPATH=src python -m pytest benchmarks/bench_fleet.py -s
"""

import os
import time

from repro.fleet import SweepAxis, SweepSpec, run_sweep
from repro.scenarios import klagenfurt, skopje

#: Worker count; ``os.cpu_count()`` under-reports in containers with a
#: cgroup CPU quota, so default to the sweep's natural width of 4.
JOBS = int(os.environ.get("FLEET_BENCH_JOBS", "4"))


def make_sweep() -> SweepSpec:
    """8 variants x 4 seeds at light sampling density: 32 runs."""
    return SweepSpec(
        bases=(klagenfurt(), skopje()),
        axes=(SweepAxis("campaign.handover_interruption_s",
                        (30e-3, 45e-3, 60e-3, 75e-3)),),
        seeds=(42, 43, 44, 45),
        density=2.0,
    )


def test_serial_vs_parallel_speedup():
    sweep = make_sweep()
    assert sweep.run_count == 32

    started = time.perf_counter()
    serial = run_sweep(sweep, jobs=1)
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    parallel = run_sweep(sweep, jobs=JOBS)
    parallel_s = time.perf_counter() - started

    # The engine's determinism contract: records are a pure function of
    # (spec, seed, density), so the executor must not leak into them.
    assert [r.to_dict() for r in serial.records] == \
        [r.to_dict() for r in parallel.records]

    print(f"\n32-run fleet: serial {serial_s:.2f} s, "
          f"parallel (jobs={JOBS}) {parallel_s:.2f} s "
          f"-> speedup {serial_s / parallel_s:.2f}x")


def test_parallel_overhead_is_bounded():
    """Worker fan-out cost stays small against the useful work."""
    sweep = make_sweep()
    result = run_sweep(sweep, jobs=JOBS)
    busy = sum(result.run_wall_s)
    # Wall time never exceeds doing all the work serially plus a
    # generous pool-startup allowance.
    assert result.wall_s < busy + 10.0
    print(f"\ncumulative run time {busy:.2f} s across {JOBS} workers "
          f"in {result.wall_s:.2f} s wall")
