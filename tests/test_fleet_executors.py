"""Tests for the pluggable executor API: the backend registry, the
three shipped backends, map semantics, build-key-group dispatch over a
process pool, and ownership rules."""

import multiprocessing
from concurrent.futures import Future

import pytest

from repro.fleet import (
    BACKENDS,
    BatchExecutor,
    FleetStore,
    RemoteExecutor,
    RunOutcome,
    SerialExecutor,
    SweepAxis,
    SweepSpec,
    make_executor,
    run_one,
    run_sweep,
)
from repro.scenarios import klagenfurt, skopje

AXIS = "campaign.handover_interruption_s"
DENSITY = 2.0


def small_sweep(**kwargs) -> SweepSpec:
    defaults = dict(
        bases=(klagenfurt(),),
        axes=(SweepAxis(AXIS, (30e-3, 60e-3)),),
        seeds=(42,),
        density=DENSITY,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def interleaved_sweep() -> SweepSpec:
    """Eight build keys (2 cities x 2 sigmas x 2 seeds) of two runs each,
    interleaved in expansion order because seeds iterate innermost."""
    return SweepSpec(
        bases=(klagenfurt(), skopje()),
        axes=(SweepAxis("radio.shadowing_sigma_db", (4.0, 6.0)),
              SweepAxis(AXIS, (30e-3, 60e-3))),
        seeds=(42, 43),
        density=DENSITY,
    )


def records(result) -> list[str]:
    return [record.to_json() for record in result.records]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def test_registry_names_the_three_backends():
    assert set(BACKENDS) == {"serial", "batch", "remote"}
    assert isinstance(make_executor("serial"), SerialExecutor)
    batch = make_executor("batch", jobs=3)
    assert isinstance(batch, BatchExecutor) and batch.jobs == 3
    assert isinstance(make_executor("remote", server="http://127.0.0.1:9"),
                      RemoteExecutor)


def test_remote_backend_requires_a_server_url():
    with pytest.raises(ValueError, match="server"):
        make_executor("remote")


def test_make_executor_rejects_unknown_options():
    with pytest.raises(ValueError, match="bad options"):
        make_executor("serial", frobnicate=True)


def test_unknown_backend_is_clean_error():
    with pytest.raises(ValueError, match="unknown backend 'process'"):
        make_executor("process")


def test_backend_validates_jobs():
    with pytest.raises(ValueError, match="jobs must be"):
        BatchExecutor(jobs=0)


# ---------------------------------------------------------------------------
# The protocol surface
# ---------------------------------------------------------------------------

def test_serial_map_yields_timed_outcomes():
    runs = small_sweep().expand()
    with SerialExecutor() as executor:
        outcomes = list(executor.map(runs))
    assert all(isinstance(outcome, RunOutcome) for outcome in outcomes)
    assert [o.record.run_id for o in outcomes] == [r.run_id for r in runs]
    assert all(o.wall_s > 0.0 and not o.cached for o in outcomes)


def test_map_on_empty_run_list_yields_nothing():
    with BatchExecutor(jobs=2) as executor:
        assert list(executor.map([])) == []


# ---------------------------------------------------------------------------
# Backend equivalence (the determinism contract across the seam)
# ---------------------------------------------------------------------------

def test_all_backends_produce_bit_identical_records():
    # Eight build-key groups, more than any pool here has workers, and
    # no two consecutive runs share a group: outcomes from the calling
    # process and from pool processes must merge back in input order.
    sweep = interleaved_sweep()
    runs = sweep.expand()
    assert len({run.build_key() for run in runs}) == 8
    assert all(a.build_key() != b.build_key()
               for a, b in zip(runs, runs[1:]))
    serial = run_sweep(sweep, executor="serial")
    assert serial.backend == "serial"
    for jobs in (1, 2, 3):
        batch = run_sweep(sweep, executor="batch", jobs=jobs)
        assert batch.backend == "batch" and batch.jobs == jobs
        assert records(batch) == records(serial)


class InlinePool:
    """A pool whose every task has finished by the time ``submit``
    returns, so no task can be cancelled any more."""

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, cancel_futures=False):
        pass


def test_a_group_the_pool_finished_is_not_rerun_locally():
    # Two build keys of one run each: the pool's group is collected
    # right after this process's first run, and must not be evaluated
    # again when the walk over the groups reaches it.
    runs = small_sweep(seeds=(42, 43), axes=()).expand()
    with BatchExecutor(jobs=2) as executor:
        executor._pool = InlinePool()
        outcomes = list(executor.map(runs))
        assert (executor.compiled.stats.builds,
                executor.compiled.stats.hits) == (2, 0)
    with SerialExecutor() as serial:
        assert [o.record.to_json() for o in outcomes] == \
            [o.record.to_json() for o in serial.map(runs)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_build_counts_include_pool_builds(jobs):
    # 8 build keys x 4 runs: one build per key wherever it ran.
    sweep = SweepSpec(
        bases=(klagenfurt(), skopje()),
        axes=(SweepAxis("radio.shadowing_sigma_db", (4.0, 6.0)),
              SweepAxis(AXIS, (0.03, 0.04, 0.05, 0.06))),
        seeds=(42, 43),
        density=DENSITY,
    )
    stats = run_sweep(sweep, jobs=jobs).exec_stats
    assert stats == {"builds_performed": 8, "builds_reused": 24}


def test_jobs_alone_still_selects_the_backend():
    # No backend named: batch, sized by jobs.
    assert run_sweep(small_sweep()).backend == "batch"
    pooled = run_sweep(small_sweep(), jobs=2)
    assert pooled.backend == "batch" and pooled.jobs == 2


def test_single_group_sweep_starts_no_pool():
    runs = small_sweep().expand()   # sampling-only axis: one build key
    assert len({run.build_key() for run in runs}) == 1
    before = set(multiprocessing.active_children())
    with BatchExecutor(jobs=2) as executor:
        list(executor.map(runs))
        assert set(multiprocessing.active_children()) == before
        # Two groups do start one, kept until close.
        list(executor.map(small_sweep(seeds=(42, 43)).expand()))
        assert set(multiprocessing.active_children()) - before
    assert set(multiprocessing.active_children()) == before


def test_pool_group_error_surfaces_and_close_leaves_no_pool():
    # The second group cannot build (negative sigma); it is shipped to
    # the pool while this process evaluates the first.
    sweep = small_sweep(axes=(SweepAxis("radio.shadowing_sigma_db",
                                        (4.0, -1.0)),))
    before = set(multiprocessing.active_children())
    executor = BatchExecutor(jobs=2)
    with pytest.raises(ValueError, match="shadowing sigma"):
        list(executor.map(sweep.expand()))
    assert set(multiprocessing.active_children()) - before
    executor.close(cancel=True)
    assert set(multiprocessing.active_children()) == before


def test_caller_supplied_executor_is_left_open():
    executor = BatchExecutor(jobs=2)
    first = run_sweep(small_sweep(seeds=(42, 43)), executor=executor)
    second = run_sweep(small_sweep(seeds=(42, 43)), executor=executor)
    executor.close()
    assert records(first) == records(second)


def test_fleet_written_by_a_retired_backend_still_resumes(tmp_path):
    sweep = small_sweep(seeds=(42, 43))
    out = tmp_path / "fleet"
    full = run_sweep(sweep, executor="serial", out=str(out))
    manifest = out / "manifest.json"
    manifest.write_text(manifest.read_text().replace(
        '"backend": "serial"', '"backend": "process"'))
    assert FleetStore(out).load().backend == "process"
    sorted((out / "runs").glob("*.json"))[0].unlink()
    resumed = FleetStore(out).resume(jobs=2)
    assert resumed.cached_count == len(resumed) - 1
    assert records(resumed) == records(full)


# ---------------------------------------------------------------------------
# run_one fallback id (collision fix)
# ---------------------------------------------------------------------------

def test_default_run_id_distinguishes_variants():
    base = klagenfurt()
    variant = base.with_overrides({AXIS: 31e-3})
    record_a = run_one(base.to_json(), 42, DENSITY)
    record_b = run_one(variant.to_json(), 42, DENSITY)
    # same scenario name and seed, different overrides: ids must differ
    assert record_a.scenario == record_b.scenario == "klagenfurt"
    assert record_a.run_id != record_b.run_id
    assert record_a.run_id.startswith("klagenfurt-s42-")


def test_default_run_id_is_stable_across_calls():
    spec_json = klagenfurt().to_json()
    assert run_one(spec_json, 42, DENSITY).run_id == \
        run_one(spec_json, 42, DENSITY).run_id


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_sweep_jobs_2(capsys):
    from repro.__main__ import main

    assert main(["sweep", "--scenario", "klagenfurt",
                 "--set", f"{AXIS}=0.03,0.06",
                 "--seeds", "42,43", "--jobs", "2",
                 "--density", "2"]) == 0
    stdout = capsys.readouterr().out
    assert "backend=batch, jobs=2" in stdout
    assert "batch backend, jobs=2" in stdout
    assert "2 builds performed, 2 reused" in stdout


def test_cli_rejects_retired_backends(capsys):
    from repro.__main__ import main

    for retired in ("auto", "process", "thread"):
        with pytest.raises(SystemExit):
            main(["sweep", "--backend", retired])
    assert "invalid choice" in capsys.readouterr().err


def test_cli_progress_flag_gates_per_run_lines(capsys):
    from repro.__main__ import main

    args = ["sweep", "--scenario", "klagenfurt",
            "--set", f"{AXIS}=0.03,0.06", "--seeds", "42",
            "--density", "2"]
    assert main(args) == 0
    quiet = capsys.readouterr().out
    assert "[1/2]" not in quiet
    assert main(args + ["--progress"]) == 0
    chatty = capsys.readouterr().out
    assert "[1/2]" in chatty and "[2/2]" in chatty
    assert "ms mobile mean" in chatty
