"""Concurrency stress tests, run with the sync watchdog in assert mode.

Three shared objects get hammered from multiple threads with
``repro.sim.sync`` assert mode on — so any guarded-attribute access
without its lock or any inconsistent lock-acquisition order raises
inside the worker threads and fails the test:

* :class:`CompiledScenarioCache` — the memory LRU under contention;
* :class:`ChannelModel` — the shadowing memo, bit-identical to serial;
* :class:`FleetBroker` — N workers racing lease/submit/expire, with
  every run dropped once (a simulated worker death) and resubmitted by
  a zombie after completion; the drained fleet must be bit-identical
  to a serial ``run_sweep``.
"""

import threading

import pytest

from repro.fleet import FleetStore, ResultCache, SweepAxis, SweepSpec, run_sweep
from repro.fleet.compiled import MEMORY_CAPACITY, CompiledScenarioCache
from repro.geo.coords import GeoPoint
from repro.ran.channel import ChannelModel
from repro.scenarios import klagenfurt
from repro.service import FleetBroker
from repro.service.contracts import ResultSubmission
from repro.sim.sync import reset_watchdog, set_assert_mode

AXIS = "campaign.handover_interruption_s"


@pytest.fixture(autouse=True)
def assert_on():
    previous = set_assert_mode(True)
    reset_watchdog()
    try:
        yield
    finally:
        set_assert_mode(previous)
        reset_watchdog()


def run_threads(workers):
    """Run callables on threads; re-raise the first worker exception."""
    errors = []

    def wrap(fn):
        def runner():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - rethrown below
                errors.append(exc)
        return runner

    threads = [threading.Thread(target=wrap(fn), daemon=True)
               for fn in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]


# ---------------------------------------------------------------------------
# CompiledScenarioCache
# ---------------------------------------------------------------------------

class FakeCompiled:
    """Stands in for CompiledScenario: build cost without the physics."""

    def __init__(self, spec, *, seed, density):
        self.spec, self.seed, self.density = spec, seed, density


def test_compiled_cache_two_thread_hammer(monkeypatch):
    monkeypatch.setattr("repro.fleet.compiled.CompiledScenario",
                        FakeCompiled)
    cache = CompiledScenarioCache(directory=None)
    keys = [f"key-{i:02d}" for i in range(2 * MEMORY_CAPACITY)]  # churn
    rounds = 400

    def hammer(offset):
        def work():
            for i in range(rounds):
                key = keys[(i * 3 + offset) % len(keys)]
                compiled = cache.get(None, 0, 1.0, key=key)
                assert isinstance(compiled, FakeCompiled)
        return work

    run_threads([hammer(0), hammer(1), hammer(2), hammer(3)])
    # Every get was either a memory hit or a build (no disk tier), and
    # the LRU never grew past its capacity.
    stats = cache.stats
    assert stats.memory_hits + stats.builds == 4 * rounds
    assert stats.disk_hits == 0 and stats.corrupt == 0
    with cache._lock:
        assert len(cache._memory) <= MEMORY_CAPACITY


# ---------------------------------------------------------------------------
# ChannelModel shadowing memo
# ---------------------------------------------------------------------------

def test_channel_shadowing_bit_identical_under_threads(monkeypatch):
    # A tiny capacity forces constant eviction + re-derivation while
    # four threads hammer the memo — values must still come out
    # bitwise-equal to the serial model (the draw is pure).
    monkeypatch.setattr(ChannelModel, "SHADOW_CACHE_CAPACITY", 16)
    points = [GeoPoint(46.62 + 0.0005 * i, 14.30 + 0.0005 * j)
              for i in range(8) for j in range(8)]
    serial = ChannelModel(3.5e9, seed=7)
    expected = [serial.shadowing_db(p) for p in points]

    shared = ChannelModel(3.5e9, seed=7)

    def hammer(rotation):
        def work():
            order = points[rotation:] + points[:rotation]
            for _ in range(3):
                for point, want in zip(
                        order, expected[rotation:] + expected[:rotation]):
                    assert shared.shadowing_db(point) == want
        return work

    run_threads([hammer(0), hammer(16), hammer(32), hammer(48)])
    # and a final single-threaded readback matches too
    assert [shared.shadowing_db(p) for p in points] == expected


# ---------------------------------------------------------------------------
# FleetBroker: lease/submit/expire race
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def stress_sweep():
    return SweepSpec(
        bases=(klagenfurt(),),
        axes=(SweepAxis(AXIS, (30e-3, 45e-3, 60e-3)),),
        seeds=(42, 43),
        density=2.0,
    )


@pytest.fixture(scope="module")
def stress_serial(stress_sweep):
    result = run_sweep(stress_sweep, executor="serial")
    return {record.run_id: record for record in result.records}


def test_broker_stress_no_lost_or_duplicated_runs(
        tmp_path, stress_sweep, stress_serial):
    cache = ResultCache(tmp_path / "cache")
    broker = FleetBroker(tmp_path / "fleets", cache=cache,
                         lease_ttl_s=0.2)
    ack = broker.submit_sweep(stress_sweep)
    total = ack.total
    assert ack.cached == 0

    state_lock = threading.Lock()
    dropped: set[str] = set()      # run_ids whose first lease "died"
    zombies = []                   # the grants those dead workers held
    accepted = []

    def worker(worker_id):
        def work():
            while True:
                grants = broker.lease(worker_id).grants
                if not grants:
                    if broker.status(ack.fleet_id).complete:
                        return
                    broker.expire_leases()
                    continue
                grant, = grants
                run_id = grant.run["run_id"]
                with state_lock:
                    first_sight = run_id not in dropped
                    if first_sight:
                        dropped.add(run_id)
                        zombies.append(grant)
                if first_sight:
                    continue  # simulate a worker death mid-run
                result = broker.submit_result(ResultSubmission(
                    lease_id=grant.lease_id,
                    record=stress_serial[run_id].to_dict(),
                    wall_s=0.001))
                if result.accepted:
                    with state_lock:
                        accepted.append(run_id)
        return work

    run_threads([worker(f"w{i}") for i in range(4)])

    # no lost runs, no double-counted runs
    status = broker.status(ack.fleet_id)
    assert status.complete and status.done == total
    assert sorted(accepted) == sorted(stress_serial)
    assert len(zombies) == total          # every run died exactly once
    assert broker.requeues >= total       # ...and was requeued

    # every zombie finishing late is a duplicate, never an error
    for grant in zombies:
        run_id = grant.run["run_id"]
        late = broker.submit_result(ResultSubmission(
            lease_id=grant.lease_id,
            record=stress_serial[run_id].to_dict(), wall_s=0.001))
        assert not late.accepted and late.duplicate

    # the drained fleet is bit-identical to the serial sweep
    loaded = FleetStore(broker.fleet_dir(ack.fleet_id)).load()
    assert [r.to_dict() for r in loaded.records] == \
        [stress_serial[run.run_id].to_dict()
         for run in stress_sweep.expand()]

    # and the shared cache can prefill an identical resubmission fully
    again = broker.submit_sweep(stress_sweep)
    assert again.cached == total
