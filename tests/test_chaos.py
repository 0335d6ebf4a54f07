"""Chaos suite: the fleet service under deterministic fault schedules.

Every scenario drives the real stack — HTTP server, retrying client,
worker loop, journaled broker — through a :class:`FaultSchedule` and
then asserts the one property the whole fault-tolerance layer exists
for: **the records are byte-identical to a serial run_sweep of the
same sweep**, and no acked run is ever evaluated twice.  Faults fire
by count, never by chance, so a failing scenario replays exactly.
"""

import threading
import time

import pytest

import repro.service.server as server_module
from repro.fleet import ResultCache, SweepAxis, SweepSpec, run_sweep
from repro.fleet.store import FleetStore
from repro.scenarios import klagenfurt
from repro.service import (
    FleetBroker,
    FleetJournal,
    ReproService,
    RetryPolicy,
    ServiceClient,
    run_worker,
)
from repro.service.contracts import ResultSubmission
from repro.testing import (
    FaultInjected,
    FaultSchedule,
    FaultSpec,
    SimulatedCrash,
    corrupt_cache_entry,
    oversized_body,
    slow_client,
)

AXIS = "campaign.handover_interruption_s"


@pytest.fixture(scope="module")
def sweep():
    return SweepSpec(bases=(klagenfurt(),),
                     axes=(SweepAxis(AXIS, (30e-3, 60e-3)),),
                     seeds=(42,), density=2.0)


@pytest.fixture(scope="module")
def runs(sweep):
    return sweep.expand()


@pytest.fixture(scope="module")
def serial_records(sweep):
    """The byte-identity baseline every chaos scenario must match."""
    result = run_sweep(sweep, executor="serial")
    return {record.run_id: record.to_dict()
            for record in result.records}


@pytest.fixture(scope="module")
def group_sweep():
    """Four runs, one build key: one leased group, so the worker posts
    its first result alone and the other three as one batch."""
    return SweepSpec(bases=(klagenfurt(),),
                     axes=(SweepAxis(AXIS, (30e-3, 45e-3, 60e-3,
                                            75e-3)),),
                     seeds=(42,), density=2.0)


@pytest.fixture(scope="module")
def group_records(group_sweep):
    return {record.run_id: record.to_dict()
            for record in run_sweep(group_sweep).records}


class FakeClock:
    """The broker's lease clock, advanced by hand: leases expire when
    a test says so, not after a real TTL."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


RETRY = RetryPolicy(max_attempts=6, base_delay_s=0.02, max_delay_s=0.2)


def _worker(url, schedule=None, **kwargs):
    """A worker thread that treats an injected kill like a real one:
    the process just stops, leaving its lease to expire."""
    options = dict(poll_s=0.05, max_idle_s=2.0, retry=RETRY)
    options.update(kwargs)

    def target():
        try:
            run_worker(url, fault_hook=schedule, **options)
        except FaultInjected:
            pass
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


def _wait_complete(client, fleet_id, timeout_s=120.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if client.status(fleet_id).complete:
            return client.status(fleet_id)
        time.sleep(0.05)
    raise AssertionError(f"fleet {fleet_id} did not complete")


def _assert_identical(client, fleet_id, runs, serial_records):
    for run in runs:
        assert client.record(fleet_id, run.run_id) == \
            serial_records[run.run_id]


# ---------------------------------------------------------------------------
# Network faults: drops and duplicates around live HTTP workers
# ---------------------------------------------------------------------------

def test_dropped_requests_and_responses_stay_bit_identical(
        tmp_path, sweep, runs, serial_records):
    """Lease request lost, result response lost (the ambiguous case),
    result delivered twice — retries + idempotency absorb all three
    and the records never drift from serial."""
    schedule = FaultSchedule([
        FaultSpec(op="POST /lease", action="drop-request", times=1),
        FaultSpec(op="POST /results", action="drop-response", times=1),
        FaultSpec(op="POST /results", action="duplicate", times=1),
    ])
    service = ReproService(tmp_path / "root", port=0)
    service.start()
    try:
        client = ServiceClient(service.url)
        ack = client.submit_sweep(sweep.to_dict())
        worker = _worker(service.url, schedule, worker_id="chaos-net")
        status = _wait_complete(client, ack.fleet_id)
        worker.join(timeout=60.0)

        assert status.done == len(runs)
        # All three faults actually fired; the run was still counted
        # exactly once each.
        assert schedule.fired_actions("drop-request") == 1
        assert schedule.fired_actions("drop-response") == 1
        assert schedule.fired_actions("duplicate") == 1
        _assert_identical(client, ack.fleet_id, runs, serial_records)
    finally:
        service.stop()


def test_duplicated_submission_creates_exactly_one_fleet(
        tmp_path, runs):
    """The network delivering POST /fleets twice must not enqueue the
    sweep twice — the client-generated submission key dedups it."""
    schedule = FaultSchedule([
        FaultSpec(op="POST /fleets", action="duplicate", times=1),
    ])
    service = ReproService(tmp_path / "root", port=0)
    service.start()
    try:
        client = ServiceClient(service.url, retry=RETRY,
                               fault_hook=schedule)
        ack = client.submit_runs([run.to_dict() for run in runs])
        assert schedule.fired_actions("duplicate") == 1
        assert service.broker.fleet_ids() == [ack.fleet_id]
    finally:
        service.stop()


# ---------------------------------------------------------------------------
# Worker killed mid-run: lease expiry + re-evaluation
# ---------------------------------------------------------------------------

def test_worker_killed_posting_its_result_stays_bit_identical(
        tmp_path, sweep, runs, serial_records):
    """The doomed worker evaluates a run and dies posting it.  Its
    lease expires, another worker re-evaluates, and determinism makes
    the re-evaluated record indistinguishable from the lost one."""
    schedule = FaultSchedule([
        FaultSpec(op="POST /results", action="kill", times=1),
    ])
    clock = FakeClock()
    service = ReproService(tmp_path / "root", port=0, lease_ttl_s=10.0)
    service.broker.clock = clock       # leases expire when told to
    service.start()
    try:
        client = ServiceClient(service.url)
        ack = client.submit_sweep(sweep.to_dict())
        doomed = _worker(service.url, schedule, worker_id="doomed")
        doomed.join(timeout=60.0)
        assert schedule.fired_actions("kill") == 1
        clock.advance(11.0)               # the doomed leases expire
        healthy = _worker(service.url, worker_id="healthy")
        status = _wait_complete(client, ack.fleet_id)
        healthy.join(timeout=60.0)

        assert status.done == len(runs)
        assert status.workers == 1        # only the healthy one landed
        # The doomed worker leased alone, so its fair share was the
        # whole build-key group; none of it landed, so all of it went
        # back to the queue.
        assert service.broker.requeues == len(runs)
        _assert_identical(client, ack.fleet_id, runs, serial_records)
    finally:
        service.stop()


def test_worker_killed_mid_batch_loses_only_its_unacked_runs(
        tmp_path, group_sweep, group_records):
    """The doomed worker's first result is acked; it dies sending the
    batch with the other three.  Only those three requeue, the
    finisher evaluates exactly them, and the fleet matches serial."""
    schedule = FaultSchedule([
        FaultSpec(op="POST /results", after=1, action="kill", times=1),
    ])
    clock = FakeClock()
    service = ReproService(tmp_path / "root", port=0, lease_ttl_s=10.0)
    service.broker.clock = clock       # leases expire when told to
    service.start()
    try:
        client = ServiceClient(service.url)
        ack = client.submit_sweep(group_sweep.to_dict())
        doomed = _worker(service.url, schedule, worker_id="doomed")
        doomed.join(timeout=60.0)
        assert schedule.fired_actions("kill") == 1
        assert client.status(ack.fleet_id).done == 1
        clock.advance(11.0)               # the unacked leases expire
        finished = run_worker(service.url, worker_id="finisher",
                              poll_s=0.05, max_idle_s=0.5, retry=RETRY)
        status = client.status(ack.fleet_id)
        assert finished == 3
        assert status.complete and status.workers == 2
        assert service.broker.requeues == 3
        for run in group_sweep.expand():
            assert client.record(ack.fleet_id, run.run_id) == \
                group_records[run.run_id]
    finally:
        service.stop()


def test_a_lost_batch_answer_is_retried_as_duplicates(
        tmp_path, group_sweep, group_records):
    """The server lands a batch but its answer is lost: the retry acks
    every item as a duplicate — no second record, no second journal
    ack."""
    schedule = FaultSchedule([
        FaultSpec(op="POST /results", after=1, action="drop-response",
                  times=1),
    ])
    service = ReproService(tmp_path / "root", port=0)
    service.start()
    try:
        client = ServiceClient(service.url)
        ack = client.submit_sweep(group_sweep.to_dict())
        completed = run_worker(service.url, worker_id="retrier",
                               poll_s=0.05, max_idle_s=0.5, retry=RETRY,
                               fault_hook=schedule)
        assert schedule.fired == [("POST /results", "drop-response")]
        assert completed == 4
        assert client.status(ack.fleet_id).complete
        acked = [entry["run_id"]
                 for entry in service.journal.iter_types("ack")]
        assert sorted(acked) == sorted(group_records)
        runs_dir = service.broker.fleet_dir(ack.fleet_id) / "runs"
        assert len(list(runs_dir.glob("*.json"))) == 4
        for run in group_sweep.expand():
            assert client.record(ack.fleet_id, run.run_id) == \
                group_records[run.run_id]
    finally:
        service.stop()


# ---------------------------------------------------------------------------
# Misbehaving clients at the HTTP boundary: bodies too big, too slow
# ---------------------------------------------------------------------------

def test_oversized_body_is_refused_and_the_fleet_finishes(
        tmp_path, sweep, runs, serial_records):
    service = ReproService(tmp_path / "root", port=0)
    service.start()
    try:
        for path in ("/fleets", "/results"):
            answer = oversized_body(service.url, path,
                                    limit=server_module.MAX_BODY_BYTES)
            assert answer.startswith(b"HTTP/1.1 413")
            assert b"Connection: close" in answer
        client = ServiceClient(service.url)
        ack = client.submit_sweep(sweep.to_dict())
        worker = _worker(service.url, worker_id="after-413",
                         max_idle_s=0.5)
        _wait_complete(client, ack.fleet_id)
        worker.join(timeout=60.0)
        _assert_identical(client, ack.fleet_id, runs, serial_records)
    finally:
        service.stop()


def test_slow_clients_give_up_their_threads(
        tmp_path, monkeypatch, sweep, runs, serial_records):
    """Clients that stall mid-body are hung up on after the handler
    timeout, while a worker drains a fleet through the same server —
    its own kept-alive connection, idle past the timeout between
    requests, is replaced on the fly."""
    # Every handler gives up after HANDLER_TIMEOUT_S; shortened here.
    assert server_module._Handler.timeout == server_module.HANDLER_TIMEOUT_S
    monkeypatch.setattr(server_module._Handler, "timeout", 0.2)
    service = ReproService(tmp_path / "root", port=0)
    service.start()
    try:
        answers = []
        stalled = [threading.Thread(
            target=lambda: answers.append(slow_client(
                service.url, "/results", timeout_s=10.0)),
            daemon=True) for _ in range(2)]
        for thread in stalled:
            thread.start()
        client = ServiceClient(service.url)
        ack = client.submit_sweep(sweep.to_dict())
        worker = _worker(service.url, worker_id="steady", max_idle_s=0.5)
        _wait_complete(client, ack.fleet_id)
        worker.join(timeout=60.0)
        for thread in stalled:
            thread.join(timeout=10.0)
        assert answers == [b"", b""]      # closed without an answer
        _assert_identical(client, ack.fleet_id, runs, serial_records)
    finally:
        service.stop()


# ---------------------------------------------------------------------------
# Server crash in the ack window: journal + store carry the state
# ---------------------------------------------------------------------------

def test_server_crash_between_journal_and_ack_never_reevaluates(
        tmp_path, runs, serial_records):
    """Crash in the exact window durability must cover: record and
    journal entry are on disk, the ack never left the server.  The
    restarted broker recovers the run as DONE and answers the retried
    submission with a duplicate ack — zero re-evaluation."""
    schedule = FaultSchedule([
        FaultSpec(op="broker.ack", action="crash", times=1),
    ])
    root = tmp_path / "fleets"
    journal_dir = tmp_path / "journal"
    broker = FleetBroker(root, journal=FleetJournal(journal_dir),
                         fault_hook=schedule)
    broker.submit_runs(runs)
    grant, = broker.lease("w1").grants
    first = ResultSubmission(
        lease_id=grant.lease_id,
        record=serial_records[grant.run["run_id"]], wall_s=0.5)
    with pytest.raises(SimulatedCrash):
        broker.submit_result(first)

    # "Restart": a new broker on the same root replays the journal.
    revived = FleetBroker(root, journal=FleetJournal(journal_dir))
    stats = revived.recover()
    assert stats["fleets"] == 1
    assert stats["records"] == 1      # the crashed ack's record held
    assert stats["requeued"] == 0
    # The worker retrying its ambiguous submission is just a duplicate.
    late = revived.submit_result(first)
    assert not late.accepted and late.duplicate
    # The rest of the fleet drains normally.
    grant, = revived.lease("w2").grants
    ack = revived.submit_result(ResultSubmission(
        lease_id=grant.lease_id,
        record=serial_records[grant.run["run_id"]], wall_s=0.5))
    assert ack.accepted
    fleet_id = revived.fleet_ids()[0]
    assert revived.status(fleet_id).complete
    for run in runs:
        assert revived.record(fleet_id, run.run_id).to_dict() == \
            serial_records[run.run_id]


# ---------------------------------------------------------------------------
# Full server restart mid-fleet over HTTP
# ---------------------------------------------------------------------------

def test_server_restart_midfleet_resumes_without_reevaluation(
        tmp_path, sweep, runs, serial_records):
    """Process half the fleet, kill the server, start a fresh one on
    the same state directory: the journal restores the fleet, the
    acked run is never re-evaluated, and the finished fleet is
    byte-identical to serial."""
    root = tmp_path / "root"
    service = ReproService(root, port=0)
    service.start()
    try:
        client = ServiceClient(service.url)
        ack = client.submit_sweep(sweep.to_dict())
        # One worker, one run, then it exits — half the fleet done.
        half = _worker(service.url, worker_id="half", max_runs=1)
        half.join(timeout=60.0)
        assert client.status(ack.fleet_id).done == 1
    finally:
        service.stop()   # the "crash": no drain, no finalize

    revived = ReproService(root, port=0)
    revived.start()
    try:
        # Recovery happened before the socket opened.
        assert revived.recovery["fleets"] == 1
        assert revived.recovery["records"] == 1
        assert revived.recovery["requeued"] == 0
        client = ServiceClient(revived.url)
        assert client.status(ack.fleet_id).done == 1
        # The finishing worker reports how many runs it evaluated —
        # exactly the one that was still pending.
        completed = []
        done = threading.Thread(
            target=lambda: completed.append(run_worker(
                revived.url, worker_id="finisher", poll_s=0.05,
                max_idle_s=2.0, retry=RETRY)),
            daemon=True)
        done.start()
        status = _wait_complete(client, ack.fleet_id)
        done.join(timeout=60.0)
        assert completed == [1]           # zero re-evaluations
        assert status.done == len(runs)
        _assert_identical(client, ack.fleet_id, runs, serial_records)
        # The recovered fleet directory is a normal, loadable store.
        loaded = FleetStore(
            revived.broker.fleet_dir(ack.fleet_id)).load()
        assert [r.to_dict() for r in loaded.records] == \
            [serial_records[run.run_id] for run in runs]
    finally:
        revived.stop()


# ---------------------------------------------------------------------------
# Cache corruption: detected, dropped, recomputed
# ---------------------------------------------------------------------------

def test_corrupt_cache_object_heals_and_stays_bit_identical(
        tmp_path, sweep, runs, serial_records):
    """Seeded on-disk rot in the shared cache must surface as a miss
    (recompute), never as bad data served to a fleet."""
    cache_dir = tmp_path / "cache"
    first = run_sweep(sweep, cache=cache_dir)
    assert [r.to_dict() for r in first.records] == \
        [serial_records[run.run_id] for run in runs]

    corrupt_cache_entry(cache_dir, runs[0].spec_key(), seed=9)

    again = run_sweep(sweep, cache=cache_dir)
    assert [r.to_dict() for r in again.records] == \
        [serial_records[run.run_id] for run in runs]
    # One entry healed (recomputed), the other was a clean hit.
    assert again.exec_stats["result_cache_corrupt"] == 1
    assert again.exec_stats["result_cache_hits"] == 1
    assert again.cached == (False, True)
    # The healed entry is back on disk and intact.
    cache = ResultCache(cache_dir)
    assert cache.get(runs[0].spec_key()) is not None
