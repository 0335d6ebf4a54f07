"""Tests for the fleet service: wire contracts, the lease-based
broker (fake clock — order, expiry, dedup, verification, cache
prefill), the HTTP server + client + worker end to end on localhost,
and the CLI surface.  The load-bearing property throughout: records
coming back through serve + workers are bit-identical to a serial
``run_sweep`` of the same sweep, including after a worker dies
mid-fleet."""

import json
import socket
import struct
import threading
import time
from urllib.error import HTTPError
from urllib.request import Request, urlopen

import pytest

import repro
import repro.service.worker as worker_module
from repro.__main__ import main
from repro.core import SensitivityAnalysis, SixGUpgradeStudy
from repro.fleet import (
    BatchExecutor,
    FleetStore,
    ProgressEvent,
    RemoteExecutor,
    ResultCache,
    RunSpec,
    SerialExecutor,
    SweepAxis,
    SweepSpec,
    run_sweep,
)
from repro.fleet.sweep import pack_runs, unpack_runs
from repro.scenarios import klagenfurt
from repro.service import (
    API_VERSION,
    BrokerBusy,
    ContractError,
    FleetBroker,
    FleetJournal,
    ReproService,
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
    run_worker,
)
from repro.service.broker import RUNS_JOB_MANIFEST
from repro.service.contracts import (
    FleetStatus,
    Health,
    LeaseGrant,
    LeaseGroup,
    ResultAck,
    ResultSubmission,
    SubmitAck,
)
from test_sensitivity import captured_plans, record_bytes

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


@pytest.fixture(scope="module")
def sweep():
    return small_sweep()


@pytest.fixture(scope="module")
def runs(sweep):
    return sweep.expand()


@pytest.fixture(scope="module")
def serial_result(sweep):
    """The bit-identity baseline every distributed path must match."""
    return run_sweep(sweep, executor="serial")


@pytest.fixture(scope="module")
def serial_records(serial_result):
    return {record.run_id: record for record in serial_result.records}


# ---------------------------------------------------------------------------
# Contracts
# ---------------------------------------------------------------------------

def test_contracts_round_trip_through_dicts():
    payloads = [
        Health(version="1.1.0", uptime_s=3.5, fleets=2, running=1,
               cache={"entries": 4}),
        SubmitAck(fleet_id="fleet-0001", total=4, cached=1),
        FleetStatus(fleet_id="fleet-0001", state="running", total=4,
                    done=1, leased=2, pending=1, cached=0, workers=2,
                    wall_s=1.25),
        LeaseGrant(lease_id="fleet-0001:0:1", fleet_id="fleet-0001",
                   run={"run_id": "r0"}, ttl_s=60.0),
        LeaseGroup(grants=(
            LeaseGrant(lease_id="fleet-0001:0:1", fleet_id="fleet-0001",
                       run={"run_id": "r0"}, ttl_s=60.0),
            LeaseGrant(lease_id="fleet-0001:2:1", fleet_id="fleet-0001",
                       run={"run_id": "r2"}, ttl_s=60.0))),
        LeaseGroup(draining=True),
        ResultSubmission(lease_id="fleet-0001:0:1",
                         record={"run_id": "r0"}, wall_s=0.5),
        ResultSubmission(lease_id="fleet-0001:0:1", error="boom"),
        ResultAck(accepted=True),
        ResultAck(accepted=False, duplicate=True),
    ]
    for payload in payloads:
        data = json.loads(json.dumps(payload.to_dict()))
        assert data["api"] == API_VERSION
        assert type(payload).from_dict(data) == payload


def test_contracts_reject_newer_api_versions():
    data = SubmitAck(fleet_id="f", total=1, cached=0).to_dict()
    data["api"] = API_VERSION + 1
    with pytest.raises(ContractError, match="api version"):
        SubmitAck.from_dict(data)


def test_contracts_reject_missing_fields():
    with pytest.raises(ContractError, match="missing"):
        SubmitAck.from_dict({"api": API_VERSION, "total": 3})


def test_result_submission_needs_exactly_one_of_record_and_error():
    with pytest.raises(ContractError, match="exactly one"):
        ResultSubmission(lease_id="x")
    with pytest.raises(ContractError, match="exactly one"):
        ResultSubmission(lease_id="x", record={"run_id": "r"},
                         error="boom")


def test_fleet_status_rejects_unknown_states():
    with pytest.raises(ContractError, match="state"):
        FleetStatus(fleet_id="f", state="paused", total=1, done=0,
                    leased=0, pending=1, cached=0, workers=0, wall_s=0.0)


def test_progress_event_round_trip_and_line(serial_records):
    record = next(iter(serial_records.values()))
    event = ProgressEvent.from_record(1, 2, record, wall_s=0.25)
    assert event.line().startswith(f"  [1/2] {record.run_id}: ")
    assert event.line().endswith("ms mobile mean")
    assert ProgressEvent.from_dict(event.to_dict()) == event


def test_progress_event_decodes_service_wire_envelope(serial_records):
    record = next(iter(serial_records.values()))
    event = ProgressEvent.from_record(2, 2, record, cached=True)
    wire = dict(event.to_dict(), event="run", fleet_id="fleet-0001")
    assert ProgressEvent.from_dict(wire) == event


# ---------------------------------------------------------------------------
# Broker (fake clock, no sockets)
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def broker(tmp_path, clock):
    return FleetBroker(tmp_path / "fleets", lease_ttl_s=10.0,
                       clock=clock)


def _post(broker, grant, record, wall_s=0.01):
    return broker.submit_result(ResultSubmission(
        lease_id=grant.lease_id, record=record.to_dict(),
        wall_s=wall_s))


def test_broker_leases_in_expansion_order(broker, sweep, runs):
    broker.submit_sweep(sweep)
    granted = [broker.lease("w1").grants[0].run["run_id"],
               broker.lease("w2").grants[0].run["run_id"]]
    assert granted == [run.run_id for run in runs]
    assert broker.lease("w3").grants == ()   # queue drained


def test_broker_completes_a_fleet(broker, sweep, runs, serial_records):
    ack = broker.submit_sweep(sweep)
    assert ack.total == 2 and ack.cached == 0
    for _ in runs:
        grant, = broker.lease("w1").grants
        result = _post(broker, grant,
                       serial_records[grant.run["run_id"]])
        assert result.accepted
    status = broker.status(ack.fleet_id)
    assert status.complete and status.done == 2 and status.workers == 1
    # The durable fleet directory is a normal, loadable fleet store.
    loaded = FleetStore(broker.fleet_dir(ack.fleet_id)).load()
    assert loaded.backend == "service"
    assert [r.to_dict() for r in loaded.records] == \
        [serial_records[run.run_id].to_dict() for run in runs]


def test_broker_expires_leases_and_requeues(broker, sweep, clock,
                                            serial_records):
    ack = broker.submit_sweep(sweep)
    dead, = broker.lease("doomed").grants
    clock.advance(11.0)   # past the 10 s TTL
    assert broker.expire_leases() == 1
    assert broker.requeues == 1
    # The same run comes back with a new lease generation.
    grant, = broker.lease("healthy").grants
    assert grant.run["run_id"] == dead.run["run_id"]
    assert grant.lease_id != dead.lease_id
    events = broker.events_since(ack.fleet_id, 0)[0]
    assert any(event["event"] == "requeued" for event in events)


def test_broker_accepts_a_zombies_late_result_only_once(
        broker, sweep, clock, serial_records):
    broker.submit_sweep(sweep)
    zombie, = broker.lease("zombie").grants
    run_id = zombie.run["run_id"]
    clock.advance(11.0)
    fresh, = broker.lease("fresh").grants  # expiry sweep hands it over
    assert fresh.run["run_id"] == run_id
    assert _post(broker, fresh, serial_records[run_id]).accepted
    # The zombie finishing afterwards is a duplicate, not an error,
    # and nothing changes.
    late = _post(broker, zombie, serial_records[run_id])
    assert not late.accepted and late.duplicate


def test_broker_rejects_records_that_fail_verification(
        broker, sweep, runs, serial_records):
    broker.submit_sweep(sweep)
    grant, = broker.lease("w1").grants
    other = runs[1] if grant.run["run_id"] == runs[0].run_id else runs[0]
    with pytest.raises(ValueError, match="content identity"):
        _post(broker, grant, serial_records[other.run_id])
    # The slot is still leased to w1; nothing was stored.
    assert broker.status(grant.fleet_id).done == 0


def test_broker_rejects_unparseable_records(broker, sweep):
    broker.submit_sweep(sweep)
    grant, = broker.lease("w1").grants
    with pytest.raises(ContractError, match="parse"):
        broker.submit_result(ResultSubmission(
            lease_id=grant.lease_id, record={"run_id": "garbage"}))


def test_broker_requeues_reported_failures_immediately(
        broker, sweep, serial_records):
    broker.submit_sweep(sweep)
    grant, = broker.lease("w1").grants
    ack = broker.submit_result(ResultSubmission(
        lease_id=grant.lease_id, error="RuntimeError: boom"))
    assert ack.requeued and not ack.accepted
    # No clock advance needed: the run is immediately leasable again.
    again, = broker.lease("w2").grants
    assert again.run["run_id"] == grant.run["run_id"]


def test_broker_releases_a_complete_fleets_records(
        broker, sweep, runs, serial_records):
    """Completing a fleet drops its records from memory; later
    ``slots``/``record`` reads come from the fleet store and are
    byte-identical to the answers given while the records were held."""
    ack = broker.submit_sweep(sweep)
    first, = broker.lease("w1").grants
    _post(broker, first, serial_records[first.run["run_id"]])
    held_slots, complete = broker.slots(ack.fleet_id)
    assert not complete
    held = json.dumps(held_slots[0], sort_keys=False)
    held_record = broker.record(ack.fleet_id, first.run["run_id"])
    last, = broker.lease("w1").grants
    _post(broker, last, serial_records[last.run["run_id"]])

    with broker._cond:
        fleet = broker._fleets[ack.fleet_id]
        assert fleet.complete
        assert all(slot.record is None for slot in fleet.slots)
    slots, complete = broker.slots(ack.fleet_id)
    assert complete
    assert json.dumps(slots[0], sort_keys=False) == held
    assert [slot["record"] for slot in slots] == \
        [serial_records[run.run_id].to_dict() for run in runs]
    assert broker.slots(ack.fleet_id, since=1)[0] == slots[1:]
    assert broker.record(ack.fleet_id, first.run["run_id"]).to_json() \
        == held_record.to_json()
    assert broker.record(ack.fleet_id, last.run["run_id"]).to_json() \
        == serial_records[last.run["run_id"]].to_json()
    with pytest.raises(LookupError, match="unknown run"):
        broker.record(ack.fleet_id, "no-such-run")


def test_broker_prefills_from_the_shared_cache(tmp_path, clock, sweep,
                                               runs, serial_records):
    cache = ResultCache(tmp_path / "cache")
    for run in runs:
        cache.put(run.spec_key(), serial_records[run.run_id])
    broker = FleetBroker(tmp_path / "fleets", cache=cache, clock=clock)
    ack = broker.submit_sweep(sweep)
    assert ack.cached == 2
    status = broker.status(ack.fleet_id)
    assert status.complete and status.cached == 2
    assert broker.lease("w1").grants == ()   # nothing left to do
    loaded = FleetStore(broker.fleet_dir(ack.fleet_id)).load()
    assert [r.to_dict() for r in loaded.records] == \
        [serial_records[run.run_id].to_dict() for run in runs]


def test_broker_validates_run_list_submissions(broker, runs):
    with pytest.raises(ValueError, match="at least one"):
        broker.submit_runs([])
    with pytest.raises(ValueError, match="duplicate"):
        broker.submit_runs([runs[0], runs[0]])


def test_broker_unknown_ids_raise_lookup_errors(broker):
    with pytest.raises(LookupError):
        broker.status("fleet-9999")
    with pytest.raises(LookupError):
        broker.submit_result(ResultSubmission(
            lease_id="fleet-9999:0:1", record={"run_id": "r"}))


def test_broker_rejects_nonpositive_ttl(tmp_path):
    with pytest.raises(ValueError, match="positive"):
        FleetBroker(tmp_path, lease_ttl_s=0.0)


# ---------------------------------------------------------------------------
# Group leases, long polls, oversized sweeps (fake clock, no sleeps)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def group_sweep():
    """Four runs, one build key: one group."""
    return small_sweep(axes=(SweepAxis(AXIS, (30e-3, 45e-3, 60e-3,
                                              75e-3)),))


@pytest.fixture(scope="module")
def group_records(group_sweep):
    return {record.run_id: record
            for record in run_sweep(group_sweep).records}


def _run_ids(grants):
    return [grant.run["run_id"] for grant in grants]


def _blocked(monkeypatch, broker):
    """An event set each time a caller blocks on the broker's
    condition — so a test acts only once its waiter really waits."""
    event = threading.Event()
    wait = broker._cond.wait

    def spy(timeout=None):
        event.set()
        return wait(timeout)
    monkeypatch.setattr(broker._cond, "wait", spy)
    return event


def _in_thread(call):
    results = []
    thread = threading.Thread(target=lambda: results.append(call()),
                              daemon=True)
    thread.start()
    return thread, results


def test_broker_leases_whole_build_key_groups(broker):
    sweep = small_sweep(seeds=(42, 43))   # two build keys, interleaved
    runs = sweep.expand()
    broker.submit_sweep(sweep)
    first = broker.lease("w1", max_runs=8).grants
    assert _run_ids(first) == [runs[0].run_id, runs[2].run_id]
    assert len({grant.lease_id for grant in first}) == 2
    # max_runs caps the group; the single-run lease is max_runs=1.
    assert _run_ids(broker.lease("w2", max_runs=1).grants) == \
        [runs[1].run_id]
    assert broker.lease("w2").grants[0].run["run_id"] == runs[3].run_id
    assert broker.lease("w3", max_runs=8).grants == ()
    with pytest.raises(ValueError, match="max_runs"):
        broker.lease("w3", max_runs=0)


def _waiters(broker, count, timeout_s=10.0):
    """Block until ``count`` workers wait in a lease call."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        with broker._cond:
            if sum(broker._waiting.values()) == count:
                return
        time.sleep(0.01)
    raise AssertionError(f"{count} lease calls never waited")


def test_waiting_workers_split_a_one_key_group(broker, group_sweep):
    """Two idle workers and one 4-run build-key group: each gets its
    fair share, 2 runs, not one worker the whole group."""
    calls = [_in_thread(lambda worker=worker: broker.lease(
        worker, max_runs=8, wait_s=60.0).grants)
             for worker in ("w1", "w2")]
    _waiters(broker, 2)
    broker.submit_sweep(group_sweep)
    for thread, _ in calls:
        thread.join(10.0)
        assert not thread.is_alive()
    granted = [_run_ids(answers[0]) for _, answers in calls]
    assert [len(ids) for ids in granted] == [2, 2]
    assert sorted(granted[0] + granted[1]) == \
        sorted(run.run_id for run in group_sweep.expand())


def test_fair_share_counts_workers_holding_leases(broker, clock,
                                                 group_sweep):
    """A worker holding leases counts as live: a newcomer gets half of
    what is outstanding, and a dead holder strands only its share."""
    runs = group_sweep.expand()
    broker.submit_sweep(group_sweep)
    assert len(broker.lease("w1", max_runs=1).grants) == 1
    assert _run_ids(broker.lease("w2", max_runs=8).grants) == \
        [run.run_id for run in runs[1:3]]
    clock.advance(10.5)          # both die: every lease expires
    assert broker.expire_leases() == 3
    # Alone again, a worker gets the whole group back.
    assert len(broker.lease("w3", max_runs=8).grants) == 4


def test_group_worker_dying_requeues_only_its_unposted_runs(
        broker, clock, group_sweep, group_records):
    """The worker posts 1 of its 4-run group and dies: that run stays
    done, the other 3 re-queue one TTL after its last post, and the
    finisher evaluates exactly those 3."""
    runs = group_sweep.expand()
    ack = broker.submit_sweep(group_sweep)
    group = broker.lease("doomed", max_runs=8).grants
    assert _run_ids(group) == [run.run_id for run in runs]
    clock.advance(6.0)
    assert _post(broker, group[0], group_records[runs[0].run_id]).accepted
    clock.advance(6.0)   # 12 s after the grant, 6 s after the post
    assert broker.expire_leases() == 0
    clock.advance(4.5)   # 10.5 s after the post: past the 10 s TTL
    assert broker.expire_leases() == 3
    group = broker.lease("finisher", max_runs=8)
    finisher = group.grants
    assert _run_ids(finisher) == [run.run_id for run in runs[1:]]
    evaluated = BatchExecutor().map(unpack_runs(group.packed()))
    for grant, outcome in zip(finisher, evaluated):
        assert _post(broker, grant, outcome.record).accepted
    status = broker.status(ack.fleet_id)
    assert status.complete and status.done == 4 and status.workers == 2
    for run in runs:
        assert broker.record(ack.fleet_id, run.run_id) == \
            group_records[run.run_id]


def test_waiting_lease_wakes_on_submission_and_on_drain(
        monkeypatch, broker, sweep, runs):
    blocked = _blocked(monkeypatch, broker)
    thread, granted = _in_thread(
        lambda: broker.lease("w1", max_runs=8, wait_s=60.0).grants)
    assert blocked.wait(10.0)
    blocked.clear()
    broker.submit_sweep(sweep)
    thread.join(10.0)
    assert not thread.is_alive()
    assert _run_ids(granted[0]) == [run.run_id for run in runs]
    # Nothing left: the next waiter blocks until drain wakes it.
    thread, granted = _in_thread(
        lambda: broker.lease("w2", wait_s=60.0).grants)
    assert blocked.wait(10.0)
    broker.drain()
    thread.join(10.0)
    assert not thread.is_alive() and granted == [()]


def test_waiting_slots_return_when_their_slot_lands(
        monkeypatch, broker, sweep, serial_records):
    ack = broker.submit_sweep(sweep)
    grant, = broker.lease("w1").grants
    blocked = _blocked(monkeypatch, broker)
    thread, answers = _in_thread(
        lambda: broker.slots(ack.fleet_id, since=0, wait_s=60.0))
    assert blocked.wait(10.0)
    _post(broker, grant, serial_records[grant.run["run_id"]])
    thread.join(10.0)
    assert not thread.is_alive()
    slots, complete = answers[0]
    assert slots[0]["state"] == "done" and not complete


def test_giant_sweep_is_refused_before_it_is_expanded(
        tmp_path, clock, monkeypatch):
    def expand(self):
        raise AssertionError("a refused sweep was expanded")
    monkeypatch.setattr(SweepSpec, "expand", expand)
    giant = small_sweep(axes=tuple(
        SweepAxis(AXIS, tuple(value * 1e-3 for value in range(10)),
                  name=f"axis-{index}") for index in range(10)))
    broker = FleetBroker(tmp_path / "fleets", clock=clock,
                         max_pending=100)
    with pytest.raises(BrokerBusy, match="queue full"):
        broker.submit_sweep(giant)
    service = ReproService(tmp_path / "root", port=0, max_pending=100)
    service.start()
    try:
        with pytest.raises(ServiceError) as exc_info:
            ServiceClient(service.url).submit_sweep(giant.to_dict())
        assert exc_info.value.status == 429
    finally:
        service.stop()


def test_recovery_reads_a_legacy_full_runs_submit_entry(tmp_path, runs):
    journal_dir = tmp_path / "journal"
    FleetJournal(journal_dir).append({
        "type": "submit", "fleet_id": "fleet-0001", "submission_key": "",
        "runs": [run.to_dict() for run in runs]})
    broker = FleetBroker(tmp_path / "fleets",
                         journal=FleetJournal(journal_dir))
    assert broker.recover()["fleets"] == 1
    assert _run_ids(broker.lease("w1", max_runs=8).grants) == \
        [run.run_id for run in runs]
    # Recovery compacted the journal: the entry is compact now.
    entry, = FleetJournal(journal_dir).iter_types("submit")
    assert len(entry["bases"]) == 1
    assert unpack_runs(entry) == list(runs)


# ---------------------------------------------------------------------------
# HTTP end to end: serve + client + workers on localhost
# ---------------------------------------------------------------------------

def _start_worker(url, **kwargs):
    options = dict(poll_s=0.05, max_idle_s=1.0)
    options.update(kwargs)
    thread = threading.Thread(target=run_worker, args=(url,),
                              kwargs=options, daemon=True)
    thread.start()
    return thread


def _wait_complete(client, fleet_id, timeout_s=120.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status = client.status(fleet_id)
        if status.complete:
            return status
        time.sleep(0.05)
    raise AssertionError(f"fleet {fleet_id} did not complete")


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    svc = ReproService(tmp_path_factory.mktemp("service-root"), port=0)
    svc.start()
    yield svc
    svc.stop()


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(service.url)


@pytest.fixture(scope="module")
def completed_fleet(service, client, sweep):
    """One sweep submitted over HTTP and drained by two workers."""
    ack = client.submit_sweep(sweep.to_dict())
    workers = [_start_worker(service.url, worker_id=f"e2e-{i}")
               for i in range(2)]
    status = _wait_complete(client, ack.fleet_id)
    for worker in workers:
        worker.join(timeout=30.0)
    return ack.fleet_id, status


def test_e2e_records_are_bit_identical_to_serial(
        completed_fleet, client, runs, serial_records):
    fleet_id, status = completed_fleet
    assert status.done == 2 and status.cached == 0
    for run in runs:
        assert client.record(fleet_id, run.run_id) == \
            serial_records[run.run_id].to_dict()


def test_e2e_fleet_directory_matches_a_local_one(
        completed_fleet, service, runs, serial_records):
    fleet_id, _ = completed_fleet
    loaded = FleetStore(service.broker.fleet_dir(fleet_id)).load()
    assert loaded.backend == "service"
    assert [r.to_dict() for r in loaded.records] == \
        [serial_records[run.run_id].to_dict() for run in runs]


def test_e2e_event_stream_is_ordered_ndjson(completed_fleet, client):
    fleet_id, _ = completed_fleet
    events = list(client.events(fleet_id))
    kinds = [event["event"] for event in events]
    assert kinds[0] == "submitted" and kinds[-1] == "complete"
    run_events = [e for e in events if e["event"] == "run"]
    assert [e["done"] for e in run_events] == [1, 2]
    assert all(e["total"] == 2 and "mobile_mean_ms" in e
               for e in run_events)


def test_e2e_follow_streams_until_complete(completed_fleet, client):
    fleet_id, _ = completed_fleet
    events = list(client.events(fleet_id, follow=True))
    assert events[-1]["event"] == "complete"


def test_healthz_reports_version_uptime_and_cache(service, client):
    health = client.health()
    assert health.version == repro.__version__
    assert health.uptime_s > 0
    assert health.cache["directory"] == str(service.cache_dir)
    assert "entries" in health.cache


def test_startup_gc_ran(service):
    assert service.last_gc.directory == str(service.cache_dir)


def test_scenario_routes(client):
    names = [entry["name"] for entry in client.scenario_index()]
    assert "klagenfurt" in names
    assert client.scenario("klagenfurt")["name"] == "klagenfurt"
    with pytest.raises(ServiceError) as exc_info:
        client.scenario("atlantis")
    assert exc_info.value.status == 404


def test_fleet_listing_includes_the_completed_fleet(
        completed_fleet, client):
    fleet_id, _ = completed_fleet
    assert fleet_id in [status.fleet_id for status in client.fleets()]


def test_malformed_submissions_are_400s(client):
    for body in [{"sweep": {"bases": "nonsense"}},
                 {"runs": []},
                 {"neither": True}]:
        with pytest.raises(ServiceError) as exc_info:
            client._post("/fleets", body)
        assert exc_info.value.status == 400


def test_invalid_json_body_is_a_400(service):
    request = Request(service.url + "/fleets", data=b"{not json",
                      method="POST")
    with pytest.raises(HTTPError) as exc_info:
        urlopen(request, timeout=10.0)
    assert exc_info.value.code == 400


# ---------------------------------------------------------------------------
# Keep-alive connections and body framing (raw sockets)
# ---------------------------------------------------------------------------

def _exchange(service, raw):
    """Send ``raw`` on one connection; everything the server answers
    until it hangs up."""
    host, port = service.httpd.server_address[:2]
    with socket.create_connection((host, port), timeout=10.0) as conn:
        conn.sendall(raw)
        answer = b""
        while chunk := conn.recv(65536):
            answer += chunk
    return answer.decode()


def test_requests_share_one_kept_alive_connection(service):
    answer = _exchange(service, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                       b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                       b"Connection: close\r\n\r\n")
    assert answer.count("HTTP/1.1 200 OK") == 2


def test_an_unread_body_closes_the_connection(service):
    """A POST answered 404 before its body was read: the body must not
    be parsed as the next request (here it smuggles a GET), and the
    GET that follows on the socket is never served."""
    smuggled = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
    answer = _exchange(service, (
        b"POST /nowhere HTTP/1.1\r\nHost: x\r\nContent-Length: "
        + str(len(smuggled)).encode() + b"\r\n\r\n" + smuggled
        + b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"))
    assert answer.startswith("HTTP/1.1 404")
    assert "Connection: close" in answer
    assert answer.count("HTTP/1.1") == 1


@pytest.mark.parametrize("length", ["-1", "ten", "1e3"])
def test_a_bad_content_length_is_a_400_that_closes(service, length):
    """Answered at once: ``rfile.read(-1)`` used to wait for the client
    to hang up."""
    answer = _exchange(service, (
        f"POST /results HTTP/1.1\r\nHost: x\r\n"
        f"Content-Length: {length}\r\n\r\n").encode())
    assert answer.startswith("HTTP/1.1 400")
    assert "Content-Length is" in answer and "Connection: close" in answer


def test_the_event_stream_ends_with_its_connection(completed_fleet,
                                                  service):
    fleet_id, _ = completed_fleet
    answer = _exchange(service, (
        f"GET /fleets/{fleet_id}/events HTTP/1.1\r\n"
        f"Host: x\r\n\r\n").encode())
    assert answer.startswith("HTTP/1.1 200")
    assert "Connection: close" in answer
    last = json.loads(answer.rstrip().rsplit("\n", 1)[1])
    assert last["event"] == "complete"


def test_a_client_reset_is_not_logged_as_a_server_error(tmp_path, capfd):
    service = ReproService(tmp_path / "root", port=0)
    service.start()
    try:
        host, port = service.httpd.server_address[:2]
        conn = socket.create_connection((host, port), timeout=10.0)
        conn.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        answer = b""
        while not answer.endswith(b"}\n"):   # the whole answer is sent
            answer += conn.recv(65536)
        assert answer.startswith(b"HTTP/1.1 200")
        # Hang up with a reset while the handler awaits the next
        # request on the kept-alive connection.
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
        conn.close()
        deadline = time.monotonic() + 10.0
        while service.httpd._open and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not service.httpd._open
    finally:
        service.stop()
    assert "Traceback" not in capfd.readouterr().err


def test_the_client_replaces_a_socket_the_server_closed(tmp_path):
    service = ReproService(tmp_path / "root", port=0)
    service.start()
    try:
        client = ServiceClient(service.url)
        for _ in range(3):
            client.health()
        assert len(service.httpd._open) == 1     # one kept-alive socket
        service.httpd.close_connections()        # idle timeout, say
        assert client.health().ready             # re-sent on a new one
    finally:
        service.stop()
    with pytest.raises(ServiceUnavailable):
        client.health()                          # the server is gone


def test_unknown_routes_and_fleets_are_404s(client):
    with pytest.raises(ServiceError) as exc_info:
        client.status("fleet-9999")
    assert exc_info.value.status == 404
    with pytest.raises(ServiceError) as exc_info:
        client._get("/no/such/route")
    assert exc_info.value.status == 404


def test_compare_two_complete_fleets_over_http(
        completed_fleet, service, client, sweep):
    first_id, _ = completed_fleet
    # Resubmitting the same sweep hits the shared cache end to end:
    # the second fleet completes at submit time, no workers involved.
    ack = client.submit_sweep(sweep.to_dict())
    assert ack.cached == ack.total == 2
    report = client.compare(first_id, ack.fleet_id)
    assert report["deltas"]
    pcts = [metric["pct"] for variant in report["deltas"]
            for metric in variant["metrics"]]
    assert pcts and all(pct == 0.0 for pct in pcts)


def test_compare_refuses_a_running_fleet(client):
    # A run the shared cache does not hold, so the fleet stays running.
    run = small_sweep(seeds=(7,)).expand()[0]
    ack = client.submit_runs([run.to_dict()])
    assert ack.cached == 0
    with pytest.raises(ServiceError) as exc_info:
        client.compare(ack.fleet_id, ack.fleet_id)
    assert exc_info.value.status == 400
    assert "still running" in exc_info.value.message


def test_compare_two_run_list_fleets_over_http(
        completed_fleet, client, runs):
    """Run-list fleets (``job.json`` + ``runs/``, what the remote
    backend submits) compare like sweep fleets."""
    fleet_ids = []
    for _ in range(2):
        ack = client.submit_runs([run.to_dict() for run in runs])
        assert ack.cached == ack.total == 2     # warm from the e2e fleet
        fleet_ids.append(ack.fleet_id)
    report = client.compare(*fleet_ids)
    assert report["added"] == [] and report["removed"] == []
    assert sum(delta["identical_runs"]
               for delta in report["deltas"]) == 2
    pcts = [metric["pct"] for variant in report["deltas"]
            for metric in variant["metrics"]]
    assert pcts and all(pct == 0.0 for pct in pcts)


def test_remote_executor_through_run_sweep(
        completed_fleet, service, sweep, serial_result, tmp_path):
    # The cache is warm from the e2e fleet, so the remote backend's
    # full submit -> poll -> collect path runs without local compute.
    result = run_sweep(sweep,
                       executor=RemoteExecutor(server=service.url),
                       out=str(tmp_path / "remote-out"))
    assert result.backend == "remote"
    assert result.cached_count == 2
    assert [r.to_dict() for r in result.records] == \
        [r.to_dict() for r in serial_result.records]
    # The run-list fleet left a lightweight job manifest server-side.
    job_files = list(service.broker.root.glob(f"*/{RUNS_JOB_MANIFEST}"))
    assert job_files


def test_tampered_compact_submission_is_a_400(client, runs):
    payload = pack_runs(runs)
    payload["runs"][1]["overrides"][AXIS] = 45e-3
    with pytest.raises(ServiceError) as exc_info:
        client.submit_runs(payload)
    assert exc_info.value.status == 400
    assert "spec_key" in exc_info.value.message


def test_compact_submission_is_journaled_as_received(tmp_path, runs):
    service = ReproService(tmp_path / "root", port=0)
    service.start()
    try:
        payload = json.loads(json.dumps(pack_runs(runs)))
        ServiceClient(service.url).submit_runs(payload)
        entry, = service.journal.iter_types("submit")
        assert entry["bases"] == payload["bases"]
        assert entry["runs"] == payload["runs"]
    finally:
        service.stop()


def test_records_since_must_not_be_negative(completed_fleet, client):
    fleet_id, status = completed_fleet
    with pytest.raises(ServiceError) as exc_info:
        client.slots(fleet_id, since=-100)
    assert exc_info.value.status == 400
    slots, complete = client.slots(fleet_id, since=0)
    assert len(slots) == status.total and complete


@pytest.fixture(scope="module")
def two_key_sweep():
    return small_sweep(seeds=(42, 43),
                       axes=(SweepAxis(AXIS, (30e-3, 45e-3, 60e-3)),))


@pytest.fixture(scope="module")
def two_key_serial(two_key_sweep):
    return run_sweep(two_key_sweep, executor="serial")


@pytest.mark.parametrize("group_cap", [1, 2, 256])
def test_remote_backend_matches_serial_at_every_group_size(
        tmp_path, monkeypatch, two_key_sweep, two_key_serial, group_cap):
    """Two build keys of three runs each, drained by two workers that
    lease at most ``group_cap`` runs at a time."""
    monkeypatch.setattr(worker_module, "MAX_GROUP_RUNS", group_cap)
    service = ReproService(tmp_path / "root", port=0)
    service.start()
    try:
        workers = [_start_worker(service.url, worker_id=f"g{index}")
                   for index in range(2)]
        result = run_sweep(two_key_sweep,
                           executor=RemoteExecutor(server=service.url))
        for worker in workers:
            worker.join(timeout=30.0)
        assert result.cached_count == 0
        assert [r.to_dict() for r in result.records] == \
            [r.to_dict() for r in two_key_serial.records]
        sizes = [len(entry["lease_ids"])
                 for entry in service.journal.iter_types("lease")]
        assert sum(sizes) == 6 and max(sizes) == min(group_cap, 3)
    finally:
        service.stop()


def test_two_workers_share_a_one_key_fleet(tmp_path, group_sweep,
                                           group_records):
    """One build key, two idle workers: both get runs, and the
    records still match serial byte for byte."""
    service = ReproService(tmp_path / "root", port=0)
    service.start()
    try:
        workers = [_start_worker(service.url, worker_id=f"k{index}",
                                 poll_s=5.0, max_idle_s=2.0)
                   for index in range(2)]
        _waiters(service.broker, 2)
        client = ServiceClient(service.url)
        ack = client.submit_sweep(group_sweep.to_dict())
        status = _wait_complete(client, ack.fleet_id)
        for worker in workers:
            worker.join(timeout=30.0)
        assert status.workers == 2
        for run in group_sweep.expand():
            assert client.record(ack.fleet_id, run.run_id) == \
                group_records[run.run_id].to_dict()
    finally:
        service.stop()


# ---------------------------------------------------------------------------
# Worker death mid-fleet: lease expiry + requeue, still bit-identical
# ---------------------------------------------------------------------------

def test_worker_death_requeues_and_stays_bit_identical(
        tmp_path, clock, runs, serial_records):
    service = ReproService(tmp_path / "root", port=0, lease_ttl_s=10.0)
    service.broker.clock = clock       # leases expire when told to
    service.start()
    try:
        client = ServiceClient(service.url)
        ack = client.submit_runs([run.to_dict() for run in runs])
        # A worker leases the first run and dies without posting.
        doomed = client.lease("doomed")
        assert doomed is not None
        clock.advance(11.0)     # past the doomed lease's 10 s TTL
        # A healthy worker drains the fleet, the expired doomed run
        # included.
        worker = _start_worker(service.url, worker_id="healthy")
        status = _wait_complete(client, ack.fleet_id)
        worker.join(timeout=60.0)

        assert status.done == 2
        assert status.workers == 1          # only the healthy one landed
        assert service.broker.requeues >= 1
        events = service.broker.events_since(ack.fleet_id, 0)[0]
        assert any(e["event"] == "requeued" for e in events)
        # No double counting, and every record bit-identical to serial.
        for run in runs:
            assert client.record(ack.fleet_id, run.run_id) == \
                serial_records[run.run_id].to_dict()
        fleet_dir = service.broker.fleet_dir(ack.fleet_id)
        assert json.loads(
            (fleet_dir / RUNS_JOB_MANIFEST).read_text())["complete"]
        assert len(list((fleet_dir / "runs").glob("*.json"))) == 2
    finally:
        service.stop()


# ---------------------------------------------------------------------------
# Packed lease groups: each base spec once, runs as overrides of it
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sixteen_sweep():
    """16 sampling variants of one city: one build key, one base."""
    return small_sweep(axes=(SweepAxis(
        AXIS, tuple(0.02 + 0.005 * index for index in range(16))),))


@pytest.mark.parametrize("submitted_as", ["run list", "sweep"])
def test_a_group_lease_carries_its_base_once(broker, sixteen_sweep,
                                             submitted_as):
    runs = sixteen_sweep.expand()
    if submitted_as == "sweep":
        broker.submit_sweep(sixteen_sweep)
    else:
        broker.submit_runs(runs, packed=json.loads(json.dumps(
            pack_runs(runs))))
    group = LeaseGroup.from_dict(json.loads(json.dumps(
        broker.lease("w1", max_runs=256).to_dict())))
    assert len(group.grants) == 16
    assert len(group.bases) == 1
    assert not any("scenario" in grant.run for grant in group.grants)
    rebuilt = unpack_runs(group.packed())
    assert rebuilt == list(runs)
    assert [run.spec_key() for run in rebuilt] == \
        [run.spec_key() for run in runs]


def test_the_single_run_lease_still_carries_a_full_run_spec(
        tmp_path, sixteen_sweep):
    """``POST /lease`` without ``max_runs`` answers one grant whose run
    is a full RunSpec dict, byte for byte as before, for a fleet
    submitted as a sweep and for one submitted as a run list."""
    runs = sixteen_sweep.expand()
    bodies = {"sweep": {"sweep": sixteen_sweep.to_dict()},
              "run list": pack_runs(runs)}
    for name, body in bodies.items():
        service = ReproService(tmp_path / name, port=0)
        try:
            service.submit(json.loads(json.dumps(body)))
            answer = service.lease({"worker_id": "w1"})
        finally:
            service.httpd.server_close()
        assert json.dumps(answer) == json.dumps(
            {"api": API_VERSION, "lease_id": "fleet-0001:0:1",
             "fleet_id": "fleet-0001", "run": runs[0].to_dict(),
             "ttl_s": 60.0})
        assert RunSpec.from_dict(answer["run"]) == runs[0]


def test_the_worker_rebuilds_the_submitted_runs(tmp_path, monkeypatch,
                                                sixteen_sweep):
    """The runs a worker evaluates are the submitted ``RunSpec``\\ s,
    rebuilt from the packed group with equal ``spec_key``\\ s."""
    runs = sixteen_sweep.expand()
    evaluated = []
    real_map = BatchExecutor.map

    def spy(self, batch):
        batch = list(batch)
        evaluated.extend(batch)
        return real_map(self, batch)
    monkeypatch.setattr(BatchExecutor, "map", spy)
    service = ReproService(tmp_path / "root", port=0)
    service.start()
    try:
        client = ServiceClient(service.url)
        ack = client.submit_runs(pack_runs(runs))
        assert run_worker(service.url, poll_s=0.05, max_idle_s=0.2) == 16
        assert client.status(ack.fleet_id).complete
    finally:
        service.stop()
    assert evaluated == list(runs)
    assert [run.spec_key() for run in evaluated] == \
        [run.spec_key() for run in runs]


def test_a_group_that_fails_its_spec_keys_is_failed_not_evaluated(
        tmp_path, monkeypatch, sixteen_sweep):
    runs = sixteen_sweep.expand()[:4]
    tampered = pack_runs(runs)
    tampered["runs"][2]["spec_key"] = "0" * 64
    batches = _post_spy(monkeypatch)
    service = ReproService(tmp_path / "root", port=0)
    service.start()
    try:
        ack = service.broker.submit_runs(runs, packed=tampered)
        client = ServiceClient(service.url)
        group = client.lease_runs("w1", max_runs=8)

        class NeverEvaluates:
            def map(self, batch):
                raise AssertionError("a group failing its keys was run")
        assert worker_module._work_group(client, NeverEvaluates(), group,
                                         "w1", lambda message: None) \
            == (0, False)
        status = client.status(ack.fleet_id)
        assert status.done == status.leased == 0
        assert status.pending == 4        # every run back in the queue
    finally:
        service.stop()
    assert batches == [["error"] * 4]


def test_a_group_that_always_fails_is_not_leased_in_a_hot_loop(
        tmp_path, monkeypatch, sixteen_sweep):
    """The broker re-queues a failed run at once, so a worker whose
    whole group failed pauses before it leases again."""
    runs = sixteen_sweep.expand()[:2]
    tampered = pack_runs(runs)
    tampered["runs"][1]["spec_key"] = "0" * 64

    class Stop(Exception):
        pass

    leases = []
    lease_runs = ServiceClient.lease_runs

    def counted(self, *args, **kwargs):
        group = lease_runs(self, *args, **kwargs)
        if group.grants:
            leases.append(len(group.grants))
            if len(leases) > 10:
                raise Stop("leased in a hot loop")
        return group
    monkeypatch.setattr(ServiceClient, "lease_runs", counted)
    pauses = []

    def sleep(seconds):
        pauses.append(seconds)
        if len(pauses) == 3:
            raise Stop("paused three times")
    service = ReproService(tmp_path / "root", port=0)
    service.start()
    try:
        service.broker.submit_runs(runs, packed=tampered)
        with pytest.raises(Stop):
            run_worker(service.url, poll_s=0.05, max_idle_s=1.0,
                       sleep=sleep)
    finally:
        service.stop()
    assert leases == [2] * len(leases)
    assert pauses == [worker_module.RETRY_PAUSE_S] * 3
    assert len(leases) <= len(pauses)


# ---------------------------------------------------------------------------
# Batched results: per-item acks, and how the worker batches
# ---------------------------------------------------------------------------

def test_a_batch_is_acked_item_by_item(tmp_path, runs, serial_records):
    """An accepted record, its duplicate, an unknown lease and a
    content mismatch in one batch: each item gets its own answer, and
    the good one lands."""
    service = ReproService(tmp_path / "root", port=0)
    service.start()
    try:
        client = ServiceClient(service.url)
        ack = client.submit_runs([run.to_dict() for run in runs])
        first, second = client.lease_runs("w1", max_runs=8).grants
        good = serial_records[first.run["run_id"]].to_dict()
        outcomes = client.post_results([
            ResultSubmission(lease_id=first.lease_id, record=good),
            ResultSubmission(lease_id=first.lease_id, record=good),
            ResultSubmission(lease_id="fleet-9999:0:1", record=good),
            ResultSubmission(lease_id=second.lease_id, record=good),
        ])
        assert outcomes[0] == ResultAck(accepted=True)
        assert outcomes[1] == ResultAck(accepted=False, duplicate=True)
        assert [outcome.status for outcome in outcomes[2:]] == [404, 409]
        assert client.record(ack.fleet_id, first.run["run_id"]) == good
        assert client.status(ack.fleet_id).done == 1
        assert len(list(service.journal.iter_types("ack"))) == 1
        # The refused run is still leased; its own record lands.
        [late] = client.post_results([ResultSubmission(
            lease_id=second.lease_id,
            record=serial_records[second.run["run_id"]].to_dict())])
        assert late.accepted
        assert client.status(ack.fleet_id).complete
        with pytest.raises(ServiceError) as exc_info:
            client._post("/results", {"results": [{"wall_s": 1.0}]})
        assert exc_info.value.status == 400
    finally:
        service.stop()


def test_a_record_that_is_not_the_leased_runs_is_a_409(
        tmp_path, runs, serial_records):
    """A record from another spec is refused whether it carries that
    spec's digest or none at all: 409, not stored, not cached, and a
    later fleet for the leased run is not prefilled from it."""
    service = ReproService(tmp_path / "root", port=0)
    service.start()
    try:
        client = ServiceClient(service.url)
        ack = client.submit_runs([run.to_dict() for run in runs])
        grants = client.lease_runs("w1", max_runs=8).grants
        target, = [grant for grant in grants
                   if grant.run["run_id"] == runs[1].run_id]
        # Computed from runs[0]'s spec, labelled as runs[1].
        foreign = serial_records[runs[0].run_id].to_dict()
        foreign.update(run_id=runs[1].run_id,
                       variant=[list(p) for p in runs[1].variant])
        digestless = {k: v for k, v in foreign.items() if k != "spec_key"}
        outcomes = client.post_results([
            ResultSubmission(lease_id=target.lease_id, record=record)
            for record in (digestless, foreign)])
        assert [getattr(outcome, "status", None)
                for outcome in outcomes] == [409, 409]
        assert client.status(ack.fleet_id).done == 0
        fleet_dir = service.broker.fleet_dir(ack.fleet_id)
        assert not (fleet_dir / "runs" / f"{runs[1].run_id}.json").exists()
        assert runs[1].spec_key() not in service.cache
        again = client.submit_runs([runs[1].to_dict()])
        assert again.cached == 0
        assert client.status(again.fleet_id).pending == 1
    finally:
        service.stop()


def test_a_batch_lands_in_one_journal_write_and_one_wakeup(
        tmp_path, monkeypatch, clock, group_sweep, group_records):
    journal = FleetJournal(tmp_path / "journal")
    broker = FleetBroker(tmp_path / "fleets", clock=clock, journal=journal)
    ack = broker.submit_sweep(group_sweep)
    grants = broker.lease("w1", max_runs=8).grants
    writes, wakeups = [], []
    append = journal.append
    notify_all = broker._cond.notify_all
    monkeypatch.setattr(journal, "append", lambda *entries: (
        writes.append([entry["type"] for entry in entries]),
        append(*entries))[1])
    monkeypatch.setattr(broker._cond, "notify_all", lambda: (
        wakeups.append(1), notify_all())[1])
    acks = broker.submit_results([ResultSubmission(
        lease_id=grant.lease_id,
        record=group_records[grant.run["run_id"]].to_dict())
        for grant in grants])
    assert all(ack.accepted for ack in acks)
    # The four acks in one write; the fleet's completion after them.
    assert writes == [["ack"] * 4, ["complete"]]
    assert len(wakeups) == 1
    events = broker.events_since(ack.fleet_id, 0)[0]
    assert [e["done"] for e in events if e["event"] == "run"] == \
        [1, 2, 3, 4]


def _post_spy(monkeypatch):
    """Each ``post_results`` batch the worker sends, as ``"ok"`` or
    ``"error"`` per item."""
    batches = []
    post_results = ServiceClient.post_results

    def spy(self, submissions):
        batches.append(["error" if item.error else "ok"
                        for item in submissions])
        return post_results(self, submissions)
    monkeypatch.setattr(ServiceClient, "post_results", spy)
    return batches


def _drain(service, group_sweep, group_records, **kwargs):
    client = ServiceClient(service.url)
    ack = client.submit_sweep(group_sweep.to_dict())
    completed = run_worker(service.url, poll_s=0.05, max_idle_s=0.2,
                           **kwargs)
    status = client.status(ack.fleet_id)
    assert status.complete
    for run in group_sweep.expand():
        assert client.record(ack.fleet_id, run.run_id) == \
            group_records[run.run_id].to_dict()
    return completed


def test_worker_posts_the_first_result_alone_then_one_batch(
        tmp_path, monkeypatch, group_sweep, group_records):
    batches = _post_spy(monkeypatch)
    service = ReproService(tmp_path / "root", port=0)
    service.start()
    try:
        assert _drain(service, group_sweep, group_records) == 4
    finally:
        service.stop()
    assert batches == [["ok"], ["ok"] * 3]


def test_worker_posts_every_half_lease_ttl(tmp_path, monkeypatch, clock,
                                           group_sweep, group_records):
    """A 2 ms TTL (on a clock that never moves, so nothing expires):
    every result goes out as soon as it is done."""
    batches = _post_spy(monkeypatch)
    service = ReproService(tmp_path / "root", port=0, lease_ttl_s=0.002)
    service.broker.clock = clock
    service.start()
    try:
        assert _drain(service, group_sweep, group_records) == 4
    finally:
        service.stop()
    assert batches == [["ok"]] * 4


def test_worker_posts_a_failure_with_the_results_it_holds(
        tmp_path, monkeypatch, group_sweep, group_records):
    """The third run fails once: its failure goes out at once with the
    second run's held result, and the requeued run comes back as a
    group of its own."""
    doomed = group_sweep.expand()[2].run_id
    map_runs = BatchExecutor.map

    def flaky(self, runs):
        for run in runs:
            if run.run_id == doomed and not failed:
                failed.append(run.run_id)
                raise RuntimeError("injected evaluation failure")
            yield from map_runs(self, [run])
    failed = []
    monkeypatch.setattr(BatchExecutor, "map", flaky)
    batches = _post_spy(monkeypatch)
    service = ReproService(tmp_path / "root", port=0)
    service.start()
    try:
        assert _drain(service, group_sweep, group_records) == 4
    finally:
        service.stop()
    assert failed == [doomed]
    assert batches == [["ok"], ["ok", "error"], ["ok"], ["ok"]]


# ---------------------------------------------------------------------------
# Readiness probe
# ---------------------------------------------------------------------------

def test_healthz_is_a_full_readiness_probe(service, client):
    health = client.health()
    assert health.ready and not health.draining
    assert health.queue["fleets"] == health.fleets
    assert {"running", "pending", "leased", "requeues"} <= \
        set(health.queue)
    assert health.journal["segments"] >= 1
    assert health.journal["lag"] >= 0
    assert health.journal["recovered_fleets"] == 0
    assert {"hits", "misses", "stores", "corrupt"} <= set(health.cache)
    assert health.limits["lease_ttl_s"] == 60.0
    assert health.limits["max_fleets"] is None


# ---------------------------------------------------------------------------
# Idempotent submission
# ---------------------------------------------------------------------------

def test_resubmitting_the_same_submission_key_is_idempotent(
        client, runs):
    key = "idem-e2e-0001"
    first = client.submit_runs([runs[0].to_dict()],
                               submission_key=key)
    second = client.submit_runs([runs[0].to_dict()],
                                submission_key=key)
    assert not first.duplicate
    assert second.duplicate
    assert second.fleet_id == first.fleet_id
    assert second.total == first.total


# ---------------------------------------------------------------------------
# Backpressure: bounded queues, lease rate caps, 429 + Retry-After
# ---------------------------------------------------------------------------

def test_broker_lease_rate_cap_throttles_per_worker(tmp_path, clock,
                                                    sweep):
    broker = FleetBroker(tmp_path / "fleets", clock=clock,
                         lease_rate_per_s=2.0)
    broker.submit_sweep(sweep)
    assert broker.lease("w1").grants
    # A second grant inside the 0.5 s interval is refused with the
    # remaining wait as the hint ...
    with pytest.raises(BrokerBusy) as exc_info:
        broker.lease("w1")
    assert exc_info.value.retry_after_s == pytest.approx(0.5)
    # ... but another worker has its own budget.
    assert broker.lease("w2").grants
    # An idle poll against a drained queue is never rate-limited.
    assert broker.lease("w1").grants == ()


def test_http_submission_limits_answer_429_with_retry_after(
        tmp_path, runs):
    service = ReproService(tmp_path / "root", port=0, max_fleets=1)
    service.start()
    try:
        client = ServiceClient(service.url)
        client.submit_runs([runs[0].to_dict()])   # in flight, no worker
        with pytest.raises(ServiceError) as exc_info:
            client.submit_runs([runs[1].to_dict()])
        assert exc_info.value.status == 429
        assert exc_info.value.retry_after_s > 0
    finally:
        service.stop()


def test_http_pending_queue_bound_answers_429(tmp_path, runs):
    service = ReproService(tmp_path / "root", port=0, max_pending=1)
    service.start()
    try:
        client = ServiceClient(service.url)
        client.submit_runs([runs[0].to_dict()])
        with pytest.raises(ServiceError) as exc_info:
            client.submit_runs([runs[1].to_dict()])
        assert exc_info.value.status == 429
        assert "queue full" in exc_info.value.message
    finally:
        service.stop()


def test_http_lease_rate_cap_answers_429(tmp_path, runs):
    service = ReproService(tmp_path / "root", port=0,
                           lease_rate_per_s=1e-4)
    service.start()
    try:
        client = ServiceClient(service.url)
        client.submit_runs([run.to_dict() for run in runs])
        assert client.lease("w1") is not None
        with pytest.raises(ServiceError) as exc_info:
            client.lease("w1")
        assert exc_info.value.status == 429
        assert exc_info.value.retry_after_s > 0   # header + body agree
    finally:
        service.stop()


# ---------------------------------------------------------------------------
# Drain: graceful degradation before exit
# ---------------------------------------------------------------------------

def test_drain_waits_for_inflight_then_refuses_work(
        tmp_path, runs, serial_records):
    service = ReproService(tmp_path / "root", port=0)
    service.start()
    try:
        client = ServiceClient(service.url)
        ack = client.submit_runs([run.to_dict() for run in runs])
        grant = client.lease("w1")
        record = serial_records[grant.run["run_id"]]

        def finish():
            time.sleep(0.2)
            client.post_result(grant.lease_id, record.to_dict(),
                               wall_s=0.1)

        poster = threading.Thread(target=finish, daemon=True)
        poster.start()
        # Drain blocks until the checked-out lease resolves — results
        # are still accepted while draining, new grants are not.
        assert service.drain(wait_s=10.0)
        poster.join(timeout=5.0)

        health = client.health()
        assert health.draining and not health.ready
        assert client.lease("w2") is None
        with pytest.raises(ServiceError) as exc_info:
            client.submit_runs([runs[0].to_dict()])
        assert exc_info.value.status == 429
        assert client.status(ack.fleet_id).done == 1
        # Compacted + synced on the way down: zero replay lag.
        assert health.journal["lag"] == 0
    finally:
        service.stop()


# ---------------------------------------------------------------------------
# Event-stream hygiene: vanished subscribers must not leak threads
# ---------------------------------------------------------------------------

def test_event_stream_reaps_dead_subscriber(tmp_path, runs):
    service = ReproService(tmp_path / "root", port=0,
                           stream_heartbeat_s=0.1)
    service.start()
    try:
        client = ServiceClient(service.url)
        # A fleet that never completes: no workers are running.
        ack = client.submit_runs([run.to_dict() for run in runs])
        host, port = service.httpd.server_address[:2]
        conn = socket.create_connection((host, port), timeout=5.0)
        conn.sendall((f"GET /fleets/{ack.fleet_id}/events?follow=1 "
                      f"HTTP/1.1\r\nHost: {host}\r\n\r\n").encode())
        conn.recv(1024)              # headers + the submitted event
        deadline = time.monotonic() + 5.0
        while (service.active_streams() == 0
               and time.monotonic() < deadline):
            time.sleep(0.02)
        assert service.active_streams() == 1
        # The subscriber vanishes without a word.  The idle heartbeat
        # turns the dead socket into a send error within a few beats.
        conn.close()
        while (service.active_streams() > 0
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert service.active_streams() == 0
    finally:
        service.stop()


def test_follow_stream_heartbeats_are_filtered_by_default(
        completed_fleet, client):
    fleet_id, _ = completed_fleet
    events = list(client.events(fleet_id, follow=True))
    assert all(event.get("event") != "heartbeat" for event in events)


# ---------------------------------------------------------------------------
# Worker failure modes: unreachable and nonsense servers
# ---------------------------------------------------------------------------

def test_worker_fails_cleanly_when_server_unreachable():
    slept = []
    with pytest.raises(ServiceUnavailable,
                       match=r"unreachable after 2 attempt"):
        run_worker("http://127.0.0.1:9", max_retries=2,
                   sleep=slept.append)
    assert len(slept) == 1   # one backoff between the two attempts


def test_worker_survives_429_backpressure(tmp_path, runs,
                                          serial_records):
    """A rate-capped worker waits out the server's hint instead of
    dying — and still drains the fleet (cache-warm, so no compute)."""
    service = ReproService(tmp_path / "root", port=0,
                           lease_rate_per_s=20.0)
    service.start()
    try:
        for run in runs:
            service.cache.put(run.spec_key(),
                              serial_records[run.run_id])
        client = ServiceClient(service.url)
        ack = client.submit_runs([run.to_dict() for run in runs])
        # Prefilled from the cache: already complete, the worker just
        # needs to poll through the rate cap without crashing.
        assert client.status(ack.fleet_id).complete
        completed = run_worker(service.url, worker_id="patient",
                               poll_s=0.01, max_idle_s=0.2)
        assert completed == 0
    finally:
        service.stop()


def test_a_connection_dropped_mid_request_is_unavailable():
    """A server that dies holding a request (a long poll, say) closes
    the socket without an answer: transient, not a crash."""
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def hang_up():
        for _ in range(2):
            conn, _ = listener.accept()
            conn.recv(4096)
            conn.close()
    thread = threading.Thread(target=hang_up, daemon=True)
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{port}")
    try:
        with pytest.raises(ServiceUnavailable):
            client.health()
        with pytest.raises(ServiceUnavailable):
            client.lease_runs("w1", max_runs=4, wait_s=1.0)
    finally:
        thread.join(5.0)
        listener.close()


def test_worker_pauses_briefly_when_server_drains_or_vanishes(
        monkeypatch):
    """The long-poll wait (``poll_s``) is not the retry pause: a
    draining or unreachable server is asked again after
    ``RETRY_PAUSE_S``, and the worker exits after ``MAX_UNREACHABLE``
    failed leases."""
    answers = [LeaseGroup(draining=True)] * 2
    def lease_runs(self, worker_id, *, max_runs, wait_s=0.0):
        if answers:
            return answers.pop()
        raise ServiceUnavailable("connection refused")
    monkeypatch.setattr(ServiceClient, "health", lambda self: None)
    monkeypatch.setattr(ServiceClient, "lease_runs", lease_runs)
    slept = []
    assert run_worker("http://127.0.0.1:9", poll_s=30.0,
                      sleep=slept.append) == 0
    assert slept == [worker_module.RETRY_PAUSE_S] * (
        2 + worker_module.MAX_UNREACHABLE - 1)


def test_cli_worker_reports_unreachable_server(capsys):
    assert main(["worker", "--server", "http://127.0.0.1:9",
                 "--max-retries", "1"]) == 2
    err = capsys.readouterr().err
    assert "unreachable" in err and "Traceback" not in err


def test_cli_worker_rejects_malformed_server_url(capsys):
    assert main(["worker", "--server", "not-a-url",
                 "--max-retries", "1"]) == 2
    err = capsys.readouterr().err
    assert "invalid server URL" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# The what-if studies' run lists through the service
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def study_plans():
    """The run list each study entry point hands its executor."""
    analysis = SensitivityAnalysis(seed=42, mean_positions_per_cell=2.0)
    upgrade = SixGUpgradeStudy(seed=42, mean_positions_per_cell=2.0)
    return {name: captured_plans(call)[0] for name, call in (
        ("elasticities", analysis.elasticities),
        ("sweep", analysis.sweep),
        ("upgrade", upgrade.run))}


@pytest.mark.parametrize("study", ["elasticities", "sweep", "upgrade"])
def test_study_plans_through_remote_match_serial(service, study_plans,
                                                 study):
    runs = study_plans[study]
    # One base spec plus per-run overrides on the wire.
    assert len(pack_runs(runs)["bases"]) == 1
    worker = _start_worker(service.url, worker_id=f"study-{study}")
    remote = record_bytes(RemoteExecutor(server=service.url), runs)
    worker.join(timeout=30.0)
    assert remote == record_bytes(SerialExecutor(), runs)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["--version"])
    assert exc_info.value.code == 0
    assert f"repro {repro.__version__}" in capsys.readouterr().out


def test_cli_sweep_remote_needs_a_server(capsys):
    assert main(["sweep", "--backend", "remote"]) == 2
    assert "--server" in capsys.readouterr().err


def test_cli_worker_needs_a_server(capsys):
    assert main(["worker"]) == 2
    assert "--server" in capsys.readouterr().err
