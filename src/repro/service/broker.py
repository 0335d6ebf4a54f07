"""The fleet broker: a deterministic, lease-based run queue.

One broker instance backs one ``repro serve`` process.  Clients submit
fleets (a :class:`~repro.fleet.sweep.SweepSpec`, or an already-expanded
run list from :class:`~repro.fleet.executors.RemoteExecutor`); workers
lease whole build-key groups — every pending run of a fleet that
shares one compiled world, one lease id per run — and post the
:class:`~repro.fleet.sweep.RunRecord` results back, one or a batch at a
time (:meth:`FleetBroker.submit_results`).  Queue
state lives in memory guarded by one lock — the durable artifacts
are the fleet directories under ``root`` (written through
:class:`~repro.fleet.store.FleetStore`, so a completed service fleet
is byte-compatible with a locally-run one), the shared
:class:`~repro.fleet.cache.ResultCache`, and, when configured, the
append-only :class:`~repro.service.journal.FleetJournal` that lets a
restarted server :meth:`recover` every fleet it had accepted.

Fault model (the reason leases and the journal exist):

* A worker that dies mid-run simply never posts its result.  Its
  lease expires ``lease_ttl_s`` after the grant or after its group's
  last posted result, whichever is later, and the run returns to the
  queue — the next lease from any worker picks it up.  A grant is
  sized to the asking worker's fair share of the outstanding runs, so
  idle workers split a large group and a dead one strands only its
  share.
* Results are deduplicated by content identity: a run is *done* the
  first time a verifying record lands, and every later submission for
  it (a raced worker, a zombie finishing after its lease expired, a
  client retrying an ambiguous failure) is acknowledged as a duplicate
  and discarded.  No run is ever counted twice, and a record that does
  not verify against the leased run's ``run_key`` is rejected outright.
* A *server* that dies is recovered from the journal: submissions are
  replayed, completed runs are re-verified against the records already
  in the fleet store (never re-evaluated), and in-flight leases are
  simply not restored — the runs return to the queue.
* Backpressure is explicit: submission limits and the per-worker lease
  rate cap refuse with :class:`BrokerBusy` (HTTP 429 + ``Retry-After``)
  instead of queueing unboundedly, and :meth:`drain` stops grants so
  the server can exit with nothing checked out.
* Leasing order is deterministic — fleets in submission order, runs
  in expansion order — so a drained queue always yields records
  bit-identical to a serial :func:`~repro.fleet.runner.run_sweep` of
  the same sweep, crashes and retries included.

Time is injected (``clock``) so lease expiry is unit-testable without
sleeping.  Idle callers long-poll: :meth:`FleetBroker.lease` and
:meth:`FleetBroker.slots` take ``wait_s`` and block on the broker's
condition until work or a result arrives, instead of the caller
sleeping between requests.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence, Union

from ..fleet.cache import ResultCache, rebind_record
from ..fleet.progress import ProgressEvent
from ..fleet.store import FleetResult, FleetStore, write_atomic
from ..sim.sync import WatchedCondition, guarded_by
from ..fleet.sweep import (
    RunRecord,
    RunSpec,
    SweepSpec,
    pack_runs,
    record_matches_spec,
    unpack_runs,
)
from .contracts import (
    ContractError,
    FleetStatus,
    LeaseGrant,
    LeaseGroup,
    ResultAck,
    ResultSubmission,
    SubmitAck,
)
from .journal import FleetJournal

__all__ = ["BrokerBusy", "FleetBroker", "RUNS_JOB_MANIFEST"]

PENDING = "pending"
LEASED = "leased"
DONE = "done"

#: Manifest name for fleets submitted as raw run lists (no SweepSpec
#: to re-expand, so they get this lightweight job file instead of a
#: ``FleetStore`` manifest).
RUNS_JOB_MANIFEST = "job.json"

#: The ``Retry-After`` a refused submission carries, in seconds.
BUSY_RETRY_S = 1.0


class BrokerBusy(RuntimeError):
    """Backpressure: the broker refused the request *for now*.

    Carries the ``Retry-After`` hint the HTTP layer serializes with a
    429 — the retry policy on the other side honors it, so a loaded or
    draining server slows its clients down instead of failing them.
    """

    def __init__(self, message: str, *,
                 retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class _Slot:
    """One run's live state inside the broker."""

    __slots__ = ("run", "state", "attempt", "worker_id", "deadline",
                 "group", "record", "wall_s", "cached")

    def __init__(self, run: RunSpec) -> None:
        self.run = run
        self.state = PENDING
        self.attempt = 0          # lease generation counter
        self.worker_id = ""
        self.deadline = 0.0
        self.group = ""           # first lease id of the grant it rode
        self.record: Optional[RunRecord] = None
        self.wall_s = 0.0
        self.cached = False

    def to_dict(self, *, with_record: bool = True) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "run_id": self.run.run_id, "state": self.state,
            "cached": self.cached, "wall_s": self.wall_s,
        }
        if with_record:
            payload["record"] = (self.record.to_dict()
                                 if self.record is not None else None)
        return payload


class _Fleet:
    """One submitted fleet: its slots, store, and event log."""

    def __init__(self, fleet_id: str, slots: list[_Slot],
                 store: FleetStore, sweep: Optional[SweepSpec],
                 created: float,
                 packed: Optional[dict[str, Any]] = None) -> None:
        self.fleet_id = fleet_id
        self.slots = slots
        self.store = store
        self.sweep = sweep
        # A run-list fleet's runs as a ``pack_runs`` payload, journaled
        # as it is: each base once, not a spec per run.
        self.packed = packed or {}
        self.created = created
        self.finished = 0.0
        self.complete = False
        self.workers: set[str] = set()
        self.events: list[dict[str, Any]] = []
        self.submission_key = ""
        self.submitted_cached = 0

    def done_count(self) -> int:
        return sum(1 for slot in self.slots if slot.state == DONE)

    def packed_group(self, members: Sequence[int]) -> dict[str, Any]:
        """The runs at ``members`` as a ``pack_runs`` payload: for a
        run-list fleet, the entries it was submitted as, their bases
        renumbered within the group; a sweep fleet's runs are packed
        here."""
        if not self.packed:
            return pack_runs([self.slots[index].run for index in members])
        bases: list[Any] = []
        renumbered: dict[int, int] = {}
        runs = []
        for index in members:
            entry = self.packed["runs"][index]
            if "base" in entry:       # not a full RunSpec dict
                base = renumbered.get(entry["base"])
                if base is None:
                    base = renumbered[entry["base"]] = len(bases)
                    bases.append(self.packed["bases"][entry["base"]])
                entry = dict(entry, base=base)
            runs.append(entry)
        return {"bases": bases, "runs": runs}

    def submit_entry(self) -> dict[str, Any]:
        """The journal entry that re-creates this fleet on replay."""
        entry: dict[str, Any] = {"type": "submit",
                                 "fleet_id": self.fleet_id,
                                 "submission_key": self.submission_key}
        if self.sweep is not None:
            entry["sweep"] = self.sweep.to_dict()
        else:
            entry.update(self.packed)
        return entry


#: A granted build-key group: its fleet, the slot indices, and the
#: lease id of each.
_Granted = tuple[_Fleet, list[int], list[str]]


class FleetBroker:
    """In-memory queue + on-disk fleet stores behind the service.

    Thread-safety contract (checked by ``repro lint`` REP101 and the
    runtime watchdog): all queue state is ``guarded_by`` the single
    condition ``_cond``; helpers called with it held carry a
    ``# lint: holds(_cond)`` marker.  The bare counters (``requeues``
    and the ``recovered_*`` trio) are ``writes_only`` — tests, the
    readiness probe, and metrics read them lock-free by design.
    """

    _fleets: dict[str, _Fleet] = guarded_by("_cond")
    _counter: int = guarded_by("_cond")
    _submissions: dict[str, str] = guarded_by("_cond")
    _last_grant: dict[str, float] = guarded_by("_cond")
    _waiting: dict[str, int] = guarded_by("_cond")
    _draining: bool = guarded_by("_cond", writes_only=True)
    requeues: int = guarded_by("_cond", writes_only=True)
    recovered_fleets: int = guarded_by("_cond", writes_only=True)
    recovered_records: int = guarded_by("_cond", writes_only=True)
    recovery_requeued: int = guarded_by("_cond", writes_only=True)

    def __init__(self, root: Union[str, Path], *,
                 cache: Optional[ResultCache] = None,
                 lease_ttl_s: float = 60.0,
                 clock: Callable[[], float] = time.monotonic,
                 journal: Optional[FleetJournal] = None,
                 max_fleets: Optional[int] = None,
                 max_pending: Optional[int] = None,
                 lease_rate_per_s: Optional[float] = None,
                 fault_hook: Optional[
                     Callable[[str], None]] = None) -> None:
        if lease_ttl_s <= 0:
            raise ValueError("lease_ttl_s must be positive")
        if max_fleets is not None and max_fleets < 1:
            raise ValueError("max_fleets must be >= 1")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if lease_rate_per_s is not None and lease_rate_per_s <= 0:
            raise ValueError("lease_rate_per_s must be positive")
        self.root = Path(root)
        self.cache = cache
        self.lease_ttl_s = lease_ttl_s
        self.clock = clock
        self.journal = journal
        self.max_fleets = max_fleets
        self.max_pending = max_pending
        self.lease_rate_per_s = lease_rate_per_s
        self._fault = fault_hook or (lambda op: None)
        self._cond = WatchedCondition("broker")
        self.requeues = 0          #: lifetime count of expired leases
        self.recovered_fleets = 0
        self.recovered_records = 0
        self.recovery_requeued = 0
        self._fleets = {}
        self._counter = 0
        self._submissions = {}
        self._last_grant = {}
        self._waiting = {}         # worker id -> lease calls in flight
        self._draining = False

    def _journal(self, *entries: dict[str, Any]) -> None:  # lint: holds(_cond)
        """Append entries, in one write, when durability is on.  Caller
        holds the lock — journal writes must be ordered with the state
        changes they record."""
        if self.journal is not None:
            self.journal.append(*entries)

    # -- submission -------------------------------------------------------

    def submit_sweep(self, sweep: SweepSpec, *,
                     submission_key: str = "") -> SubmitAck:
        """Queue every run of ``sweep``; its directory becomes a full
        fleet store (manifest + records + CSV once complete).  The
        capacity limits see the sweep's arithmetic run count before
        it is expanded, so an oversized sweep is refused without
        materialising one spec per run."""
        with self._cond:
            if submission_key not in self._submissions:
                self._check_capacity(sweep.run_count)
        return self._submit(list(sweep.expand()), sweep,
                            submission_key)

    def submit_runs(self, runs: Sequence[RunSpec], *,
                    submission_key: str = "",
                    packed: Optional[dict[str, Any]] = None
                    ) -> SubmitAck:
        """Queue already-expanded runs (the :class:`RemoteExecutor`
        path).  Records persist per-run; without a sweep to re-expand
        there is no manifest, just a lightweight job file.

        ``packed`` is the payload ``runs`` were unpacked from (the
        server passes what it received); the journal stores it, and
        group leases hand out its entries, as they are.  Without it,
        or when it carries no bases (full ``RunSpec`` dicts), the runs
        are packed here."""
        if not runs:
            raise ValueError("fleet needs at least one run")
        ids = [run.run_id for run in runs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate run ids in submitted fleet")
        return self._submit(list(runs), None, submission_key,
                            packed if packed and packed.get("bases")
                            else pack_runs(runs))

    def _check_capacity(self, incoming: int) -> None:  # lint: holds(_cond)
        """Refuse the submission when it would exceed a limit.  Caller
        holds the lock."""
        if self._draining:
            raise BrokerBusy("server is draining; not accepting fleets",
                             retry_after_s=BUSY_RETRY_S)
        if self.max_fleets is not None:
            running = sum(1 for _ in self._open_fleets())
            if running >= self.max_fleets:
                raise BrokerBusy(
                    f"at max in-flight fleets ({self.max_fleets})",
                    retry_after_s=BUSY_RETRY_S)
        if self.max_pending is not None:
            backlog = sum(1 for f in self._open_fleets()
                          for s in f.slots if s.state != DONE)
            if backlog + incoming > self.max_pending:
                raise BrokerBusy(
                    f"submission queue full ({backlog} queued, "
                    f"limit {self.max_pending})",
                    retry_after_s=BUSY_RETRY_S)

    def _submit(self, runs: list[RunSpec], sweep: Optional[SweepSpec],
                submission_key: str,
                packed: Optional[dict[str, Any]] = None
                ) -> SubmitAck:
        with self._cond:
            if submission_key and submission_key in self._submissions:
                # Idempotent replay: a client retrying an ambiguous
                # submission failure gets the original fleet back, not
                # a second copy of it.
                prior = self._fleets[self._submissions[submission_key]]
                return SubmitAck(fleet_id=prior.fleet_id,
                                 total=len(prior.slots),
                                 cached=prior.submitted_cached,
                                 duplicate=True)
            self._check_capacity(len(runs))
            self._counter += 1
            fleet_id = f"fleet-{self._counter:04d}"
            store = FleetStore(self.root / fleet_id)
            fleet = _Fleet(fleet_id, [_Slot(run) for run in runs],
                           store, sweep, self.clock(), packed)
            fleet.submission_key = submission_key
            # Journal before the fleet directory exists: recovery then
            # always knows about any fleet id with a directory, so a
            # restart can never re-issue an id that has stale state.
            self._journal(fleet.submit_entry())
            if sweep is not None:
                store.begin(sweep, jobs=1, backend="service")
            self._fleets[fleet_id] = fleet
            if submission_key:
                self._submissions[submission_key] = fleet_id
            # Warm-cache prefill: a run the shared cache has already
            # seen never reaches the queue.
            cached = sum(self._prefill(fleet, slot) for slot in fleet.slots)
            fleet.submitted_cached = cached
            fleet.events.append({"event": "submitted",
                                 "fleet_id": fleet_id,
                                 "total": len(fleet.slots),
                                 "cached": cached})
            done = 0
            for slot in fleet.slots:
                if slot.state == DONE and slot.record is not None:
                    done += 1
                    self._emit_run(fleet, done, slot)
            if done == len(fleet.slots):
                self._finalize(fleet)
            self._cond.notify_all()
            return SubmitAck(fleet_id=fleet_id, total=len(fleet.slots),
                             cached=cached)

    def _prefill(self, fleet: _Fleet, slot: _Slot) -> bool:
        """Fill ``slot`` from the shared cache, if it holds the run:
        DONE, flagged cached, its record written to the fleet store.
        Touches only the fleet and the cache, so it runs with or
        without the lock (submission holds it, recovery does not)."""
        if self.cache is None:
            return False
        record = self.cache.get(slot.run.spec_key())
        if record is None:
            return False
        slot.record = rebind_record(record, slot.run)
        slot.state = DONE
        slot.cached = True
        fleet.store.write_record(slot.record)
        return True

    # -- leasing ----------------------------------------------------------

    def lease(self, worker_id: str, *, max_runs: int = 1,
              wait_s: float = 0.0) -> LeaseGroup:
        """Check out to ``worker_id`` the next build-key group: the
        first pending run in submission order plus every later pending
        run of its fleet with the same build key, one lease id each.
        The grant holds at most ``max_runs`` runs and at most the
        worker's fair share (:meth:`_fair_share`), so workers that are
        waiting at the same time split a large group.

        The answer is packed (see :class:`LeaseGroup`): the group's
        base specs once, and per grant the compact run — for a fleet
        submitted as a run list, the entry it was submitted as; a
        sweep fleet's group is packed here.

        Expired leases are swept first, so a dead worker's runs are
        offered again here.  With nothing pending, waits up to
        ``wait_s`` for a submission or a requeue; the group is empty
        when none comes or once :meth:`drain` starts.  Raises
        :class:`BrokerBusy` when the per-worker lease rate cap refuses
        a grant that work exists for — the worker should wait
        ``retry_after_s`` and come back.
        """
        if max_runs < 1:
            raise ValueError("max_runs must be >= 1")
        granted = self._checkout(worker_id, max_runs, wait_s)
        if granted is None:
            return LeaseGroup(draining=self.draining())
        fleet, members, lease_ids = granted
        # Unlocked: a fleet's runs and submitted payload never change.
        packed = fleet.packed_group(members)
        return LeaseGroup(
            grants=tuple(LeaseGrant(lease_id=lease_id,
                                    fleet_id=fleet.fleet_id, run=run,
                                    ttl_s=self.lease_ttl_s)
                         for lease_id, run in zip(lease_ids,
                                                  packed["runs"])),
            bases=tuple(packed["bases"]))

    def _checkout(self, worker_id: str, max_runs: int,
                  wait_s: float) -> Optional[_Granted]:
        """Lease the next build-key group, waiting up to ``wait_s`` for
        one; ``None`` when nothing was granted."""
        deadline = time.monotonic() + wait_s
        with self._cond:
            self._waiting[worker_id] = self._waiting.get(worker_id, 0) + 1
            try:
                while not self._draining:
                    now = self.clock()
                    self._expire(now)
                    granted = self._grant(worker_id, max_runs, now)
                    if granted is not None:
                        return granted
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(min(remaining, 0.5))
            finally:
                calls = self._waiting.pop(worker_id) - 1
                if calls:
                    self._waiting[worker_id] = calls
        return None

    def _grant(self, worker_id: str,  # lint: holds(_cond)
               max_runs: int, now: float) -> Optional[_Granted]:
        """Lease the next build-key group, or ``None`` when nothing is
        pending.  Caller holds the lock."""
        for fleet in self._open_fleets():
            pending = [i for i, slot in enumerate(fleet.slots)
                       if slot.state == PENDING]
            if not pending:
                continue
            self._check_lease_rate(worker_id, now)
            max_runs = min(max_runs, self._fair_share(worker_id))
            key = fleet.slots[pending[0]].run.build_key()
            members = [pending[0]]
            for index in pending[1:]:
                if len(members) == max_runs:
                    break
                if fleet.slots[index].run.build_key() == key:
                    members.append(index)
            self._last_grant[worker_id] = now
            lease_ids: list[str] = []
            for index in members:
                slot = fleet.slots[index]
                slot.state = LEASED
                slot.attempt += 1
                slot.worker_id = worker_id
                slot.deadline = now + self.lease_ttl_s
                lease_id = f"{fleet.fleet_id}:{index}:{slot.attempt}"
                slot.group = lease_ids[0] if lease_ids else lease_id
                lease_ids.append(lease_id)
            self._journal({"type": "lease",
                           "fleet_id": fleet.fleet_id,
                           "run_ids": [fleet.slots[i].run.run_id
                                       for i in members],
                           "lease_ids": lease_ids,
                           "worker_id": worker_id})
            return fleet, members, lease_ids
        return None

    def _fair_share(self, worker_id: str) -> int:  # lint: holds(_cond)
        """How many runs one grant to ``worker_id`` may hold: the
        outstanding (pending or leased) runs split evenly over the
        workers the broker can see — those waiting in a lease call,
        those holding leases, and the asker — less what the asker
        already holds, and at least one.  A lone worker gets a whole
        group; two idle workers split a one-key fleet.  Caller holds
        the lock."""
        live = set(self._waiting)
        live.add(worker_id)
        outstanding = held = 0
        for fleet in self._open_fleets():
            for slot in fleet.slots:
                if slot.state == PENDING:
                    outstanding += 1
                elif slot.state == LEASED:
                    outstanding += 1
                    live.add(slot.worker_id)
                    if slot.worker_id == worker_id:
                        held += 1
        return max(1, -(-outstanding // len(live)) - held)

    def _check_lease_rate(self, worker_id: str,  # lint: holds(_cond)
                          now: float) -> None:
        """Enforce the per-worker grant rate.  Only consulted when a
        grant is about to happen — an idle poll against an empty queue
        is never rate-limited.  Caller holds the lock."""
        if self.lease_rate_per_s is None:
            return
        interval = 1.0 / self.lease_rate_per_s
        last = self._last_grant.get(worker_id)
        if last is None:
            return
        wait = interval - (now - last)
        if wait > 0:
            raise BrokerBusy(
                f"lease rate cap ({self.lease_rate_per_s:g}/s) for "
                f"worker {worker_id!r}", retry_after_s=wait)

    def _expire(self, now: float) -> int:  # lint: holds(_cond)
        """Re-queue every lease whose deadline has passed.  Caller
        holds the lock."""
        expired = 0
        for fleet in self._open_fleets():
            for slot in fleet.slots:
                if slot.state == LEASED and now > slot.deadline:
                    slot.state = PENDING
                    expired += 1
                    fleet.events.append({
                        "event": "requeued",
                        "fleet_id": fleet.fleet_id,
                        "run_id": slot.run.run_id,
                        "worker_id": slot.worker_id,
                        "attempt": slot.attempt,
                    })
        if expired:
            self.requeues += expired
            self._cond.notify_all()
        return expired

    def expire_leases(self) -> int:
        """Public sweep (the server calls this periodically); returns
        how many leases were returned to the queue."""
        with self._cond:
            return self._expire(self.clock())

    # -- results ----------------------------------------------------------

    def submit_result(self, submission: ResultSubmission) -> ResultAck:
        """Land one worker's result (or failure) for a leased run —
        :meth:`submit_results` with one item, its refusal raised."""
        outcome, = self.submit_results([submission])
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def submit_results(self, submissions: Sequence[ResultSubmission]
                       ) -> list[Union[ResultAck, Exception]]:
        """Land a batch of worker results (or failures), one outcome
        per item in order: its :class:`ResultAck`, or the refusal —
        :class:`LookupError` for an unknown lease,
        :class:`ContractError` for a record that does not parse,
        :class:`ValueError` for one that fails content verification.
        A refused item lands nothing; the others still land.

        Dedup contract: the first *verifying* record wins; anything
        after it — including a zombie worker finishing a run that was
        re-queued and completed by someone else — is a duplicate, not
        an error, and changes nothing.  A post against a run's current
        lease renews the deadlines of its group's runs still leased:
        the worker holding them is alive and working through them.

        The batch lands under one lock hold: every accepted record is
        verified, cached and stored on its own, their journal acks go
        out in one write, and waiters are woken once.
        """
        outcomes: list[Union[ResultAck, Exception]] = []
        landed: list[tuple[_Fleet, _Slot, int]] = []
        with self._cond:
            for submission in submissions:
                try:
                    outcomes.append(self._land(submission, landed))
                except (LookupError, ValueError) as exc:
                    outcomes.append(exc)
            if landed:
                self._journal(*(
                    {"type": "ack", "fleet_id": fleet.fleet_id,
                     "run_id": slot.run.run_id,
                     "worker_id": slot.worker_id,
                     "wall_s": slot.wall_s, "cached": slot.cached}
                    for fleet, slot, _ in landed))
            for fleet, slot, done in landed:
                # The named crash window, once per run: the journal
                # (and the record) are durable but the worker has not
                # seen the ack yet.  A fault schedule crashes here; the
                # retried submission dedups.
                self._fault("broker.ack")
                self._emit_run(fleet, done, slot)
                if done == len(fleet.slots):
                    self._finalize(fleet)
            self._cond.notify_all()
        return outcomes

    def _land(self, submission: ResultSubmission,  # lint: holds(_cond)
              landed: list[tuple[_Fleet, _Slot, int]]) -> ResultAck:
        """One item of :meth:`submit_results`.  An accepted record is
        appended to ``landed`` with the fleet's done count after it;
        the caller journals and announces it.  Caller holds the lock."""
        # Lease resolution reads _fleets, so it must happen inside the
        # lock — resolving first and locking after raced with
        # concurrent submissions mutating the fleet table.
        fleet, index, attempt = self._parse_lease(submission.lease_id)
        slot = fleet.slots[index]
        if slot.state == LEASED and attempt == slot.attempt:
            deadline = self.clock() + self.lease_ttl_s
            for other in fleet.slots:
                if other.state == LEASED and other.group == slot.group:
                    other.deadline = deadline
        if submission.error:
            if slot.state == LEASED:
                # Fast requeue: don't wait out the lease for a run the
                # worker already knows it failed.
                slot.state = PENDING
                fleet.events.append({
                    "event": "requeued",
                    "fleet_id": fleet.fleet_id,
                    "run_id": slot.run.run_id,
                    "worker_id": slot.worker_id,
                    "attempt": slot.attempt,
                    "error": submission.error,
                })
                return ResultAck(accepted=False, requeued=True)
            return ResultAck(accepted=False, duplicate=slot.state == DONE)
        if slot.state == DONE:
            return ResultAck(accepted=False, duplicate=True)
        assert submission.record is not None  # contract-validated
        try:
            record = RunRecord.from_dict(submission.record)
        except (KeyError, TypeError, ValueError) as exc:
            raise ContractError(
                f"result record does not parse: {exc}") from None
        if not record_matches_spec(record, slot.run):
            raise ValueError(
                f"record for {slot.run.run_id} does not verify "
                f"against the leased run's content identity")
        slot.record = record
        slot.state = DONE
        slot.wall_s = submission.wall_s
        slot.cached = False
        fleet.workers.add(slot.worker_id)
        if self.cache is not None:
            self.cache.put(slot.run.spec_key(), record)
        fleet.store.write_record(record)
        landed.append((fleet, slot, fleet.done_count()))
        return ResultAck(accepted=True)

    def _parse_lease(  # lint: holds(_cond)
            self, lease_id: str) -> tuple[_Fleet, int, int]:
        try:
            fleet_id, index_s, attempt_s = lease_id.rsplit(":", 2)
            fleet = self._fleets[fleet_id]
            index, attempt = int(index_s), int(attempt_s)
            fleet.slots[index]
        except (KeyError, IndexError, ValueError):
            raise LookupError(f"unknown lease {lease_id!r}") from None
        return fleet, index, attempt

    # -- completion -------------------------------------------------------

    def _emit_run(self, fleet: _Fleet, done: int,  # lint: holds(_cond)
                  slot: _Slot) -> None:
        assert slot.record is not None
        event = ProgressEvent.from_record(
            done, len(fleet.slots), slot.record,
            cached=slot.cached, wall_s=slot.wall_s).to_dict()
        event["event"] = "run"
        event["fleet_id"] = fleet.fleet_id
        fleet.events.append(event)

    def _finalize(self, fleet: _Fleet) -> None:  # lint: holds(_cond)
        """Mark complete and write the durable artifacts.  Caller
        holds the lock; every slot is DONE."""
        fleet.finished = self.clock()
        fleet.complete = True
        records = tuple(slot.record for slot in fleet.slots
                        if slot.record is not None)
        if fleet.sweep is not None:
            result = FleetResult(
                sweep=fleet.sweep, records=records,
                run_wall_s=tuple(s.wall_s for s in fleet.slots),
                wall_s=fleet.finished - fleet.created,
                jobs=max(1, len(fleet.workers)),
                backend="service",
                cached=tuple(s.cached for s in fleet.slots))
            fleet.store.save(result, rewrite_records=False)
        else:
            job = {"kind": "runs", "fleet_id": fleet.fleet_id,
                   "complete": True,
                   "run_ids": [s.run.run_id for s in fleet.slots],
                   "wall_s": fleet.finished - fleet.created}
            write_atomic(fleet.store.directory / RUNS_JOB_MANIFEST,
                         json.dumps(job, indent=2) + "\n")
        self._journal({"type": "complete",
                       "fleet_id": fleet.fleet_id})
        fleet.events.append({"event": "complete",
                             "fleet_id": fleet.fleet_id,
                             "total": len(fleet.slots),
                             "wall_s": fleet.finished - fleet.created})
        # Release the records: every one is in the fleet store, which
        # serves later reads (:meth:`slots`, :meth:`record`), so a
        # long-lived server does not keep every finished fleet.
        for slot in fleet.slots:
            slot.record = None

    # -- durability -------------------------------------------------------

    def recover(self) -> dict[str, int]:
        """Rebuild broker state by replaying the journal.

        Called once, before the server starts taking requests.  For
        every journaled submission the fleet is re-created; each slot
        is then resolved through the content-identity resume path:

        * a store record that verifies against the run's ``run_key``
          marks the slot DONE — an acked run is **never** re-evaluated
          (its ack metadata, when journaled, is restored too);
        * otherwise a shared-cache hit prefills it;
        * otherwise the run returns to the queue — including the case
          where an ack was journaled but the record was lost, which is
          counted as ``requeued`` (content identity guarantees the
          re-evaluated record is bit-identical anyway).

        Journaled leases are deliberately *not* restored: whoever held
        them must retry, and the lease they get is a fresh one.  Ends
        by compacting the journal to a snapshot of the restored state.
        Returns counters (also kept on the broker for the readiness
        probe): recovered ``fleets``/``records``, cache ``prefilled``,
        and acked-but-lost ``requeued`` runs.
        """
        stats = {"fleets": 0, "records": 0, "prefilled": 0,
                 "requeued": 0}
        if self.journal is None:
            return stats
        submits: list[dict[str, Any]] = []
        acks: dict[str, dict[str, dict[str, Any]]] = {}
        for entry in self.journal.replay():
            kind = entry.get("type")
            if kind == "submit":
                submits.append(entry)
            elif kind == "ack":
                acks.setdefault(str(entry.get("fleet_id")), {})[
                    str(entry.get("run_id"))] = entry
            # "lease" entries are ignored: an in-flight lease from the
            # previous life is exactly what must go back to the queue.
        built: list[_Fleet] = []
        counter = 0
        # Store I/O happens out here on fleets no other thread can see
        # yet; only the final installation below takes the lock.
        for entry in submits:
            fleet = self._rebuild_fleet(entry, acks, stats)
            if fleet is None:
                continue
            try:
                counter = max(counter,
                              int(fleet.fleet_id.rsplit("-", 1)[1]))
            except (IndexError, ValueError):
                pass
            built.append(fleet)
        with self._cond:
            for fleet in built:
                self._fleets[fleet.fleet_id] = fleet
                if fleet.submission_key:
                    self._submissions[fleet.submission_key] = \
                        fleet.fleet_id
                done = 0
                for slot in fleet.slots:
                    if slot.state == DONE and slot.record is not None:
                        done += 1
                        self._emit_run(fleet, done, slot)
                if done == len(fleet.slots):
                    self._finalize(fleet)
            self._counter = max(self._counter, counter)
            self.recovered_fleets = stats["fleets"]
            self.recovered_records = stats["records"]
            self.recovery_requeued = stats["requeued"]
            self._cond.notify_all()
            # Re-seed the journal with one snapshot of the restored
            # state — replay lag drops to zero and stale segments go.
            self.journal.compact(self._snapshot_entries())
        return stats

    def _rebuild_fleet(self, entry: dict[str, Any],
                       acks: dict[str, dict[str, dict[str, Any]]],
                       stats: dict[str, int]) -> Optional[_Fleet]:
        """One fleet from its journaled submission; no lock held (the
        fleet is local until :meth:`recover` installs it)."""
        fleet_id = str(entry.get("fleet_id", ""))
        if not fleet_id:
            return None
        sweep_data = entry.get("sweep")
        try:
            if sweep_data is not None:
                sweep: Optional[SweepSpec] = SweepSpec.from_dict(
                    sweep_data)
                runs = list(sweep.expand())
            else:
                # Compact runs, or full RunSpec dicts from journals
                # written before run lists were packed.
                sweep = None
                runs = unpack_runs(entry) if entry.get("runs") else []
        except (KeyError, TypeError, ValueError):
            return None
        if not runs:
            return None
        packed = None
        if sweep is None:
            # A compact entry is kept as it is; an older full-runs one
            # is packed, so the next compaction writes it compact.
            packed = ({"bases": entry["bases"], "runs": entry["runs"]}
                      if entry.get("bases") else pack_runs(runs))
        store = FleetStore(self.root / fleet_id)
        if sweep is not None and not store.manifest_path.exists():
            # The crash landed between the journal append and the
            # manifest write: re-create the skeleton.
            store.begin(sweep, jobs=1, backend="service")
        existing = store.existing_records()
        fleet = _Fleet(fleet_id, [_Slot(run) for run in runs], store,
                       sweep, self.clock(), packed)
        fleet.submission_key = str(entry.get("submission_key") or "")
        fleet_acks = acks.get(fleet_id, {})
        for slot in fleet.slots:
            record = existing.get(slot.run.run_id)
            ack = fleet_acks.get(slot.run.run_id)
            if record is not None and record_matches_spec(
                    record, slot.run):
                slot.record = record
                slot.state = DONE
                if ack is not None:
                    slot.cached = bool(ack.get("cached", False))
                    slot.wall_s = float(ack.get("wall_s", 0.0))
                    worker = str(ack.get("worker_id") or "")
                    if worker:
                        fleet.workers.add(worker)
                else:
                    # On disk but never acked: a prefill (or an ack
                    # lost to a torn journal tail) — count it reused.
                    slot.cached = True
                stats["records"] += 1
                continue
            if self._prefill(fleet, slot):
                stats["prefilled"] += 1
                continue
            if ack is not None:
                stats["requeued"] += 1
        fleet.submitted_cached = sum(1 for s in fleet.slots if s.cached)
        fleet.events.append({"event": "recovered",
                             "fleet_id": fleet_id,
                             "total": len(fleet.slots),
                             "done": fleet.done_count(),
                             "requeued": (len(fleet.slots)
                                          - fleet.done_count())})
        stats["fleets"] += 1
        return fleet

    def _snapshot_entries(self) -> list[dict[str, Any]]:  # lint: holds(_cond)
        """The journal entries that reproduce current state — what a
        compaction writes behind its snapshot marker."""
        entries: list[dict[str, Any]] = []
        for fleet in self._fleets.values():
            entries.append(fleet.submit_entry())
            for slot in fleet.slots:
                if slot.state == DONE:
                    entries.append({"type": "ack",
                                    "fleet_id": fleet.fleet_id,
                                    "run_id": slot.run.run_id,
                                    "worker_id": slot.worker_id,
                                    "wall_s": slot.wall_s,
                                    "cached": slot.cached})
            if fleet.complete:
                entries.append({"type": "complete",
                                "fleet_id": fleet.fleet_id})
        return entries

    def compact_journal(self, *, min_lag: int = 1) -> bool:
        """Compact when at least ``min_lag`` entries accumulated since
        the last snapshot; returns whether a compaction ran.  The
        server's chore thread calls this periodically."""
        with self._cond:
            if (self.journal is None
                    or self.journal.appended_since_compact < min_lag):
                return False
            self.journal.compact(self._snapshot_entries())
            return True

    def sync_journal(self) -> None:
        """Force journaled state to disk — the drain path's last step
        before a clean exit."""
        with self._cond:
            if self.journal is not None:
                self.journal.sync()

    # -- drain ------------------------------------------------------------

    def drain(self) -> None:
        """Stop granting leases and refuse new fleets; results for
        already-granted leases are still accepted and acked."""
        with self._cond:
            self._draining = True
            self._cond.notify_all()

    def draining(self) -> bool:
        with self._cond:
            return bool(self._draining)

    def in_flight(self) -> int:
        """Leases currently checked out — what drain waits to hit 0."""
        with self._cond:
            return sum(1 for f in self._open_fleets()
                       for s in f.slots if s.state == LEASED)

    # -- introspection ----------------------------------------------------

    def _open_fleets(self) -> Iterator[_Fleet]:  # lint: holds(_cond)
        """The fleets not yet complete.  A complete fleet holds only
        DONE slots, so slot scans skip it; the server keeps every fleet
        it accepted for its whole run."""
        return (f for f in self._fleets.values() if not f.complete)

    def _fleet(self, fleet_id: str) -> _Fleet:  # lint: holds(_cond)
        try:
            return self._fleets[fleet_id]
        except KeyError:
            raise LookupError(f"unknown fleet {fleet_id!r}") from None

    def fleet_dir(self, fleet_id: str) -> Path:
        with self._cond:
            return self._fleet(fleet_id).store.directory

    def fleet_ids(self) -> list[str]:
        with self._cond:
            return list(self._fleets)

    def status(self, fleet_id: str) -> FleetStatus:
        with self._cond:
            fleet = self._fleet(fleet_id)
            done = fleet.done_count()
            leased = sum(1 for s in fleet.slots if s.state == LEASED)
            wall = ((fleet.finished if fleet.complete else self.clock())
                    - fleet.created)
            return FleetStatus(
                fleet_id=fleet_id,
                state="complete" if fleet.complete else "running",
                total=len(fleet.slots), done=done, leased=leased,
                pending=len(fleet.slots) - done - leased,
                cached=sum(1 for s in fleet.slots if s.cached),
                workers=len(fleet.workers), wall_s=wall)

    def statuses(self) -> list[FleetStatus]:
        with self._cond:
            ids = list(self._fleets)
        return [self.status(fleet_id) for fleet_id in ids]

    def queue_stats(self) -> dict[str, int]:
        """Queue depth for the readiness probe: pending and leased
        runs plus fleet counts, in one consistent snapshot."""
        with self._cond:
            pending = leased = 0
            running = 0
            for fleet in self._open_fleets():
                running += 1
                for slot in fleet.slots:
                    if slot.state == PENDING:
                        pending += 1
                    elif slot.state == LEASED:
                        leased += 1
            return {"fleets": len(self._fleets), "running": running,
                    "pending": pending, "leased": leased}

    def slots(self, fleet_id: str, *, since: int = 0,
              wait_s: float = 0.0) -> tuple[list[dict[str, Any]], bool]:
        """Slot snapshots from index ``since`` on, plus the complete
        flag — the surface ``RemoteExecutor`` streams from.  With
        ``wait_s``, first waits (long poll) until slot ``since`` is
        done or the wait times out."""
        if since < 0:
            raise ValueError("since must be >= 0")
        deadline = time.monotonic() + wait_s
        with self._cond:
            fleet = self._fleet(fleet_id)
            while (since < len(fleet.slots)
                   and fleet.slots[since].state != DONE):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(min(remaining, 0.5))
            complete = fleet.complete
            store = fleet.store
            slots = [slot.to_dict(with_record=not complete)
                     for slot in fleet.slots[since:]]
        if complete:
            # A complete fleet's records live only in its store, and
            # nothing changes them any more: read them unlocked.
            for payload in slots:
                payload["record"] = self._stored_record(
                    store, payload["run_id"]).to_dict()
        return slots, complete

    def record(self, fleet_id: str, run_id: str) -> RunRecord:
        with self._cond:
            fleet = self._fleet(fleet_id)
            slot = next((slot for slot in fleet.slots
                         if slot.run.run_id == run_id), None)
            if slot is None:
                raise LookupError(
                    f"unknown run {run_id!r} in {fleet_id!r}")
            if slot.record is not None:
                return slot.record
            if not fleet.complete:
                raise LookupError(f"run {run_id!r} has no record yet")
            store = fleet.store
        return self._stored_record(store, run_id)

    @staticmethod
    def _stored_record(store: FleetStore, run_id: str) -> RunRecord:
        """A released record, read back from its fleet store."""
        try:
            return store.read_record(run_id)
        except (OSError, ValueError) as exc:
            raise LookupError(
                f"run {run_id!r}: stored record unreadable: {exc}"
            ) from None

    def events_since(self, fleet_id: str, index: int, *,
                     wait_s: float = 0.0
                     ) -> tuple[list[dict[str, Any]], bool]:
        """Events from ``index`` on; with ``wait_s`` blocks until a
        new event arrives, the fleet completes, or the wait times out
        — the NDJSON streaming loop."""
        deadline = time.monotonic() + wait_s
        with self._cond:
            fleet = self._fleet(fleet_id)
            while (len(fleet.events) <= index and not fleet.complete):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(min(remaining, 0.5))
            return list(fleet.events[index:]), fleet.complete
