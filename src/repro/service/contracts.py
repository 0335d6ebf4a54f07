"""Wire contracts of the fleet service: typed, versioned payloads.

Every request and response body that crosses the HTTP boundary is one
of these dataclasses, round-tripped through plain JSON dicts.  Each
payload carries the contract version (``api``); a reader rejects
versions newer than it understands, so a stale worker talking to a
newer server fails loudly instead of mis-parsing.

This module is deliberately stdlib-only and imports nothing from the
rest of the package: the client (and a worker deployed on a bare
host) needs exactly these shapes plus ``http.client``.  Scenario and
sweep payloads travel as the plain dicts their own
``to_dict``/``from_dict`` already define — the service adds an
envelope, not a new encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

__all__ = [
    "API_VERSION",
    "ContractError",
    "FleetStatus",
    "Health",
    "LeaseGrant",
    "LeaseGroup",
    "ResultAck",
    "ResultSubmission",
    "SubmitAck",
]

#: Version of the request/response shapes defined here.
API_VERSION = 1

#: Fleet lifecycle states, in order.
FLEET_STATES = ("running", "complete")


class ContractError(ValueError):
    """A payload that does not parse as the contract it claims to be."""


def _check_api(data: Mapping[str, Any], kind: str) -> None:
    api = data.get("api", API_VERSION)
    if not isinstance(api, int) or api > API_VERSION:
        raise ContractError(
            f"{kind} payload is api version {api!r}; this side "
            f"speaks up to {API_VERSION}")


def _require(data: Mapping[str, Any], kind: str, *fields: str) -> None:
    missing = [name for name in fields if name not in data]
    if missing:
        raise ContractError(f"{kind} payload missing {missing}")


@dataclass(frozen=True)
class Health:
    """``GET /healthz``: liveness *and* readiness.

    Beyond version/uptime, the probe carries everything a load
    balancer (or the backpressure tests) needs to judge the server:
    queue depth and in-flight leases (``queue``), journal vitals and
    replay lag (``journal``), shared-cache usage and live hit/corrupt
    counters (``cache``), the drain flag, and a summary ``ready``
    verdict — ``False`` once draining starts.  All additive since api
    1, so old readers still parse.
    """

    version: str                        #: repro package version
    uptime_s: float
    fleets: int                         #: fleets submitted this process
    running: int                        #: of which still running
    cache: dict[str, Any] = field(default_factory=dict)
    queue: dict[str, Any] = field(default_factory=dict)
    journal: dict[str, Any] = field(default_factory=dict)
    limits: dict[str, Any] = field(default_factory=dict)
    draining: bool = False
    ready: bool = True
    api: int = API_VERSION

    def to_dict(self) -> dict[str, Any]:
        return {"api": self.api, "service": "repro",
                "version": self.version, "uptime_s": self.uptime_s,
                "fleets": self.fleets, "running": self.running,
                "cache": dict(self.cache), "queue": dict(self.queue),
                "journal": dict(self.journal),
                "limits": dict(self.limits),
                "draining": self.draining, "ready": self.ready}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Health":
        _check_api(data, "health")
        _require(data, "health", "version", "uptime_s")
        return cls(version=str(data["version"]),
                   uptime_s=float(data["uptime_s"]),
                   fleets=int(data.get("fleets", 0)),
                   running=int(data.get("running", 0)),
                   cache=dict(data.get("cache", {})),
                   queue=dict(data.get("queue", {})),
                   journal=dict(data.get("journal", {})),
                   limits=dict(data.get("limits", {})),
                   draining=bool(data.get("draining", False)),
                   ready=bool(data.get("ready", True)),
                   api=int(data.get("api", API_VERSION)))


@dataclass(frozen=True)
class SubmitAck:
    """``POST /fleets`` response: the new fleet's identity and size.

    ``duplicate=True`` means the submission's idempotency key had been
    seen before and this ack describes the *original* fleet — the
    response a client retrying an ambiguous submission failure gets
    instead of a second copy of its fleet.
    """

    fleet_id: str
    total: int                          #: runs in the fleet
    cached: int                         #: served from cache at submit
    duplicate: bool = False             #: idempotent replay of a prior submit
    api: int = API_VERSION

    def to_dict(self) -> dict[str, Any]:
        return {"api": self.api, "fleet_id": self.fleet_id,
                "total": self.total, "cached": self.cached,
                "duplicate": self.duplicate}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SubmitAck":
        _check_api(data, "submit-ack")
        _require(data, "submit-ack", "fleet_id", "total")
        return cls(fleet_id=str(data["fleet_id"]),
                   total=int(data["total"]),
                   cached=int(data.get("cached", 0)),
                   duplicate=bool(data.get("duplicate", False)),
                   api=int(data.get("api", API_VERSION)))


@dataclass(frozen=True)
class FleetStatus:
    """``GET /fleets/<id>``: a fleet's progress snapshot."""

    fleet_id: str
    state: str                          #: ``running`` | ``complete``
    total: int
    done: int
    leased: int
    pending: int
    cached: int                         #: of ``done``, reused not computed
    workers: int                        #: distinct workers that completed runs
    wall_s: float                       #: submit -> now (or completion)
    api: int = API_VERSION

    def __post_init__(self) -> None:
        if self.state not in FLEET_STATES:
            raise ContractError(f"unknown fleet state {self.state!r}")

    @property
    def complete(self) -> bool:
        return self.state == "complete"

    def to_dict(self) -> dict[str, Any]:
        return {"api": self.api, "fleet_id": self.fleet_id,
                "state": self.state, "total": self.total,
                "done": self.done, "leased": self.leased,
                "pending": self.pending, "cached": self.cached,
                "workers": self.workers, "wall_s": self.wall_s}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FleetStatus":
        _check_api(data, "fleet-status")
        _require(data, "fleet-status", "fleet_id", "state", "total",
                 "done")
        return cls(fleet_id=str(data["fleet_id"]),
                   state=str(data["state"]),
                   total=int(data["total"]), done=int(data["done"]),
                   leased=int(data.get("leased", 0)),
                   pending=int(data.get("pending", 0)),
                   cached=int(data.get("cached", 0)),
                   workers=int(data.get("workers", 0)),
                   wall_s=float(data.get("wall_s", 0.0)),
                   api=int(data.get("api", API_VERSION)))


@dataclass(frozen=True)
class LeaseGrant:
    """One run checked out to one worker, under its own lease id.

    In the single-run ``POST /lease`` answer (no ``max_runs``), the
    grant is the whole response and ``run`` is a plain
    :class:`~repro.fleet.sweep.RunSpec` dict.  Inside a
    :class:`LeaseGroup`, ``run`` is instead a compact
    :func:`~repro.fleet.sweep.pack_runs` run (``run_id``, ``base``,
    ``overrides``, ``seed``, ``density``, ``variant``, ``spec_key``)
    whose ``base`` indexes the group's ``bases``.  The lease expires
    ``ttl_s`` after grant; a worker that has not posted the run's
    result by then loses it — the run silently returns to the queue
    for the next worker, and a late result is still accepted (verified
    by content) unless someone else finished first.
    """

    lease_id: str
    fleet_id: str
    run: dict[str, Any]
    ttl_s: float
    api: int = API_VERSION

    def to_dict(self) -> dict[str, Any]:
        return {"api": self.api, "lease_id": self.lease_id,
                "fleet_id": self.fleet_id, "run": dict(self.run),
                "ttl_s": self.ttl_s}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LeaseGrant":
        _check_api(data, "lease-grant")
        _require(data, "lease-grant", "lease_id", "fleet_id", "run")
        run = data["run"]
        if not isinstance(run, Mapping):
            raise ContractError("lease-grant run must be a RunSpec dict")
        return cls(lease_id=str(data["lease_id"]),
                   fleet_id=str(data["fleet_id"]), run=dict(run),
                   ttl_s=float(data.get("ttl_s", 0.0)),
                   api=int(data.get("api", API_VERSION)))


@dataclass(frozen=True)
class LeaseGroup:
    """``POST /lease`` response to a request carrying ``max_runs``:
    up to that many pending runs of one build-key group (and no more
    than the worker's fair share of the outstanding runs), one
    :class:`LeaseGrant` (and lease id) per run.

    The group is packed: each base spec its runs are patched out of
    travels once, in ``bases`` (plain ``ScenarioSpec`` dicts), and
    each grant's ``run`` is the compact run naming its base and
    overrides — :meth:`packed` is the :func:`~repro.fleet.sweep
    .pack_runs` payload :func:`~repro.fleet.sweep.unpack_runs` rebuilds
    (and checks against each run's ``spec_key``).  An answer without
    ``bases`` carries full ``RunSpec`` dicts, which ``unpack_runs``
    reads as they are.

    Each result posted against one of the grants renews the deadlines
    of the group's runs still leased.  An empty group means no work
    arrived within the request's ``wait_s``; ``draining`` says the
    server will grant nothing more.
    """

    grants: tuple[LeaseGrant, ...] = ()
    bases: tuple[dict[str, Any], ...] = ()
    draining: bool = False
    api: int = API_VERSION

    def packed(self) -> dict[str, Any]:
        """The group's runs as a ``pack_runs`` payload."""
        return {"bases": list(self.bases),
                "runs": [grant.run for grant in self.grants]}

    def to_dict(self) -> dict[str, Any]:
        return {"api": self.api,
                "bases": list(self.bases),
                "grants": [grant.to_dict() for grant in self.grants],
                "draining": self.draining}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LeaseGroup":
        _check_api(data, "lease-group")
        _require(data, "lease-group", "grants")
        bases = data.get("bases") or ()
        if not all(isinstance(base, Mapping) for base in bases):
            raise ContractError("lease-group bases must be spec dicts")
        return cls(grants=tuple(LeaseGrant.from_dict(grant)
                                for grant in data["grants"]),
                   bases=tuple(dict(base) for base in bases),
                   draining=bool(data.get("draining", False)),
                   api=int(data.get("api", API_VERSION)))


@dataclass(frozen=True)
class ResultSubmission:
    """``POST /results`` request: a worker returning a leased run.

    Either ``record`` (a :class:`~repro.fleet.sweep.RunRecord` dict)
    on success or ``error`` on failure — a failed run is immediately
    re-queued instead of waiting out the lease.  A batch body carries
    a list of these as ``{"results": [...]}``.
    """

    lease_id: str
    record: Optional[dict[str, Any]] = None
    wall_s: float = 0.0
    error: str = ""
    api: int = API_VERSION

    def __post_init__(self) -> None:
        if (self.record is None) == (not self.error):
            raise ContractError(
                "result payload needs exactly one of record/error")

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"api": self.api,
                                   "lease_id": self.lease_id,
                                   "wall_s": self.wall_s}
        if self.record is not None:
            payload["record"] = dict(self.record)
        if self.error:
            payload["error"] = self.error
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ResultSubmission":
        _check_api(data, "result")
        _require(data, "result", "lease_id")
        record = data.get("record")
        if record is not None and not isinstance(record, Mapping):
            raise ContractError("result record must be a RunRecord dict")
        return cls(lease_id=str(data["lease_id"]),
                   record=dict(record) if record is not None else None,
                   wall_s=float(data.get("wall_s", 0.0)),
                   error=str(data.get("error", "")),
                   api=int(data.get("api", API_VERSION)))


@dataclass(frozen=True)
class ResultAck:
    """``POST /results`` response: what the broker did with it (for
    a batch, one per item under ``acks``, where a refused item is
    ``{"error": ..., "status": ...}`` instead)."""

    accepted: bool                      #: record became the run's result
    duplicate: bool = False             #: run already had a result
    requeued: bool = False              #: failure path: run back in queue
    api: int = API_VERSION

    def to_dict(self) -> dict[str, Any]:
        return {"api": self.api, "accepted": self.accepted,
                "duplicate": self.duplicate, "requeued": self.requeued}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ResultAck":
        _check_api(data, "result-ack")
        _require(data, "result-ack", "accepted")
        return cls(accepted=bool(data["accepted"]),
                   duplicate=bool(data.get("duplicate", False)),
                   requeued=bool(data.get("requeued", False)),
                   api=int(data.get("api", API_VERSION)))
