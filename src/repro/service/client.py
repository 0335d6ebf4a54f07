"""HTTP client for the fleet service — ``http.client`` plus the contracts.

One small class wraps every route the server exposes, translating
HTTP errors into :class:`ServiceError` (which keeps the status code
and the server's ``Retry-After`` hint) and payloads into the typed
contracts.  It deliberately imports nothing from the fleet layer: a
worker host needs this module, :mod:`repro.service.contracts`,
:mod:`repro.service.retry`, and the evaluation stack — not the whole
orchestration surface.

Each thread keeps one persistent (keep-alive)
:class:`http.client.HTTPConnection` to the server, so a worker's
session costs one TCP connection, not one per request.  A kept-alive
socket the server has since closed (its idle timeout, a restart) is
replaced once, and the request re-sent on a fresh connection.  The
event stream opens a connection of its own, closed with the stream.

Fault tolerance: every request can run under a shared
:class:`~repro.service.retry.RetryPolicy` (pass ``retry=``).  The
whole API is safe to retry blind — every route is idempotent by
construction:

* fleet submission carries a client-generated ``submission_key``; a
  retried submit of the same key returns the *original* fleet
  (``SubmitAck.duplicate``) instead of a second copy,
* result submission is deduplicated by ``run_key`` content identity,
* a lease grant lost on the wire simply expires back into the queue.

Connection failures (:class:`ServiceUnavailable`) and 429/5xx answers
are retried; 4xx contract errors are not.  The optional ``fault_hook``
is the test harness's seam (:mod:`repro.testing.faults`): called once
per attempt, it may sleep (delay), or return ``"drop-request"`` /
``"drop-response"`` / ``"duplicate"`` to simulate the matching network
fault deterministically.
"""

from __future__ import annotations

import json
import threading
import uuid
from http.client import HTTPConnection, HTTPException, HTTPResponse
from typing import (
    Any,
    Callable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Union,
)
from urllib.parse import urlsplit

from .contracts import (
    FleetStatus,
    Health,
    LeaseGrant,
    LeaseGroup,
    ResultAck,
    ResultSubmission,
    SubmitAck,
)
from .retry import RetryExhausted, RetryPolicy, call_with_retry

__all__ = ["ServiceClient", "ServiceError", "ServiceUnavailable",
           "RETRYABLE_STATUSES"]

#: Statuses worth retrying: backpressure and transient server trouble.
RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})


class ServiceError(Exception):
    """The server answered with an error status."""

    def __init__(self, status: int, message: str, *,
                 retry_after_s: float = 0.0) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.retry_after_s = retry_after_s


class ServiceUnavailable(Exception):
    """The server could not be reached at all."""


class ServiceClient:
    """Typed access to one ``repro serve`` instance.

    ``retry=None`` keeps the historical try-once behavior; pass a
    :class:`RetryPolicy` to make every call survive transient faults.
    ``sleep`` is injectable so retry tests never actually wait.
    Raises :class:`ValueError` for a URL that is not ``http://``
    (``repro serve`` speaks plain HTTP).
    """

    def __init__(self, base_url: str, *, timeout_s: float = 30.0,
                 retry: Optional[RetryPolicy] = None,
                 sleep: Optional[Callable[[float], None]] = None,
                 fault_hook: Optional[
                     Callable[[str], Optional[str]]] = None) -> None:
        self.base_url = base_url.rstrip("/")
        url = urlsplit(self.base_url)
        if url.scheme != "http" or not url.hostname:
            raise ValueError(f"not an http:// URL: {base_url!r}")
        self._host, self._port = url.hostname, url.port
        self._prefix = url.path
        self.timeout_s = timeout_s
        self.retry = retry if retry is not None else RetryPolicy.none()
        self._sleep = sleep
        self._fault = fault_hook
        self._local = threading.local()

    # -- plumbing ---------------------------------------------------------

    def _connect(self, timeout_s: float) -> HTTPConnection:
        return HTTPConnection(self._host, self._port, timeout=timeout_s)

    def close(self) -> None:
        """Close the calling thread's kept-alive connection."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()

    def _http(self, method: str, path: str, body: Optional[bytes],
              wait_s: float = 0.0) -> Any:
        timeout_s = self.timeout_s + wait_s
        headers = {"Content-Type": "application/json"} if body else {}
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = \
                self._connect(timeout_s)
        while True:
            # A socket still open has served a request before: if it
            # fails before any answer, the server closed it while idle
            # — re-send once on a fresh one (every route is idempotent).
            kept = connection.sock is not None
            connection.timeout = timeout_s
            if kept:
                connection.sock.settimeout(timeout_s)
            try:
                connection.request(method, self._prefix + path,
                                   body=body, headers=headers)
                response = connection.getresponse()
                data = response.read()
                break
            except (HTTPException, OSError) as exc:
                connection.close()
                if kept and not isinstance(exc, TimeoutError):
                    continue
                # Refused, or the connection died mid-request — a
                # server killed while it held a long poll, say.
                raise ServiceUnavailable(
                    f"cannot reach {self.base_url}: {exc!r}") from None
        if response.status >= 400:
            raise _error(response, data)
        return json.loads(data or b"null")

    def _attempt(self, method: str, path: str, body: Optional[bytes],
                 wait_s: float) -> Any:
        """One attempt, with the fault-injection seam around it."""
        op = f"{method} {path}"
        verb = self._fault(op) if self._fault is not None else None
        if verb == "drop-request":
            raise ServiceUnavailable(
                f"cannot reach {self.base_url}: "
                f"injected drop of {op}")
        result = self._http(method, path, body, wait_s)
        if verb == "duplicate":
            # The network delivered the request twice; the server's
            # idempotency makes the echo harmless.
            try:
                self._http(method, path, body, wait_s)
            except (ServiceError, ServiceUnavailable):
                pass
        if verb == "drop-response":
            # The server processed the request but the answer was
            # lost — the ambiguous failure idempotency exists for.
            raise ServiceUnavailable(
                f"cannot reach {self.base_url}: "
                f"injected loss of response to {op}")
        return result

    @staticmethod
    def _classify(exc: BaseException) -> Optional[float]:
        if isinstance(exc, ServiceUnavailable):
            return 0.0
        if (isinstance(exc, ServiceError)
                and exc.status in RETRYABLE_STATUSES):
            return exc.retry_after_s
        return None

    def _request(self, method: str, path: str,
                 payload: Optional[dict[str, Any]] = None, *,
                 wait_s: float = 0.0) -> Any:
        """``wait_s`` is a long poll the server may hold the request
        for; it extends this request's socket timeout."""
        body = (json.dumps(payload).encode()
                if payload is not None else None)
        kwargs: dict[str, Any] = {}
        if self._sleep is not None:
            kwargs["sleep"] = self._sleep
        try:
            return call_with_retry(
                lambda: self._attempt(method, path, body, wait_s),
                policy=self.retry, classify=self._classify,
                key=f"{method} {path}", **kwargs)
        except RetryExhausted as exc:
            # Callers keep the historical contract: they see the
            # underlying ServiceError/ServiceUnavailable, not the
            # retry wrapper.
            raise exc.last from None

    def _get(self, path: str) -> Any:
        return self._request("GET", path)

    def _post(self, path: str, payload: dict[str, Any]) -> Any:
        return self._request("POST", path, payload)

    # -- control plane ----------------------------------------------------

    def health(self) -> Health:
        return Health.from_dict(self._get("/healthz"))

    def scenario_index(self) -> list[dict[str, Any]]:
        return list(self._get("/scenarios")["scenarios"])

    def scenario(self, name: str) -> dict[str, Any]:
        return dict(self._get(f"/scenarios/{name}"))

    def submit_sweep(self, sweep: dict[str, Any], *,
                     submission_key: Optional[str] = None) -> SubmitAck:
        """Submit a :class:`~repro.fleet.sweep.SweepSpec` dict.

        A fresh idempotency key is generated per call (so resubmitting
        the same sweep intentionally still creates a new fleet), and
        the *same* key rides every retry of this submission — an
        ambiguous failure can never double-submit.
        """
        return SubmitAck.from_dict(self._post("/fleets", {
            "sweep": sweep,
            "submission_key": submission_key or uuid.uuid4().hex}))

    def submit_runs(self,
                    runs: Union[Mapping[str, Any], list[dict[str, Any]]],
                    *, submission_key: Optional[str] = None) -> SubmitAck:
        """Submit already-expanded runs: a compact
        :func:`~repro.fleet.sweep.pack_runs` payload (each base spec
        once, per-run overrides), or a list of full ``RunSpec`` dicts.
        """
        body = dict(runs) if isinstance(runs, Mapping) else {"runs": runs}
        body["submission_key"] = submission_key or uuid.uuid4().hex
        return SubmitAck.from_dict(self._post("/fleets", body))

    def fleets(self) -> list[FleetStatus]:
        return [FleetStatus.from_dict(entry)
                for entry in self._get("/fleets")["fleets"]]

    def status(self, fleet_id: str) -> FleetStatus:
        return FleetStatus.from_dict(self._get(f"/fleets/{fleet_id}"))

    def slots(self, fleet_id: str, *, since: int = 0,
              wait_s: float = 0.0) -> tuple[list[dict[str, Any]], bool]:
        """Slot snapshots from ``since`` on, plus the complete flag;
        ``wait_s`` long-polls until slot ``since`` is done."""
        path = f"/fleets/{fleet_id}/records?since={since}"
        if wait_s:
            path += f"&wait_s={wait_s:g}"
        payload = self._request("GET", path, wait_s=wait_s)
        return list(payload["slots"]), bool(payload["complete"])

    def record(self, fleet_id: str, run_id: str) -> dict[str, Any]:
        return dict(self._get(f"/fleets/{fleet_id}/records/{run_id}"))

    def events(self, fleet_id: str, *, follow: bool = False,
               heartbeats: bool = False) -> Iterator[dict[str, Any]]:
        """The fleet's NDJSON event stream, decoded line by line.

        The server's keep-alive ``heartbeat`` lines are filtered out
        unless ``heartbeats=True`` — they carry no fleet progress,
        they only prove the stream is alive.
        """
        suffix = "?follow=1" if follow else ""
        connection = self._connect(self.timeout_s)
        try:
            connection.request(
                "GET", f"{self._prefix}/fleets/{fleet_id}/events{suffix}")
            response = connection.getresponse()
            if response.status != 200:
                raise _error(response, response.read())
            for line in response:
                line = line.strip()
                if not line:
                    continue
                event = json.loads(line)
                if (not heartbeats and isinstance(event, dict)
                        and event.get("event") == "heartbeat"):
                    continue
                yield event
        except (HTTPException, OSError) as exc:
            raise ServiceUnavailable(
                f"cannot reach {self.base_url}: {exc!r}") from None
        finally:
            connection.close()

    def compare(self, a: str, b: str) -> dict[str, Any]:
        return dict(self._get(f"/compare?a={a}&b={b}"))

    # -- worker plane -----------------------------------------------------

    def lease(self, worker_id: str) -> Optional[LeaseGrant]:
        """Check out the next pending run; ``None`` = queue empty.

        Safe to retry: a grant lost on the wire is never posted
        against, so its lease simply expires back into the queue.
        """
        payload = self._post("/lease", {"worker_id": worker_id})
        if payload.get("run") is None:
            return None
        return LeaseGrant.from_dict(payload)

    def lease_runs(self, worker_id: str, *, max_runs: int,
                   wait_s: float = 0.0) -> LeaseGroup:
        """Check out up to ``max_runs`` pending runs of the next
        build-key group (the broker may grant fewer, so idle workers
        share a group), one lease per run; an empty group means no
        work arrived within ``wait_s`` (a long poll the server caps).
        Safe to retry, like :meth:`lease`."""
        return LeaseGroup.from_dict(self._request(
            "POST", "/lease", {"worker_id": worker_id,
                               "max_runs": max_runs, "wait_s": wait_s},
            wait_s=wait_s))

    def post_result(self, lease_id: str, record: dict[str, Any], *,
                    wall_s: float = 0.0) -> ResultAck:
        submission = ResultSubmission(lease_id=lease_id, record=record,
                                      wall_s=wall_s)
        return ResultAck.from_dict(self._post("/results",
                                              submission.to_dict()))

    def post_results(self, submissions: Sequence[ResultSubmission]
                     ) -> list[Union[ResultAck, ServiceError]]:
        """Post a batch of results and failures in one request.  Each
        item is answered on its own, in order: its ack, or the
        :class:`ServiceError` a single post of it would have raised.
        Safe to retry whole: items that already landed ack as
        duplicates."""
        payload = self._post("/results", {"results": [
            submission.to_dict() for submission in submissions]})
        return [ServiceError(int(item["status"]), str(item["error"]))
                if "error" in item else ResultAck.from_dict(item)
                for item in payload["acks"]]


def _error(response: HTTPResponse, data: bytes) -> ServiceError:
    """The :class:`ServiceError` for an error answer: the server's
    message, and its retry hint from the JSON body or the
    ``Retry-After`` header, whichever is longer."""
    detail = ""
    retry_after = 0.0
    try:
        payload = json.loads(data)
        detail = str(payload.get("error", ""))
        retry_after = float(payload.get("retry_after_s", 0.0))
    except (TypeError, ValueError, AttributeError):
        pass
    header = response.getheader("Retry-After")
    if header is not None:
        try:
            retry_after = max(retry_after, float(header))
        except ValueError:
            pass
    return ServiceError(response.status, detail or response.reason,
                        retry_after_s=retry_after)
