"""``python -m repro serve``: the HTTP control plane.

A long-running, stdlib-only (:mod:`http.server`) service wrapping one
:class:`~repro.service.broker.FleetBroker` and one shared result
cache.  Many clients submit campaigns; many workers drain the queue;
one warm cache serves them all.  State is durable: every accepted
submission and result is journaled (:mod:`repro.service.journal`)
before it is acked, and a restarted server recovers its whole queue
through :meth:`FleetBroker.recover`.

Routes (bodies are the dataclasses in
:mod:`repro.service.contracts`, plus the fleet layer's own dict
encodings):

====================================  ======================================
``GET  /healthz``                     readiness probe: version, uptime,
                                      queue depth, journal lag, cache
                                      stats, limits, drain state
``GET  /scenarios``                   the scenario registry
``GET  /scenarios/<name>``            one spec as JSON
``POST /fleets``                      submit ``{"sweep": ...}`` or a run
                                      list ``{"bases": [...], "runs":
                                      [...]}`` (``pack_runs``); 201 +
                                      SubmitAck
``GET  /fleets``                      status list
``GET  /fleets/<id>``                 one fleet's status
``GET  /fleets/<id>/events``          NDJSON progress stream
                                      (``?follow=1`` blocks until complete)
``GET  /fleets/<id>/records``         slot snapshots (``?since=N``;
                                      ``&wait_s=S`` long-polls for slot N)
``GET  /fleets/<id>/records/<run>``   one run record
``POST /lease``                       worker checkout: with ``max_runs``
                                      a LeaseGroup (one build-key group,
                                      packed: its base specs once in
                                      ``bases``, each grant's run the
                                      compact ``pack_runs`` run), without
                                      it one grant with a full RunSpec
                                      dict, as before, or ``{"run":
                                      null}``; ``wait_s`` long-polls for
                                      work
``POST /results``                     worker return: one
                                      ResultSubmission, answered with a
                                      ResultAck, or a batch ``{"results":
                                      [...]}``, answered ``{"acks":
                                      [...]}`` item by item (a ResultAck,
                                      or ``{"error", "status"}`` for an
                                      item refused as the single post
                                      would be)
``GET  /compare?a=<id>&b=<id>``       cross-fleet comparison report
====================================  ======================================

Connections are HTTP/1.1 keep-alive, so a worker or client pays one
TCP connection and one server thread for its whole session.  Every
JSON answer carries a ``Content-Length`` and leaves without Nagle
delay; the NDJSON event stream instead answers ``Connection: close``
and ends with its connection.  Bodies are framed strictly: a missing,
negative or non-integer ``Content-Length`` (or a chunked body) is a
400, one past :data:`MAX_BODY_BYTES` a 413, and any answer sent before
the body was read in full closes the connection, so leftover bytes are
never parsed as the next request.  A connection idle (or stalled
mid-request) for :data:`HANDLER_TIMEOUT_S` is closed, freeing its
thread.

Errors are JSON ``{"error": ...}``: 400 for malformed payloads, 404
for unknown fleets/runs/leases, 409 for a result that fails content
verification, and 429 + ``Retry-After`` when backpressure (submission
limits, the lease rate cap, drain mode) refuses work — the shared
retry policy honors the hint.  A long poll (``wait_s``) is capped at
``stream_heartbeat_s``, the same bound an idle event stream waits.
The server is deliberately thin — every decision lives in the broker,
which is driven directly (no sockets) by the unit tests; these
handlers only translate HTTP.

Lifecycle chores run in a background thread: expired leases are swept
even when no worker is polling, the journal (at ``root/journal``) is
compacted once its replay lag passes :data:`COMPACT_LAG`, and the
shared cache is GC'd (:func:`repro.fleet.gc.run_gc`) on startup —
which sweeps a crashed writer's staging files, whatever the limits —
and, when a limit is configured, every ``gc_interval_s`` thereafter.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Union
from urllib.parse import parse_qs, urlparse

from .. import __version__, scenarios
from ..fleet.cache import ResultCache
from ..fleet.compare import compare_paths
from ..fleet.gc import cache_usage, run_gc
from ..fleet.sweep import SweepSpec, unpack_runs
from .broker import BrokerBusy, FleetBroker
from .contracts import ContractError, Health, ResultSubmission
from .journal import FleetJournal

__all__ = ["ReproService"]

#: NDJSON line written on an idle ``follow`` stream so a vanished
#: client turns into a send error instead of a thread leak.
HEARTBEAT = {"event": "heartbeat"}

#: Largest request body accepted (413 past it).  The largest legitimate
#: bodies are fleet submissions.  A sweep is a few KB at any size; a
#: packed run list (what the ``remote`` backend sends) costs a base
#: spec (about 11 KB) per base plus a few hundred bytes per run, so
#: fleets of about 10^5 runs fit; a plain list of full run specs
#: (about 11 KB each) fits about 6000.  A batch of results (about 2.4 KB
#: a record) fits many times over.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Seconds a connection may sit idle between requests, or stall while
#: sending one, before its handler thread closes it.
HANDLER_TIMEOUT_S = 30.0

#: Journal entries past the last snapshot that trigger a compaction.
COMPACT_LAG = 256


class _BadRequest(Exception):
    """Maps to a 400 with its message."""


class _TooLarge(Exception):
    """Maps to a 413 with its message."""


class ReproService:
    """One service instance: broker + cache + journal + HTTP front-end.

    ``port=0`` binds an ephemeral port (tests); ``url`` reports the
    bound address either way.  ``start()`` serves from a daemon
    thread, ``serve_forever()`` serves in the caller's thread (the
    CLI); ``stop()`` shuts both down, ``drain()`` is the graceful
    path (SIGTERM): stop granting leases, let checked-out work ack,
    sync the journal.

    The journal lives at ``root/journal``; ``journal_fsync=True`` (the
    CLI's ``--state`` mode) makes each append durable against power
    loss.  Any journaled state from a previous life is recovered before
    the socket opens — ``recovery`` holds the counters.
    """

    def __init__(self, root: Union[str, Path], *,
                 host: str = "127.0.0.1", port: int = 0,
                 cache_dir: Optional[Union[str, Path]] = None,
                 lease_ttl_s: float = 60.0,
                 journal_fsync: bool = False,
                 max_fleets: Optional[int] = None,
                 max_pending: Optional[int] = None,
                 lease_rate_per_s: Optional[float] = None,
                 stream_heartbeat_s: float = 10.0,
                 gc_max_bytes: Optional[int] = None,
                 gc_max_age_s: Optional[float] = None,
                 gc_interval_s: float = 300.0,
                 fault_hook: Optional[
                     Callable[[str], None]] = None) -> None:
        self.root = Path(root)
        self.cache_dir = (Path(cache_dir) if cache_dir is not None
                          else self.root / "cache")
        self.cache = ResultCache(self.cache_dir)
        self.journal = FleetJournal(self.root / "journal",
                                    fsync=journal_fsync)
        self.broker = FleetBroker(self.root / "fleets", cache=self.cache,
                                  lease_ttl_s=lease_ttl_s,
                                  journal=self.journal,
                                  max_fleets=max_fleets,
                                  max_pending=max_pending,
                                  lease_rate_per_s=lease_rate_per_s,
                                  fault_hook=fault_hook)
        self.stream_heartbeat_s = stream_heartbeat_s
        self.gc_max_bytes = gc_max_bytes
        self.gc_max_age_s = gc_max_age_s
        self.gc_interval_s = gc_interval_s
        self.started = time.monotonic()
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._streams_lock = threading.Lock()
        self._streams = 0
        # Resume whatever the previous process had accepted, then
        # reclaim a crashed writer's staging files (and apply any
        # configured limits) before accepting traffic.
        self.recovery = self.broker.recover()
        self.last_gc = run_gc(self.cache_dir,
                              max_bytes=gc_max_bytes,
                              max_age_s=gc_max_age_s)
        self.httpd = _ServiceHTTPServer((host, port), _Handler)
        self.httpd.service = self

    # -- lifecycle --------------------------------------------------------

    @property
    def url(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self.started

    def start(self) -> "ReproService":
        """Serve from daemon threads; returns self for chaining."""
        for target in (self.httpd.serve_forever, self._chores):
            thread = threading.Thread(target=target, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def serve_forever(self) -> None:
        """Serve in the calling thread (the CLI foreground mode)."""
        chores = threading.Thread(target=self._chores, daemon=True)
        chores.start()
        self._threads.append(chores)
        try:
            self.httpd.serve_forever()
        finally:
            self.stop()

    def stop(self) -> None:
        self._stop.set()
        self.httpd.shutdown()
        self.httpd.server_close()
        self.httpd.close_connections()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads.clear()

    def drain(self, *, wait_s: float = 30.0,
              poll_s: float = 0.05) -> bool:
        """Graceful degradation (the SIGTERM path): stop granting
        leases and refuse new fleets, keep accepting results for the
        leases already out, then compact and fsync the journal.
        Returns ``True`` when every lease resolved in time — the
        caller can then :meth:`stop` and exit 0.
        """
        self.broker.drain()
        deadline = time.monotonic() + wait_s
        while self.broker.in_flight() and time.monotonic() < deadline:
            time.sleep(poll_s)
        drained = self.broker.in_flight() == 0
        self.broker.compact_journal(min_lag=1)
        self.broker.sync_journal()
        return drained

    def _chores(self) -> None:
        """Periodic upkeep: lease expiry sweeps, journal compaction,
        and (if configured) cache GC, until stopped."""
        interval = max(1.0, min(self.broker.lease_ttl_s / 2.0,
                                self.gc_interval_s or 60.0))
        elapsed = 0.0
        while not self._stop.wait(interval):
            self.broker.expire_leases()
            self.broker.compact_journal(min_lag=COMPACT_LAG)
            elapsed += interval
            if (self.gc_interval_s and elapsed >= self.gc_interval_s
                    and (self.gc_max_bytes is not None
                         or self.gc_max_age_s is not None)):
                elapsed = 0.0
                self.last_gc = run_gc(self.cache_dir,
                                      max_bytes=self.gc_max_bytes,
                                      max_age_s=self.gc_max_age_s)

    # -- event-stream accounting ------------------------------------------

    def _stream_opened(self) -> None:
        with self._streams_lock:
            self._streams += 1

    def _stream_closed(self) -> None:
        with self._streams_lock:
            self._streams -= 1

    def active_streams(self) -> int:
        """Live ``/events`` subscriber threads — the reap test's probe."""
        with self._streams_lock:
            return self._streams

    # -- payload builders -------------------------------------------------

    def health(self) -> Health:
        """The readiness probe: everything a load balancer (or the
        backpressure tests) needs to judge this server."""
        cache = cache_usage(self.cache_dir).to_dict()
        cache.update(self.cache.stats.to_dict())
        queue = dict(self.broker.queue_stats())
        queue["requeues"] = self.broker.requeues
        journal = self.journal.stats()
        journal.update({
            "recovered_fleets": self.broker.recovered_fleets,
            "recovered_records": self.broker.recovered_records,
            "recovery_requeued": self.broker.recovery_requeued,
        })
        draining = self.broker.draining()
        return Health(version=__version__, uptime_s=self.uptime_s,
                      fleets=queue["fleets"],
                      running=queue["running"],
                      cache=cache, queue=queue, journal=journal,
                      limits={
                          "max_fleets": self.broker.max_fleets,
                          "max_pending": self.broker.max_pending,
                          "lease_rate_per_s":
                              self.broker.lease_rate_per_s,
                          "lease_ttl_s": self.broker.lease_ttl_s,
                      },
                      draining=draining, ready=not draining)

    def scenario_index(self) -> list[dict[str, Any]]:
        rows = []
        for name in scenarios.names():
            spec = scenarios.get(name)
            rows.append({"name": name,
                         "description": spec.description,
                         "sites": len(spec.radio.sites),
                         "systems": len(spec.systems)})
        return rows

    def submit(self, body: Any) -> tuple[int, dict[str, Any]]:
        """Parse and queue one POST /fleets body."""
        if not isinstance(body, dict):
            raise _BadRequest("fleet submission must be a JSON object")
        key = str(body.get("submission_key", "") or "")
        try:
            if "sweep" in body:
                sweep = SweepSpec.from_dict(body["sweep"])
                ack = self.broker.submit_sweep(sweep,
                                               submission_key=key)
            elif "runs" in body:
                packed = {"bases": body.get("bases") or [],
                          "runs": body["runs"]}
                ack = self.broker.submit_runs(unpack_runs(packed),
                                              submission_key=key,
                                              packed=packed)
            else:
                raise _BadRequest(
                    "fleet submission needs a 'sweep' or 'runs' key")
        except (KeyError, TypeError, ValueError) as exc:
            message = exc.args[0] if isinstance(exc, KeyError) else exc
            raise _BadRequest(f"invalid fleet submission: {message}") \
                from None
        return 201, ack.to_dict()

    def lease(self, body: Any) -> dict[str, Any]:
        """Answer one POST /lease body."""
        if not isinstance(body, dict):
            raise _BadRequest("lease body must be an object")
        worker = str(body.get("worker_id", "")) or "anonymous"
        wait_s = self.long_poll_s(body.get("wait_s", 0.0))
        if "max_runs" not in body:
            # A single-run client: the grant itself, its run a full
            # RunSpec dict, or no run.
            group = self.broker.lease(worker, wait_s=wait_s)
            if not group.grants:
                return {"run": None}
            grant, = group.grants
            run, = unpack_runs(group.packed())
            return replace(grant, run=run.to_dict()).to_dict()
        max_runs = body["max_runs"]
        if not isinstance(max_runs, int) or max_runs < 1:
            raise _BadRequest("max_runs must be a positive integer")
        return self.broker.lease(worker, max_runs=max_runs,
                                 wait_s=wait_s).to_dict()

    def long_poll_s(self, value: Any) -> float:
        """A requested long-poll wait, capped at the heartbeat."""
        try:
            wait = float(value)
        except (TypeError, ValueError):
            raise _BadRequest("wait_s must be a number") from None
        if not wait >= 0.0:      # negative or NaN: no wait
            wait = 0.0
        return min(wait, self.stream_heartbeat_s)

    def compare(self, a: str, b: str) -> dict[str, Any]:
        dirs = []
        for fleet_id in (a, b):
            status = self.broker.status(fleet_id)   # LookupError -> 404
            if not status.complete:
                raise _BadRequest(
                    f"fleet {fleet_id!r} is still running")
            dirs.append(self.broker.fleet_dir(fleet_id))
        try:
            return compare_paths(dirs).to_dict()
        except (FileNotFoundError, KeyError, ValueError) as exc:
            raise _BadRequest(f"cannot compare: {exc}") from None


class _ServiceHTTPServer(ThreadingHTTPServer):
    """Tracks its open connections, so that :meth:`ReproService.stop`
    can hang up kept-alive ones instead of leaving them served."""

    daemon_threads = True
    allow_reuse_address = True
    service: ReproService

    def __init__(self, address: tuple[str, int],
                 handler: type[BaseHTTPRequestHandler]) -> None:
        super().__init__(address, handler)
        self._open_lock = threading.Lock()
        self._open: set[socket.socket] = set()

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request: Any, client_address: Any) -> None:
        # A client hanging up on a kept-alive connection (a reset while
        # the handler waits for its next request) is not a server error.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def close_connections(self) -> None:
        with self._open_lock:
            connections = list(self._open)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass              # already gone


class _Handler(BaseHTTPRequestHandler):
    server: _ServiceHTTPServer
    server_version = f"repro-serve/{__version__}"
    protocol_version = "HTTP/1.1"
    # Headers and body are two sends; with Nagle on, the body waited
    # out the client's delayed ACK on every kept-alive request.
    disable_nagle_algorithm = True
    timeout = HANDLER_TIMEOUT_S
    _body_read = False

    def log_message(self, format: str, *args: Any) -> None:
        # Quiet by default: the CLI prints the bound URL; per-request
        # noise would swamp worker polling.
        pass

    @property
    def service(self) -> ReproService:
        return self.server.service

    # -- plumbing ---------------------------------------------------------

    def _json(self, status: int, payload: Any, *,
              headers: Optional[Mapping[str, str]] = None) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self._body_unread():
            # Unread body bytes would parse as the next request: hang
            # up after this answer (the header sets close_connection).
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._json(status, {"error": message})

    def _body_unread(self) -> bool:
        """Whether the request declared a body not read in full."""
        return not self._body_read and (
            self.headers.get("Content-Length", "0").strip() != "0"
            or "Transfer-Encoding" in self.headers)

    def _read_json(self) -> Any:
        if "Transfer-Encoding" in self.headers:
            raise _BadRequest("request body needs a Content-Length")
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            raise _BadRequest("Content-Length is not an integer") \
                from None
        if length < 0:
            raise _BadRequest("Content-Length is negative")
        if length > MAX_BODY_BYTES:
            raise _TooLarge(f"body of {length} bytes is over the "
                            f"{MAX_BODY_BYTES}-byte limit")
        raw = self.rfile.read(length)
        if len(raw) != length:
            raise _BadRequest("body ended before its Content-Length")
        self._body_read = True
        try:
            return json.loads(raw or b"null")
        except ValueError as exc:
            raise _BadRequest(f"body is not valid JSON: {exc}") from None

    def _dispatch(self, method: str) -> None:
        self._body_read = False
        url = urlparse(self.path)
        parts = [part for part in url.path.split("/") if part]
        query = parse_qs(url.query)
        try:
            handled = self._route(method, parts, query)
        except BrokerBusy as exc:
            # Backpressure: tell the client when to come back — the
            # retry policy reads both the header and the JSON field.
            retry_after = max(0.0, exc.retry_after_s)
            self._json(429, {"error": str(exc),
                             "retry_after_s": retry_after},
                       headers={"Retry-After": f"{retry_after:.3f}"})
        except (_BadRequest, _TooLarge, LookupError, ValueError) as exc:
            self._error(_status_of(exc), str(exc))
        except (BrokenPipeError, ConnectionResetError):
            pass                  # client went away mid-stream
        else:
            if not handled:
                self._error(404, f"no route {method} {url.path}")

    def do_GET(self) -> None:      # noqa: N802 (http.server API)
        self._dispatch("GET")

    def do_POST(self) -> None:     # noqa: N802 (http.server API)
        self._dispatch("POST")

    # -- routing ----------------------------------------------------------

    def _route(self, method: str, parts: list[str],
               query: dict[str, list[str]]) -> bool:
        service = self.service
        if method == "GET":
            if parts == ["healthz"]:
                self._json(200, service.health().to_dict())
            elif parts == ["scenarios"]:
                self._json(200, {"scenarios": service.scenario_index()})
            elif len(parts) == 2 and parts[0] == "scenarios":
                try:
                    spec = scenarios.get(parts[1])
                except KeyError:
                    raise LookupError(
                        f"unknown scenario {parts[1]!r}") from None
                self._json(200, spec.to_dict())
            elif parts == ["fleets"]:
                self._json(200, {"fleets": [
                    status.to_dict()
                    for status in service.broker.statuses()]})
            elif len(parts) == 2 and parts[0] == "fleets":
                self._json(200,
                           service.broker.status(parts[1]).to_dict())
            elif (len(parts) == 3 and parts[0] == "fleets"
                    and parts[2] == "events"):
                self._stream_events(
                    parts[1], follow=query.get("follow", ["0"])[0]
                    not in ("0", "", "false"))
            elif (len(parts) == 3 and parts[0] == "fleets"
                    and parts[2] == "records"):
                try:
                    since = int(query.get("since", ["0"])[0])
                except ValueError:
                    raise _BadRequest("since must be an integer") \
                        from None
                if since < 0:
                    raise _BadRequest("since must be >= 0")
                wait_s = service.long_poll_s(
                    query.get("wait_s", ["0"])[0])
                slots, complete = service.broker.slots(
                    parts[1], since=since, wait_s=wait_s)
                self._json(200, {"fleet_id": parts[1], "since": since,
                                 "complete": complete, "slots": slots})
            elif (len(parts) == 4 and parts[0] == "fleets"
                    and parts[2] == "records"):
                record = service.broker.record(parts[1], parts[3])
                self._json(200, record.to_dict())
            elif parts == ["compare"]:
                a = query.get("a", [""])[0]
                b = query.get("b", [""])[0]
                if not a or not b:
                    raise _BadRequest("compare needs ?a=<id>&b=<id>")
                self._json(200, service.compare(a, b))
            else:
                return False
            return True
        if method == "POST":
            if parts == ["fleets"]:
                status, payload = service.submit(self._read_json())
                self._json(status, payload)
            elif parts == ["lease"]:
                self._json(200, service.lease(self._read_json()))
            elif parts == ["results"]:
                self._json(200, self._results(self._read_json()))
            else:
                return False
            return True
        return False

    def _results(self, body: Any) -> dict[str, Any]:
        """Land one POST /results body: a single submission, or a
        ``{"results": [...]}`` batch answered item by item."""
        if not isinstance(body, dict):
            raise _BadRequest("result body must be an object")
        broker = self.service.broker
        if "results" not in body:
            return broker.submit_result(
                ResultSubmission.from_dict(body)).to_dict()
        items = body["results"]
        if not isinstance(items, list) or not all(
                isinstance(item, dict) for item in items):
            raise _BadRequest("results must be a list of objects")
        try:
            batch = [ResultSubmission.from_dict(item) for item in items]
        except (TypeError, ValueError) as exc:
            raise _BadRequest(f"invalid result in batch: {exc}") \
                from None
        return {"acks": [
            {"error": str(outcome), "status": _status_of(outcome)}
            if isinstance(outcome, Exception) else outcome.to_dict()
            for outcome in broker.submit_results(batch)]}

    def _stream_events(self, fleet_id: str, *, follow: bool) -> None:
        # Touch the fleet first so an unknown id is a clean 404, not a
        # half-started stream.
        service = self.service
        service.broker.status(fleet_id)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        # No length to frame the stream with: it ends with the
        # connection (the header also sets close_connection).
        self.send_header("Connection", "close")
        self.end_headers()
        service._stream_opened()
        try:
            index = 0
            wait_s = service.stream_heartbeat_s if follow else 0.0
            while True:
                events, complete = service.broker.events_since(
                    fleet_id, index, wait_s=wait_s)
                for event in events:
                    self.wfile.write(
                        (json.dumps(event, sort_keys=True)
                         + "\n").encode())
                if follow and not events and not complete:
                    # Idle heartbeat: the only thing that turns a
                    # vanished client into a send error — without it
                    # this loop held its thread for the fleet's whole
                    # lifetime after the subscriber died.
                    self.wfile.write(
                        (json.dumps(HEARTBEAT, sort_keys=True)
                         + "\n").encode())
                self.wfile.flush()
                index += len(events)
                if not follow or (complete and not events):
                    break
        finally:
            service._stream_closed()


def _status_of(exc: Exception) -> int:
    """The HTTP status a refused request (or batch item) answers with."""
    if isinstance(exc, (_BadRequest, ContractError)):
        return 400
    if isinstance(exc, _TooLarge):
        return 413
    if isinstance(exc, LookupError):
        return 404
    return 409     # a ValueError: the broker's content verification
