"""Fleet service: the HTTP control plane and its remote workers.

The distributed face of :mod:`repro.fleet` — everything the fleet
layer runs in one process tree, this package runs across machines:

* :class:`ReproService` / ``python -m repro serve`` — a stdlib-only
  HTTP server exposing the scenario registry, fleet submission,
  progress streaming (NDJSON), record retrieval, compare reports, a
  ``/healthz`` probe, and the worker lease/result plane, all backed
  by one :class:`~repro.service.broker.FleetBroker` and one shared
  :class:`~repro.fleet.cache.ResultCache` (GC'd on a period via
  :mod:`repro.fleet.gc`).
* :func:`run_worker` / ``python -m repro worker`` — a pull-loop
  worker leasing whole build-key groups of expanded
  :class:`~repro.fleet.sweep.RunSpec`\\ s (one long-polled round trip
  per group), evaluating each group through the compiled/batch path
  and posting its results back in two batched requests.  Dead
  workers are tolerated by lease expiry + content-identity dedup:
  their unacked runs simply return to the queue, and no run is ever
  counted twice.
* :class:`ServiceClient` — typed access to every route over one
  kept-alive ``http.client`` connection per thread, also the
  transport behind the ``remote`` executor backend
  (:class:`repro.fleet.executors.RemoteExecutor`).
* :mod:`~repro.service.contracts` — the versioned request/response
  dataclasses every payload round-trips through.

Quickstart::

    python -m repro serve --root service-root --port 8750 &
    python -m repro worker --server http://127.0.0.1:8750 &
    python -m repro worker --server http://127.0.0.1:8750 &
    python -m repro sweep --scenario klagenfurt \\
        --set campaign.handover_interruption_s=0.03,0.06 \\
        --backend remote --server http://127.0.0.1:8750 --out fleet-out

The broker is deterministic and in-process-testable: records coming
back through serve + workers are bit-identical to a serial
:func:`~repro.fleet.runner.run_sweep` of the same sweep.

Fault tolerance (see the README's "Fault tolerance & durability"):
broker state is journaled (:class:`~repro.service.journal.FleetJournal`)
so a restarted server recovers every accepted fleet without
re-evaluating acked runs; every network caller shares one
:class:`~repro.service.retry.RetryPolicy` (exponential backoff,
deterministic jitter, ``Retry-After`` aware); and overload answers
429 (:class:`~repro.service.broker.BrokerBusy`) instead of queueing
unboundedly.
"""

from __future__ import annotations

from .._lazy import lazy_exports

__all__ = [
    "API_VERSION",
    "BrokerBusy",
    "ContractError",
    "FleetBroker",
    "FleetJournal",
    "FleetStatus",
    "Health",
    "LeaseGrant",
    "LeaseGroup",
    "ReproService",
    "ResultAck",
    "ResultSubmission",
    "RetryExhausted",
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailable",
    "SubmitAck",
    "call_with_retry",
    "run_worker",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".broker": ("BrokerBusy", "FleetBroker"),
    ".client": ("ServiceClient", "ServiceError", "ServiceUnavailable"),
    ".contracts": ("API_VERSION", "ContractError", "FleetStatus", "Health",
                   "LeaseGrant", "LeaseGroup", "ResultAck",
                   "ResultSubmission", "SubmitAck"),
    ".journal": ("FleetJournal",),
    ".retry": ("RetryExhausted", "RetryPolicy", "call_with_retry"),
    ".server": ("ReproService",),
    ".worker": ("run_worker",),
})
