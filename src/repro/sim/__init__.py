"""Discrete-event simulation kernel (simpy-like, dependency-free).

Public surface:

* :class:`~repro.sim.engine.Simulator` and the event/process machinery,
* :mod:`~repro.sim.resources` shared-resource primitives,
* :class:`~repro.sim.rng.RngRegistry` deterministic random streams,
* :class:`~repro.sim.monitor.SeriesMonitor`, the point-sample collector,
* :mod:`~repro.sim.sync` thread-safety contracts (guarded attributes,
  watched locks, lock-order watchdog).
"""


from __future__ import annotations

from .._lazy import lazy_exports

__all__ = [
    "Simulator", "Event", "Timeout", "Process", "AllOf", "AnyOf",
    "Interrupt", "SimulationError",
    "Resource", "PriorityResource", "Request", "Store",
    "RngRegistry", "stable_seed",
    "SeriesMonitor", "SummaryStats",
    "guarded_by", "WatchedLock", "WatchedCondition",
    "SyncContractError", "GuardViolation", "LockOrderError",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".engine": ("AllOf", "AnyOf", "Event", "Interrupt", "Process",
                "SimulationError", "Simulator", "Timeout"),
    ".monitor": ("SeriesMonitor", "SummaryStats"),
    ".resources": ("PriorityResource", "Request", "Resource", "Store"),
    ".rng": ("RngRegistry", "stable_seed"),
    ".sync": ("GuardViolation", "LockOrderError", "SyncContractError",
              "WatchedCondition", "WatchedLock", "guarded_by"),
})
