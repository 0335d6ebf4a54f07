"""Deterministic test harnesses shipped with the package.

:mod:`repro.testing.faults` is the fault-injection DSL the chaos
suite drives the fleet service with; it lives in the package (not in
``tests/``) so external deployments can chaos-test their own setups
with the exact harness CI uses.
"""

from .._lazy import lazy_exports

__all__ = [
    "ACTIONS",
    "FaultInjected",
    "FaultSchedule",
    "FaultSpec",
    "SimulatedCrash",
    "WorkerKilled",
    "corrupt_cache_entry",
    "oversized_body",
    "seeded_bytes",
    "slow_client",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".faults": ("ACTIONS", "FaultInjected", "FaultSchedule", "FaultSpec",
                "SimulatedCrash", "WorkerKilled", "corrupt_cache_entry",
                "oversized_body", "seeded_bytes", "slow_client"),
})
