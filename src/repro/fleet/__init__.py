"""Fleet execution: parameter sweeps and multi-seed campaigns.

Where :mod:`repro.scenarios` makes one city serializable data, this
package makes *many runs* data: a :class:`SweepSpec` (base specs x
override axes x seeds) expands into :class:`RunSpec` units driven by
:func:`run_sweep` through a pluggable :class:`Executor` backend —
the build-key-group ``batch`` executor (the default, over ``jobs``
processes), the ``serial`` oracle, or a ``remote`` fleet service —
each run reducing to a portable :class:`RunRecord` persisted by
:class:`FleetStore`.  A
content-addressed :class:`ResultCache` (keys are SHA-256 digests of
``(spec, seed, density)``) wraps any backend via
:class:`CachingExecutor` so recomputation is never paid twice, a
:class:`CompiledScenarioCache` lets runs differing only in
sampling-layer fields share one compiled world
(:mod:`repro.scenarios.identity`), and an
interrupted sweep's directory resumes with
:meth:`FleetStore.resume` / :func:`resume_sweep`.  Every record is
stamped with its ``run_key`` digest (``spec_key``), giving runs a
content identity that resume verifies (a record computed under an
edited spec is recomputed, never silently reused) and that
:func:`compare_record_sets` / ``python -m repro compare A B`` align
cross-fleet delta reports on.

Quickstart::

    from repro.fleet import SweepAxis, SweepSpec, fleet_summary, run_sweep
    from repro.scenarios import klagenfurt, skopje

    sweep = SweepSpec(
        bases=(klagenfurt(), skopje()),
        axes=(SweepAxis("campaign.handover_interruption_s",
                        (30e-3, 45e-3, 60e-3)),),
        seeds=(42, 43, 44, 45),
    )
    result = run_sweep(sweep, jobs=4, cache="result-cache",
                       out="fleet-out")
    print(fleet_summary(result))

Or from the shell::

    python -m repro sweep --scenario klagenfurt,skopje \\
        --set campaign.handover_interruption_s=0.03,0.045,0.06 \\
        --seeds 42:46 --jobs 4 \\
        --cache result-cache --out fleet-out
    python -m repro sweep --resume --out fleet-out   # finish a kill -9'd run
    python -m repro compare fleet-out fleet-prev --fail-on mobile_mean_ms:2
"""


from __future__ import annotations

from .._lazy import lazy_exports

__all__ = [
    "BACKENDS", "BatchExecutor", "CacheStats", "CacheUsage",
    "CachingExecutor", "COMPARE_METRICS", "CompiledCacheStats",
    "CompiledScenarioCache", "Executor", "FleetComparison",
    "FleetResult", "FleetStore", "GcReport", "MetricDelta",
    "ProgressEvent", "RecordSet", "RemoteExecutor", "ResultCache",
    "RunOutcome", "RunRecord", "RunSpec", "SCHEMA_VERSION",
    "SerialExecutor", "SweepAxis", "SweepSpec", "TierUsage",
    "VariantDelta",
    "cache_usage", "compare_paths", "compare_record_sets",
    "comparison_summary", "fleet_summary", "make_executor",
    "parse_fail_on", "print_progress", "rebind_record",
    "record_matches_spec", "resume_sweep", "run_gc", "run_key",
    "run_one", "run_sweep", "write_csv",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".cache": ("CacheStats", "CachingExecutor", "ResultCache",
               "rebind_record", "run_key"),
    ".compiled": ("CompiledCacheStats", "CompiledScenarioCache"),
    ".compare": ("COMPARE_METRICS", "FleetComparison", "MetricDelta",
                 "RecordSet", "VariantDelta", "compare_paths",
                 "compare_record_sets", "parse_fail_on"),
    ".executors": ("BACKENDS", "BatchExecutor", "Executor",
                   "RemoteExecutor", "RunOutcome", "SerialExecutor",
                   "make_executor", "run_one"),
    ".gc": ("CacheUsage", "GcReport", "TierUsage", "cache_usage", "run_gc"),
    ".progress": ("ProgressEvent", "print_progress"),
    ".report": ("comparison_summary", "fleet_summary", "write_csv"),
    ".runner": ("resume_sweep", "run_sweep"),
    ".store": ("FleetResult", "FleetStore", "SCHEMA_VERSION"),
    ".sweep": ("RunRecord", "RunSpec", "SweepAxis", "SweepSpec",
               "record_matches_spec"),
})
