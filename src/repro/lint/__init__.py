"""Static enforcement of the repository's determinism contracts —
and, since the fleet service made the codebase concurrent, its
thread-safety contracts.

Everything this reproduction claims rests on bit-reproducibility:
named RNG streams spawned from one root seed, libm-routed
transcendentals in the vectorized kernel, frozen serializable specs,
and plain-data payloads across the ``Executor`` boundary.  The golden
digests catch violations *after the fact*; this package catches them at
review time, as ``python -m repro lint`` and a CI gate.  Two rule
families share one AST walk: determinism (REP001..REP006,
:mod:`repro.lint.rules`) and concurrency (REP101..REP106,
:mod:`repro.lint.concurrency`, driven by :mod:`repro.sim.sync`
annotations).

Public API:

* :func:`check_source` / :func:`check_paths` — lint text or trees,
* :class:`Finding` — one violation with a baseline-stable fingerprint,
* :class:`LintConfig` / :func:`load_config` — policy from
  ``[tool.repro-lint]`` in ``pyproject.toml``,
* :class:`Baseline` / :func:`apply_baseline` — accepted findings,
* :data:`RULES` / :func:`rule_catalog` — the shipped REP rules,
* :func:`run_lint` — the CLI entry point.
"""

from __future__ import annotations

from .._lazy import lazy_exports

__all__ = [
    "Baseline",
    "BaselineMatch",
    "CONCURRENCY_RULES",
    "DETERMINISM_RULES",
    "Finding",
    "LintConfig",
    "RULES",
    "Rule",
    "rule_by_code",
    "active_rules",
    "apply_baseline",
    "check_paths",
    "check_source",
    "fingerprint_findings",
    "iter_files",
    "load_config",
    "path_selected",
    "rule_catalog",
    "run_lint",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".baseline": ("Baseline", "BaselineMatch", "apply_baseline"),
    ".cli": ("run_lint",),
    ".config": ("LintConfig", "load_config", "path_selected"),
    ".engine": ("check_paths", "check_source", "iter_files"),
    ".findings": ("Finding", "fingerprint_findings"),
    ".rules": ("CONCURRENCY_RULES", "DETERMINISM_RULES", "RULES", "Rule",
               "active_rules", "rule_by_code", "rule_catalog"),
})
