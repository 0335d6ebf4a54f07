"""repro — reproduction of '6G Infrastructures for Edge AI: An Analytical
Perspective' (IPPS 2025).

Subpackages:

* :mod:`repro.sim` — discrete-event simulation kernel
* :mod:`repro.geo` — coordinates, grid segmentation, population, mobility
* :mod:`repro.net` — internet substrate with Gao-Rexford policy routing
* :mod:`repro.ran` — 5G/6G radio access network
* :mod:`repro.cn` — 5G/6G core network (UPF, QoS, control-plane procedures)
* :mod:`repro.probes` — measurement framework (drive-test campaign)
* :mod:`repro.apps` — application workloads (AR game, video, domain profiles)
* :mod:`repro.scenarios` — declarative scenario specs + the compiler
* :mod:`repro.core` — the paper's analysis: evaluation, remedies, studies

Quickstart::

    from repro.core import InfrastructureEvaluation
    result = InfrastructureEvaluation(seed=42).run()
    print(result.figure2())
    print(result.gap.summary())

Scenarios are serializable data compiled by one engine — any registered
city (or a JSON-loaded spec) runs through the same pipeline::

    from repro.scenarios import build, klagenfurt

    scenario = build(klagenfurt(), seed=42)
    print(scenario.reference_trace().render_table())

    result = InfrastructureEvaluation(seed=42, scenario="skopje").run()

or from the command line: ``python -m repro evaluate --scenario skopje``
(``python -m repro scenarios`` lists the registry).
"""


from __future__ import annotations

from . import units

__version__ = "1.1.0"
__all__ = ["units", "__version__"]
