"""Declarative scenario API: compile any city from a serializable spec.

A scenario is *data*, not code: a :class:`ScenarioSpec` composes the
grid, population, radio, AS-graph, gateway, peer, and campaign layers
into one value that round-trips through JSON, and :func:`build` is the
single compiler that turns any spec plus a seed into a runnable world.

Quickstart::

    from repro.scenarios import build, klagenfurt

    scenario = build(klagenfurt(), seed=42)
    dataset = scenario.run_campaign()
    print(scenario.reference_trace().render_table())

Registered scenarios are listed by :func:`names` and fetched with
:func:`get`; custom cities come from a JSON file via :func:`load_spec`
or from your own spec factory (register it to make
``python -m repro evaluate --scenario yours`` work).
"""


from __future__ import annotations

from .._lazy import lazy_exports

# Eager: build, klagenfurt and skopje shadow their own submodules, and
# register runs below.
from .build import build
from .klagenfurt import klagenfurt
from .registry import register
from .skopje import skopje

__all__ = [
    "ASSpec", "CampaignSpec", "GatewaySpec", "GridSpec", "LinkSpec",
    "NodeSpec", "PeerSpec", "PopulationSpec", "ProbeSpec", "RadioSpec",
    "ScenarioSpec", "SiteSpec",
    "BuiltScenario", "build", "build_count",
    "build_key", "build_payload",
    "register", "get", "names", "load_spec",
    "klagenfurt", "skopje",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".build": ("BuiltScenario", "build_count"),
    ".identity": ("build_key", "build_payload"),
    ".registry": ("get", "load_spec", "names"),
    ".spec": ("ASSpec", "CampaignSpec", "GatewaySpec", "GridSpec",
              "LinkSpec", "NodeSpec", "PeerSpec", "PopulationSpec",
              "ProbeSpec", "RadioSpec", "ScenarioSpec", "SiteSpec"),
})

register("klagenfurt", klagenfurt)
register("skopje", skopje)
