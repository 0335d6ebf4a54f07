"""Build-layer vs. sampling-layer identity of a scenario spec.

The two-phase build/run split rests on a precise partition of
:class:`~repro.scenarios.spec.ScenarioSpec` fields:

* **build-layer** fields feed :class:`~repro.scenarios.build
  .BuiltScenario` and the :class:`~repro.probes.kernel.CampaignKernel`
  precompute — grid, population, radio sites, topology, routes, target
  tables, gateways, the seeded extra-load *draws*, the drive route.
  Editing one invalidates the compiled scenario.
* **sampling-layer** fields only parameterise the per-run sampling
  phase.  Two runs whose specs differ only here can share one compiled
  scenario bit-identically:

  - ``campaign.extra_load_anchors`` — applied *after* the seeded draws
    (pure overwrite; no stream consumption),
  - ``campaign.handover_prob`` / ``campaign.handover_interruption_s``
    — read only inside the sampling loop,
  - ``campaign.max_cell_load`` — the clamp applied to per-run loads,
  - ``campaign.peer_site_index`` — selects among already-built sites,
  - per-peer ``air_load`` / ``sinr_db`` — the peer's radio situation
    (its ``name`` and ``gateway`` stay build-layer: they decide which
    transit paths get compiled),
  - the free-text ``description``.

:func:`build_key` hashes the build-layer payload together with
``(seed, density)`` — both feed the build phase (extra-load draws,
shadowing, the route walk; density sizes the route) — giving the
content address compiled scenarios are cached under, alongside the
existing all-inclusive :func:`~repro.fleet.sweep.run_key`.

New spec fields default to the build layer — the safe direction: any
edit forces a rebuild.  ``tests/test_scenario_identity.py`` asserts
the partition is exhaustive, so adding a field forces an explicit
classification decision here.
"""

from __future__ import annotations

import hashlib
from typing import Any

from .spec import (
    CanonicalForm,
    CampaignSpec,
    PeerSpec,
    ScenarioSpec,
    canonical_dumps,
)

__all__ = [
    "SAMPLING_CAMPAIGN_FIELDS",
    "SAMPLING_PEER_FIELDS",
    "SAMPLING_SCENARIO_FIELDS",
    "build_key",
    "build_payload",
]

#: Top-level ``ScenarioSpec`` fields that never reach the build phase.
SAMPLING_SCENARIO_FIELDS: frozenset[str] = frozenset({"description"})

#: ``CampaignSpec`` fields read only by the per-run sampling phase.
SAMPLING_CAMPAIGN_FIELDS: frozenset[str] = frozenset({
    "extra_load_anchors",
    "handover_prob",
    "handover_interruption_s",
    "max_cell_load",
    "peer_site_index",
})

#: ``PeerSpec`` fields read only by the per-run sampling phase.
SAMPLING_PEER_FIELDS: frozenset[str] = frozenset({"air_load", "sinr_db"})

#: The build layer as canonical text: every field but the sampling ones.
_BUILD_FORM = CanonicalForm("build", {
    ScenarioSpec: SAMPLING_SCENARIO_FIELDS,
    CampaignSpec: SAMPLING_CAMPAIGN_FIELDS,
    PeerSpec: SAMPLING_PEER_FIELDS,
})


def build_payload(spec: ScenarioSpec) -> dict[str, Any]:
    """The spec's build-layer content as a plain JSON-able dict.

    Starts from the complete ``to_dict`` payload and *removes* the
    sampling-layer fields, so a field this module has never heard of
    lands in the build layer automatically.
    """
    payload = spec.to_dict()
    for name in SAMPLING_SCENARIO_FIELDS:
        payload.pop(name, None)
    campaign = payload["campaign"]
    for name in SAMPLING_CAMPAIGN_FIELDS:
        campaign.pop(name, None)
    campaign["peers"] = [
        {key: value for key, value in peer.items()
         if key not in SAMPLING_PEER_FIELDS}
        for peer in campaign["peers"]]
    return payload


def build_key(spec: ScenarioSpec, seed: int, density: float) -> str:
    """SHA-256 content address of one run's *build* inputs.

    Runs sharing a ``build_key`` differ only in sampling-layer fields
    and can evaluate against one compiled scenario.  The digest is
    that of ``canonical_dumps({"build": build_payload(spec), "seed":
    seed, "density": density})``, its text assembled from the layers'
    canonical texts (:class:`~repro.scenarios.spec.CanonicalForm`)
    instead of a fresh dict.
    """
    text = (f'{{"build":{_BUILD_FORM.text(spec)},'
            f'"density":{canonical_dumps(float(density))},'
            f'"seed":{canonical_dumps(int(seed))}}}')
    return hashlib.sha256(text.encode()).hexdigest()
