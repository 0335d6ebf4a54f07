"""The build/sampling field partition and the build-key contract.

The two-phase split is only sound if the partition in
``repro.scenarios.identity`` is *complete*: every spec field is either
build-layer (changing it changes the ``build_key``) or sampling-layer
(changing it must NOT change the ``build_key``, and evaluating the
edited spec against the original compiled scenario must stay
bit-identical — ``tests/test_compiled_scenario.py`` covers that half).
These tests pin the partition, its exhaustiveness over the dataclass
fields, and the key's sensitivity in both directions.
"""

import dataclasses
import hashlib
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fleet.sweep import canonical_dumps, run_key
from repro.scenarios import build_key, build_payload, klagenfurt, skopje
from repro.scenarios.identity import (
    SAMPLING_CAMPAIGN_FIELDS,
    SAMPLING_PEER_FIELDS,
    SAMPLING_SCENARIO_FIELDS,
)
from repro.scenarios.spec import CampaignSpec, PeerSpec, ScenarioSpec

SEED, DENSITY = 42, 2.0


def _field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


# ---------------------------------------------------------------------------
# Partition exhaustiveness: every field is explicitly classified
# ---------------------------------------------------------------------------

def test_every_campaign_field_is_classified():
    """A new CampaignSpec field must be placed in exactly one layer.

    Build-layer membership is implicit (subtractive payload), so this
    enumerates today's build-layer fields explicitly: extending the
    dataclass forces whoever does it to decide — and to prove the
    sampling claim with an equivalence test before moving a field out
    of the build layer.
    """
    build_fields = {
        "default_gateway", "gateways", "peers", "default_targets",
        "cell_targets", "gateway_by_cell", "extra_load_range",
        "route_weighting", "min_samples",
    }
    assert build_fields | SAMPLING_CAMPAIGN_FIELDS \
        == _field_names(CampaignSpec)
    assert not build_fields & SAMPLING_CAMPAIGN_FIELDS


def test_every_peer_field_is_classified():
    build_fields = {"name", "gateway"}
    assert build_fields | SAMPLING_PEER_FIELDS == _field_names(PeerSpec)
    assert not build_fields & SAMPLING_PEER_FIELDS


def test_every_scenario_field_is_classified():
    build_fields = {
        "name", "grid", "population", "radio", "campaign", "systems",
        "transits", "peerings", "nodes", "links", "probes",
        "reference_src", "reference_dst", "wired_src", "wired_dst",
        "detour_loop_end", "detour_circuity",
    }
    assert build_fields | SAMPLING_SCENARIO_FIELDS \
        == _field_names(ScenarioSpec)
    assert not build_fields & SAMPLING_SCENARIO_FIELDS


def test_unknown_fields_default_to_the_build_layer():
    """The payload is subtractive: anything to_dict emits that is not
    explicitly sampling-layer lands in the build payload (the safe
    direction — an unclassified field forces rebuilds)."""
    payload = build_payload(klagenfurt())
    assert "description" not in payload
    campaign = payload["campaign"]
    for name in SAMPLING_CAMPAIGN_FIELDS:
        assert name not in campaign
    for peer in campaign["peers"]:
        assert set(peer) & SAMPLING_PEER_FIELDS == set()
        assert "name" in peer and "gateway" in peer
    # Build-layer campaign fields survive the subtraction.
    assert "gateways" in campaign and "extra_load_range" in campaign


# ---------------------------------------------------------------------------
# Key sensitivity
# ---------------------------------------------------------------------------

def test_build_key_is_stable_and_distinct_from_run_key():
    spec = klagenfurt()
    key = build_key(spec, SEED, DENSITY)
    assert len(key) == 64 and int(key, 16) >= 0
    assert key == build_key(klagenfurt(), SEED, DENSITY)
    assert key != run_key(spec, SEED, DENSITY)


def test_seed_and_density_feed_the_build_key():
    # Both shape the build phase: the seed roots every named stream
    # (extra-load draws, shadowing, the route walk), the density sizes
    # the route.
    spec = klagenfurt()
    key = build_key(spec, SEED, DENSITY)
    assert build_key(spec, SEED + 1, DENSITY) != key
    assert build_key(spec, SEED, DENSITY + 1.0) != key


def test_sampling_layer_edits_keep_the_build_key():
    spec = klagenfurt()
    key = build_key(spec, SEED, DENSITY)
    for override in ({"description": "same world, new words"},
                     {"campaign.handover_interruption_s": 0.2},
                     {"campaign.max_cell_load": 0.5},
                     {"campaign.peer_site_index": 3},
                     {"campaign.extra_load_anchors.0.1": 0.77},
                     {"campaign.handover_prob.0.1": 0.5},
                     {"campaign.peers.0.air_load": 0.11},
                     {"campaign.peers.0.sinr_db": 3.0}):
        edited = spec.with_overrides(override)
        assert build_key(edited, SEED, DENSITY) == key, override
        # ... while the all-inclusive run identity always moves.
        assert run_key(edited, SEED, DENSITY) \
            != run_key(spec, SEED, DENSITY), override


def test_build_layer_edits_change_the_build_key():
    spec = klagenfurt()
    key = build_key(spec, SEED, DENSITY)
    for override in ({"campaign.default_targets.0": "vie-ix"},
                     {"campaign.peers.0.gateway": "vie-gw"},
                     {"radio.sites.0.load": 0.9},
                     {"campaign.extra_load_range.1": 0.5},
                     {"detour_circuity": 1.2}):
        edited = spec.with_overrides(override)
        assert build_key(edited, SEED, DENSITY) != key, override


# ---------------------------------------------------------------------------
# Key bytes: pinned digests and the naive oracle
# ---------------------------------------------------------------------------

#: ``(run_key, build_key)`` at seed 42, density 6.  Result caches, fleet
#: stores and service journals are addressed by these digests, so no
#: change to how they are computed may move them.
PINNED_KEYS = {
    "klagenfurt": (
        "0ba69b208ae141a4d282588e8e353370fb69361179be7fffc4b0a1bbc05c5045",
        "f41e062b4bde2cae7251ebfd39859e6ebc7e01eac7a0a0fb04af74edecb16117"),
    "skopje": (
        "c1543860aafecf202ab73e00747dd96c45dee5298ed41399e5816caf19292894",
        "dacaec24e54dfe433a26dc908bbb8ab06dddd44233dba46ad8789cd627eec512"),
    "klagenfurt-edge-breakout": (
        "e05d014f65202d4f77efb5be2c3e91a99cd041397aff927ab7ccec4a82b04a53",
        "e93f6b0fd9203b914689d4762eec2d594132806847896565dcbcbce63b417b0e"),
    "klagenfurt-sampling-edit": (
        "d2f5d29345d56677c41e29c760dfebe657675180498823950e3494767b93526e",
        "f41e062b4bde2cae7251ebfd39859e6ebc7e01eac7a0a0fb04af74edecb16117"),
    "klagenfurt-build-edit": (
        "ab7bf06ae43da94e4f987fb9ab6f3d26d3b2e17e554396f7d3924b67204b0245",
        "b2b707c4d80acb6ffc50719edfb49e26d766592700704aefcb611f9c79b21f56"),
}


def _pinned_spec(name):
    return {
        "klagenfurt": klagenfurt,
        "skopje": skopje,
        "klagenfurt-edge-breakout":
            lambda: klagenfurt(edge_breakout=True),
        "klagenfurt-sampling-edit": lambda: klagenfurt().with_overrides(
            {"campaign.handover_interruption_s": 0.03}),
        "klagenfurt-build-edit": lambda: klagenfurt().with_overrides(
            {"radio.shadowing_sigma_db": 5.0}),
    }[name]()


def test_pinned_key_digests():
    for name, keys in PINNED_KEYS.items():
        spec = _pinned_spec(name)
        assert (run_key(spec, 42, 6), build_key(spec, 42, 6)) == keys, name


def _naive_run_key(spec, seed, density):
    return hashlib.sha256(canonical_dumps(
        {"spec": spec.to_dict(), "seed": int(seed),
         "density": float(density)}).encode()).hexdigest()


def _naive_build_key(spec, seed, density):
    return hashlib.sha256(canonical_dumps(
        {"build": build_payload(spec), "seed": int(seed),
         "density": float(density)}).encode()).hexdigest()


_numbers = st.one_of(st.floats(-1.0, 40.0), st.integers(0, 12))
_pairs_of = st.lists(st.tuples(st.sampled_from(["B3", "C1", "E5"]),
                               st.floats(0.0, 1.0)), max_size=3)

#: Override paths of both layers, nested ones included, with values of
#: the kinds the fields hold (ints where floats promote, whole pair
#: lists where the spec normalises them).
_OVERRIDES = {
    # sampling layer
    "description": st.text(max_size=8),
    "campaign.handover_interruption_s": st.floats(allow_nan=True,
                                                  allow_infinity=True),
    "campaign.max_cell_load": _numbers,
    "campaign.peer_site_index": st.integers(0, 3),
    "campaign.extra_load_anchors": _pairs_of,
    "campaign.handover_prob": _pairs_of,
    "campaign.peers.0.air_load": _numbers,
    "campaign.peers.1.sinr_db": _numbers,
    # build layer
    "campaign.peers.0.gateway": st.one_of(st.none(), st.text(max_size=6)),
    "campaign.peers.1.name": st.text(min_size=1, max_size=6),
    "campaign.default_targets.0": st.text(max_size=6),
    "campaign.extra_load_range": st.tuples(st.floats(0.0, 0.2),
                                           st.floats(0.2, 0.5)),
    "radio.shadowing_sigma_db": _numbers,
    "radio.sites.0.load": st.floats(0.0, 0.95),
    "radio.configured_grant": st.booleans(),
    "population.density_threshold": _numbers,
    "nodes.0.lat": st.floats(40.0, 50.0),
    "links.0.utilisation": st.floats(0.0, 1.0),
    "detour_circuity": st.floats(1.0, 2.0),
}

_override_sets = st.dictionaries(st.sampled_from(sorted(_OVERRIDES)),
                                 st.none(), min_size=1,
                                 max_size=4).flatmap(
    lambda chosen: st.fixed_dictionaries(
        {path: _OVERRIDES[path] for path in chosen}))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(city=st.sampled_from([klagenfurt, skopje]),
       round_trip=st.booleans(),
       chain=st.lists(_override_sets, min_size=1, max_size=3),
       seed=st.integers(0, 2**31 - 1),
       density=st.sampled_from([2, 2.5, 6.0]))
def test_content_keys_equal_the_naive_oracle(city, round_trip, chain,
                                              seed, density):
    """Keys assembled from layer texts are byte-for-byte the digests of
    the whole ``to_dict`` payload: for chained overrides of specs built
    by a factory or by ``from_dict``, at every step of the chain, and
    for an unshared ``from_dict`` copy of the result."""
    spec = city()
    if round_trip:
        spec = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    specs = []
    for overrides in chain:
        spec = spec.with_overrides(overrides)
        specs.append(spec)
    specs.append(ScenarioSpec.from_dict(spec.to_dict()))
    for spec in specs:
        assert run_key(spec, seed, density) == \
            _naive_run_key(spec, seed, density)
        assert build_key(spec, seed, density) == \
            _naive_build_key(spec, seed, density)
