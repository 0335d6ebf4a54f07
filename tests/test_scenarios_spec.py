"""Tests for the declarative scenario API: serialisation, registry,
and determinism of spec-built campaigns."""

import dataclasses
import json

import numpy as np
import pytest

from repro import scenarios
from repro.ran.spectrum import Generation, RadioConfig
from repro.scenarios import (
    CampaignSpec,
    GatewaySpec,
    RadioSpec,
    ScenarioSpec,
    SiteSpec,
    build,
    klagenfurt,
    skopje,
)


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("factory", [klagenfurt, skopje])
def test_spec_dict_round_trip_equality(factory):
    spec = factory()
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize("factory", [klagenfurt, skopje])
def test_spec_json_round_trip_equality(factory):
    """Through an actual JSON encode/decode, not just to_dict."""
    spec = factory()
    restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert restored == spec
    assert ScenarioSpec.from_json(spec.to_json()) == spec


def test_spec_factories_are_pure():
    assert klagenfurt() == klagenfurt()
    assert skopje() == skopje()
    assert klagenfurt() != skopje()


def test_klagenfurt_variants_differ():
    base = klagenfurt()
    assert klagenfurt(edge_breakout=True) != base
    assert klagenfurt(radio_config=RadioConfig.nr_6g()) != base


def test_radio_spec_captures_config_losslessly():
    config = RadioConfig.nr_6g(buffer_service_s=0.2e-3)
    spec = RadioSpec.from_config(config, sites=[SiteSpec(cell="A1")])
    rebuilt = spec.build_config()
    assert rebuilt == config
    assert rebuilt.generation is Generation.SIX_G


def test_override_returns_modified_copy():
    spec = skopje()
    renamed = dataclasses.replace(spec, name="skopje-v2")
    assert renamed.name == "skopje-v2"
    assert spec.name == "skopje"
    assert renamed.grid == spec.grid


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_campaign_spec_rejects_unknown_default_gateway():
    gw = GatewaySpec("sofia", "gw", "upf", lat=42.0, lon=23.0)
    with pytest.raises(ValueError):
        CampaignSpec(default_gateway="vienna", gateways=(gw,),
                     default_targets=("probe",))


def test_campaign_spec_rejects_unknown_weighting():
    gw = GatewaySpec("sofia", "gw", "upf", lat=42.0, lon=23.0)
    with pytest.raises(ValueError):
        CampaignSpec(default_gateway="sofia", gateways=(gw,),
                     default_targets=("probe",),
                     route_weighting="traffic-lights")


def test_radio_spec_requires_sites():
    with pytest.raises(ValueError):
        RadioSpec(sites=())


def test_scenario_spec_requires_name():
    spec = skopje()
    with pytest.raises(ValueError):
        dataclasses.replace(spec, name="")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def test_registry_lists_builtin_scenarios():
    assert "klagenfurt" in scenarios.names()
    assert "skopje" in scenarios.names()


def test_registry_lookup_returns_spec():
    spec = scenarios.get("skopje")
    assert isinstance(spec, ScenarioSpec)
    assert spec == skopje()


def test_registry_rejects_unknown_name():
    with pytest.raises(KeyError, match="registered"):
        scenarios.get("atlantis")


def test_registry_rejects_duplicate_registration():
    with pytest.raises(ValueError):
        scenarios.register("klagenfurt", klagenfurt)


def test_load_spec_from_json_file(tmp_path):
    path = tmp_path / "city.json"
    path.write_text(skopje().to_json())
    assert scenarios.load_spec(path) == skopje()


# ---------------------------------------------------------------------------
# Determinism of spec-built campaigns
# ---------------------------------------------------------------------------

def test_spec_built_campaign_is_seed_deterministic():
    """Same spec + same seed -> bit-identical dataset."""
    a = build(skopje(), seed=7).run_campaign(2.0)
    b = build(skopje(), seed=7).run_campaign(2.0)
    assert len(a) == len(b)
    assert np.array_equal(a.rtts, b.rtts)


def test_spec_built_campaign_varies_with_seed():
    a = build(skopje(), seed=7).run_campaign(2.0)
    b = build(skopje(), seed=8).run_campaign(2.0)
    n = min(len(a), len(b))
    assert not np.array_equal(a.rtts[:n], b.rtts[:n])


def test_json_round_tripped_spec_builds_identical_campaign():
    restored = ScenarioSpec.from_json(skopje().to_json())
    a = build(skopje(), seed=11).run_campaign(2.0)
    b = build(restored, seed=11).run_campaign(2.0)
    assert np.array_equal(a.rtts, b.rtts)


def test_campaign_knobs_reach_the_built_config():
    """Every campaign spec field must land in the compiled config."""
    spec = skopje()
    spec = dataclasses.replace(spec, campaign=dataclasses.replace(
        spec.campaign, max_cell_load=0.5, handover_interruption_s=0.2))
    config = build(spec, seed=1).campaign_config
    assert config.max_cell_load == 0.5
    assert config.handover_interruption_s == 0.2


def test_built_scenario_without_baseline_endpoints_raises():
    spec = dataclasses.replace(skopje(), wired_src="", wired_dst="",
                               reference_src="", reference_dst="")
    city = build(spec, seed=1)
    with pytest.raises(ValueError):
        city.wired_baseline()
    with pytest.raises(ValueError):
        city.reference_trace()


# ---------------------------------------------------------------------------
# with_overrides (dotted-path patches)
# ---------------------------------------------------------------------------

def test_with_overrides_patches_nested_layers():
    patched = klagenfurt().with_overrides({
        "campaign.handover_interruption_s": 30e-3,
        "population.density_threshold": 800.0,
        "radio.sites.0.load": 0.7,
    })
    assert patched.campaign.handover_interruption_s == 30e-3
    assert patched.population.density_threshold == 800.0
    assert patched.radio.sites[0].load == 0.7
    # untouched siblings survive, and the base spec is unchanged
    assert patched.radio.sites[1:] == klagenfurt().radio.sites[1:]
    assert klagenfurt().campaign.handover_interruption_s != 30e-3


def test_with_overrides_unknown_path_is_clean_keyerror():
    with pytest.raises(KeyError, match="no field 'frobnicate'"):
        klagenfurt().with_overrides({"campaign.frobnicate": 1.0})
    with pytest.raises(KeyError, match="known:"):
        klagenfurt().with_overrides({"grid.diameter": 1.0})
    with pytest.raises(KeyError, match="out of range"):
        klagenfurt().with_overrides({"radio.sites.99.load": 0.5})
    with pytest.raises(KeyError, match="not an integer index"):
        klagenfurt().with_overrides({"radio.sites.first.load": 0.5})
    with pytest.raises(KeyError, match="malformed"):
        klagenfurt().with_overrides({"campaign..load": 0.5})


def test_with_overrides_type_mismatch_is_typeerror():
    with pytest.raises(TypeError):
        klagenfurt().with_overrides(
            {"campaign.handover_interruption_s": "slow"})
    with pytest.raises(TypeError):
        klagenfurt().with_overrides({"grid.cols": 6.5})     # int field
    with pytest.raises(TypeError):
        klagenfurt().with_overrides({"name": 7})            # str field
    with pytest.raises(TypeError):
        klagenfurt().with_overrides(
            {"radio.configured_grant": 1})                  # bool field


def test_with_overrides_none_only_for_optional_fields():
    # klagenfurt's congestion field is Optional and set; clearing works
    cleared = klagenfurt().with_overrides(
        {"campaign.extra_load_range": None})
    assert cleared.campaign.extra_load_range is None
    # but None cannot overwrite a required field
    with pytest.raises(TypeError, match="non-optional"):
        klagenfurt().with_overrides({"grid.cols": None})


def test_with_overrides_promotes_int_into_float_field():
    patched = klagenfurt().with_overrides({"grid.cell_size_m": 500})
    assert patched.grid.cell_size_m == 500.0
    assert isinstance(patched.grid.cell_size_m, float)


def test_with_overrides_reruns_layer_validation():
    with pytest.raises(ValueError, match="route weighting"):
        klagenfurt().with_overrides(
            {"campaign.route_weighting": "scenic"})


def test_patched_spec_round_trips_through_json():
    patched = klagenfurt().with_overrides({
        "campaign.handover_interruption_s": 30e-3,
        "radio.sites.0.load": 0.7,
        "campaign.peer_site_index": 1,
    })
    restored = ScenarioSpec.from_json(patched.to_json())
    assert restored == patched
    assert restored != klagenfurt()
    assert restored.campaign.peer_site_index == 1
