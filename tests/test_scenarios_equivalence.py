"""Equivalence: a spec that has been through a full JSON encode/decode
compiles to the same Klagenfurt world, bit-for-bit at seed 42.

Fig. 2/Fig. 3 matrices, the Table I hop chain, the Fig. 4 detour
length, and the wired baseline must be *identical* (not approximately
equal) between a directly compiled spec and its JSON round trip.
"""

import numpy as np
import pytest

from repro.scenarios import ScenarioSpec, build, klagenfurt


@pytest.fixture(scope="module")
def compiled():
    return build(klagenfurt(), seed=42)


@pytest.fixture(scope="module")
def json_compiled():
    return build(ScenarioSpec.from_json(klagenfurt().to_json()), seed=42)


def test_table1_hop_chain_identical(compiled, json_compiled):
    assert json_compiled.reference_trace().render_table() \
        == compiled.reference_trace().render_table()


def test_fig4_detour_identical(compiled, json_compiled):
    assert json_compiled.detour_route_km() == compiled.detour_route_km()


def test_wired_baseline_identical(compiled, json_compiled):
    assert np.array_equal(json_compiled.wired_baseline(),
                          compiled.wired_baseline())


def test_fig2_fig3_matrices_identical(compiled, json_compiled):
    stats_a = compiled.statistics(compiled.run_campaign(6.0))
    stats_b = json_compiled.statistics(json_compiled.run_campaign(6.0))
    assert np.array_equal(stats_a.mean_matrix_ms(),
                          stats_b.mean_matrix_ms())
    assert np.array_equal(stats_a.std_matrix_ms(), stats_b.std_matrix_ms())


def test_edge_breakout_variant_equivalent():
    """The what-if parameters survive the spec round trip too."""
    spec = klagenfurt(edge_breakout=True)
    direct = build(spec, seed=42)
    round_tripped = build(ScenarioSpec.from_json(spec.to_json()), seed=42)
    assert round_tripped.spec == spec
    a = direct.run_campaign(2.0)
    b = round_tripped.run_campaign(2.0)
    assert np.array_equal(a.rtts, b.rtts)
