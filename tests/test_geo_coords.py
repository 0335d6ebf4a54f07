"""Tests for great-circle geometry."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geo import (
    BUCHAREST,
    GeoPoint,
    KLAGENFURT,
    PRAGUE,
    VIENNA,
    destination_point,
    haversine,
    haversine_matrix,
    initial_bearing,
    path_length,
    place,
    route_distance_m,
)
from repro.units import to_km

lat_st = st.floats(min_value=-89.0, max_value=89.0, allow_nan=False)
lon_st = st.floats(min_value=-179.0, max_value=179.0, allow_nan=False)


def test_geopoint_validates_latitude():
    with pytest.raises(ValueError):
        GeoPoint(91.0, 0.0)
    with pytest.raises(ValueError):
        GeoPoint(-90.5, 0.0)


def test_geopoint_normalises_longitude():
    assert GeoPoint(0.0, 190.0).lon == pytest.approx(-170.0)
    assert GeoPoint(0.0, -180.0).lon == pytest.approx(-180.0)


def test_haversine_zero_for_identical_points():
    assert haversine(46.6, 14.3, 46.6, 14.3) == 0.0


def test_haversine_known_distance_klagenfurt_vienna():
    # Klagenfurt to Vienna is ~234 km great circle.
    d = KLAGENFURT.distance_to(VIENNA)
    assert 225e3 < d < 245e3


def test_haversine_quarter_meridian():
    # Equator to pole ~ 10,000 km by the metre's original definition.
    d = haversine(0.0, 0.0, 90.0, 0.0)
    assert d == pytest.approx(1.0008e7, rel=1e-3)


@given(lat_st, lon_st, lat_st, lon_st)
def test_haversine_symmetry(lat1, lon1, lat2, lon2):
    d_ab = haversine(lat1, lon1, lat2, lon2)
    d_ba = haversine(lat2, lon2, lat1, lon1)
    assert d_ab == pytest.approx(d_ba, rel=1e-12, abs=1e-9)


@given(lat_st, lon_st, lat_st, lon_st, lat_st, lon_st)
def test_haversine_triangle_inequality(lat1, lon1, lat2, lon2, lat3, lon3):
    d_ac = haversine(lat1, lon1, lat3, lon3)
    d_ab = haversine(lat1, lon1, lat2, lon2)
    d_bc = haversine(lat2, lon2, lat3, lon3)
    assert d_ac <= d_ab + d_bc + 1e-6


def test_haversine_matrix_matches_scalar():
    pts = [KLAGENFURT, VIENNA, PRAGUE, BUCHAREST]
    lats = np.array([p.lat for p in pts])
    lons = np.array([p.lon for p in pts])
    mat = haversine_matrix(lats[:, None], lons[:, None], lats[None, :],
                           lons[None, :])
    assert mat.shape == (4, 4)
    for i, a in enumerate(pts):
        for j, b in enumerate(pts):
            assert mat[i, j] == pytest.approx(
                haversine(a.lat, a.lon, b.lat, b.lon), rel=1e-12, abs=1e-6)


def test_bearing_cardinal_directions():
    assert initial_bearing(0.0, 0.0, 10.0, 0.0) == pytest.approx(0.0)
    assert initial_bearing(0.0, 0.0, 0.0, 10.0) == pytest.approx(90.0)
    assert initial_bearing(10.0, 0.0, 0.0, 0.0) == pytest.approx(180.0)
    assert initial_bearing(0.0, 10.0, 0.0, 0.0) == pytest.approx(270.0)


@given(lat_st, lon_st, st.floats(min_value=0.0, max_value=359.9),
       st.floats(min_value=0.0, max_value=2e6))
def test_destination_round_trip_distance(lat, lon, bearing, dist):
    origin = GeoPoint(lat, lon)
    dest = destination_point(origin, bearing, dist)
    assert origin.distance_to(dest) == pytest.approx(dist, rel=1e-6, abs=1.0)


def test_destination_negative_distance_rejected():
    with pytest.raises(ValueError):
        destination_point(KLAGENFURT, 0.0, -5.0)


def test_path_length_degenerate_cases():
    assert path_length([]) == 0.0
    assert path_length([KLAGENFURT]) == 0.0


def test_path_length_is_sum_of_legs():
    total = path_length([KLAGENFURT, VIENNA, PRAGUE])
    assert total == pytest.approx(
        KLAGENFURT.distance_to(VIENNA) + VIENNA.distance_to(PRAGUE))


def test_fig4_route_distance_matches_paper():
    """The Fig. 4 detour: Klagenfurt->Vienna->Prague->Bucharest->Vienna
    covers ~2544 km in the paper."""
    dist_km = to_km(route_distance_m(
        KLAGENFURT, VIENNA, PRAGUE, BUCHAREST, VIENNA))
    assert dist_km == pytest.approx(2544.0, rel=0.02)


def test_direct_distance_under_5km_for_c2_e3_scale():
    """Sanity: points < 5 km apart stay < 5 km (Table I locations)."""
    a = GeoPoint(46.62, 14.28)
    b = GeoPoint(46.63, 14.31)
    assert a.distance_to(b) < 5e3


def test_place_lookup_case_insensitive():
    assert place("Vienna") == VIENNA
    with pytest.raises(KeyError, match="unknown place"):
        place("atlantis")


def test_route_distance_rejects_sub_unity_circuity():
    with pytest.raises(ValueError):
        route_distance_m(KLAGENFURT, VIENNA, circuity=0.9)


def test_bearing_range():
    for (a, b) in [(KLAGENFURT, VIENNA), (VIENNA, PRAGUE),
                   (PRAGUE, BUCHAREST)]:
        assert 0.0 <= a.bearing_to(b) < 360.0


def test_geopoint_str_format():
    assert str(GeoPoint(46.6247, 14.305)) == "(46.6247, 14.3050)"


# ---------------------------------------------------------------------------
# haversine_many — the measurement kernel's bitwise contract
# ---------------------------------------------------------------------------

def test_haversine_many_bitwise_equals_scalar_randomised():
    """Element-wise *bitwise* equality against the scalar haversine.

    The vectorised serving tables select cells by argmax over values
    built from these distances, so 'close enough' is not enough: a
    single differing ulp could flip a tie and change every downstream
    random draw.
    """
    rng = np.random.default_rng(2025)
    lats1 = rng.uniform(-89.9, 89.9, 4096)
    lons1 = rng.uniform(-180.0, 180.0, 4096)
    lats2 = rng.uniform(-89.9, 89.9, 4096)
    lons2 = rng.uniform(-180.0, 180.0, 4096)
    from repro.geo import haversine_many
    many = haversine_many(lats1, lons1, lats2, lons2)
    for i in range(lats1.size):
        scalar = haversine(lats1[i], lons1[i], lats2[i], lons2[i])
        assert many[i] == scalar, (
            f"bitwise mismatch at {i}: {many[i]!r} != {scalar!r}")


@given(lat_st, lon_st, lat_st, lon_st)
def test_haversine_many_bitwise_equals_scalar_property(lat1, lon1,
                                                       lat2, lon2):
    from repro.geo import haversine_many
    many = haversine_many(np.array([lat1]), np.array([lon1]),
                          np.array([lat2]), np.array([lon2]))
    assert many[0] == haversine(lat1, lon1, lat2, lon2)


def test_haversine_many_broadcasts_to_matrix():
    from repro.geo import haversine_many
    site_lats = np.array([46.62, 46.65])
    site_lons = np.array([14.30, 14.28])
    pos_lats = np.array([46.60, 46.61, 46.64])
    pos_lons = np.array([14.29, 14.33, 14.27])
    matrix = haversine_many(site_lats[:, None], site_lons[:, None],
                            pos_lats[None, :], pos_lons[None, :])
    assert matrix.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            assert matrix[i, j] == haversine(
                site_lats[i], site_lons[i], pos_lats[j], pos_lons[j])


def test_haversine_many_antipodal_and_identical_points():
    from repro.geo import haversine_many
    many = haversine_many(np.array([0.0, 0.0]), np.array([0.0, 0.0]),
                          np.array([0.0, 0.0]), np.array([0.0, 180.0]))
    assert many[0] == 0.0
    assert many[1] == haversine(0.0, 0.0, 0.0, 180.0)
