"""Sections II-C / III-C — scalability: the smart-city aggregate.

Paper claim reproduced: the smart-city aggregate (50,000
intersections) does not fit 5G's peak rate but fits 6G's terabit
capacity.
"""

from repro.apps import SmartCityDeployment
from repro.core import FIVE_G_CAPABILITY, SIX_G_CAPABILITY


def test_smart_city_fits_6g_not_5g():
    city = SmartCityDeployment()
    assert not city.fits_in(FIVE_G_CAPABILITY.peak_rate_bps)
    assert city.fits_in(SIX_G_CAPABILITY.peak_rate_bps)
