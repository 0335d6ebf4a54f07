"""Table I — networking hops for a local service request.

Paper values reproduced exactly:

* **10 hops** from the C2 mobile node to the university probe (E3);
* the same operators in the same order (private gateway, DataPacket,
  CDN77, zetservers @ peering.cz, zet.net/amanet, as39912 at the
  Vienna IX, two ascus.at hops, the probe);
* total RTL around **65 ms** for endpoints < 5 km apart.

Timed work: BGP route resolution + hop-by-hop trace.
"""

from repro import units
from repro.net import traceroute

PAPER_HOPS = [
    "10.12.128.1",
    "unn-37-19-223-61.datapacket.com [37.19.223.61]",
    "vl204.vie-itx1-core-2.cdn77.com [185.156.45.138]",
    "zetservers.peering.cz [185.0.20.31]",
    "vie-dr2-cr1.zet.net [103.246.249.33]",
    "amanet-cust.zet.net [185.104.63.33]",
    "ae2-97.mx204-1.ix.vie.at.as39912.net [185.211.219.155]",
    "003-228-016-195.ascus.at [195.16.228.3]",
    "180-246-016-195.ascus.at [195.16.246.180]",
    "195.140.139.133",
]


def test_table1_trace(benchmark, scenario):
    def trace():
        scenario.routes._cache.clear()   # time the uncached resolution
        route = scenario.routes.route("ue-c2", "probe-uni")
        return traceroute(scenario.topology, route)

    result = benchmark(trace)

    assert result.hop_count == 10
    assert [h.label for h in result.hops] == PAPER_HOPS
    assert units.ms(55.0) < result.total_rtt_s < units.ms(75.0)

    print("\n" + result.render_table(
        title="NETWORKING HOPS FOR LOCAL SERVICE REQUEST"))
    print(f"\npaper:    10 hops, 65 ms RTL")
    print(f"measured: {result.hop_count} hops, "
          f"{units.to_ms(result.total_rtt_s):.0f} ms RTL")
