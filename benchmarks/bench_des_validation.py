"""Cross-validation bench: analytic latency model vs packet-level DES.

The campaign samples per-packet latency from analytic queueing
distributions; this bench replays the scenario's wired probe path as an
*actual packet simulation* on the discrete-event kernel and checks the
two agree — the strongest internal-consistency check the reproduction
has.

Timed work: a 20k-packet DES run over the Table I path.
"""

import pytest

from repro import units
from repro.net.dessim import PacketNetwork
from repro.sim import RngRegistry, Simulator


def test_des_agrees_with_analytic_on_probe_path(benchmark, scenario):
    path = list(scenario.routes.route("gw-vie", "probe-uni").path)
    size = 64.0 * 8.0

    def run_des():
        sim = Simulator()
        net = PacketNetwork(sim, scenario.topology)
        rng = RngRegistry(3).stream("des.bench")
        # Paced probes (no self-queueing): one packet per millisecond.
        def source():
            for _ in range(2_000):
                yield sim.timeout(1e-3)
                net.send(path, size)
        sim.process(source())
        sim.run()
        return net.delivered

    delivered = benchmark.pedantic(run_des, rounds=1, iterations=1)

    des_mean = delivered.summary().mean
    analytic = scenario.topology.path_latency(path, size).total
    # The analytic model adds the *mean* M/M/1 wait on loaded links;
    # paced DES probes see the empty-queue path.  They agree within the
    # total queueing allowance.
    queueing = sum(scenario.topology.link(a, b).mean_queueing_delay(size)
                   for a, b in zip(path, path[1:]))
    assert des_mean == pytest.approx(analytic - queueing, rel=1e-6)
    print(f"\nDES one-way {units.to_ms(des_mean):.3f} ms vs analytic "
          f"{units.to_ms(analytic):.3f} ms "
          f"(of which queueing allowance "
          f"{units.to_ms(queueing):.3f} ms)")


def test_des_queueing_matches_analytic_under_load(benchmark):
    """Loaded bottleneck: DES waiting converges to the M/M/1 mean used
    by the analytic sampler."""
    from repro.geo import GeoPoint
    from repro.net import Node, NodeKind, Topology
    from repro.net.queueing import mm1_wait

    topo = Topology("bottleneck")
    a = topo.add_node(Node("a", NodeKind.ROUTER, GeoPoint(46.6, 14.3),
                           asn=1))
    b = topo.add_node(Node("b", NodeKind.ROUTER, GeoPoint(46.7, 14.3),
                           asn=1))
    link = topo.connect(a, b, rate_bps=units.mbps(50.0))
    mean_size = units.bytes_(1500)
    service = link.transmission_delay(mean_size)
    rho = 0.75

    def run_loaded_des():
        sim = Simulator()
        net = PacketNetwork(sim, topo)
        rng = RngRegistry(7).stream("des.load")
        rate = rho / service

        def source():
            for _ in range(20_000):
                yield sim.timeout(float(rng.exponential(1.0 / rate)))
                net.send(["a", "b"], max(
                    float(rng.exponential(mean_size)), 64.0))

        sim.process(source())
        sim.run()
        return net.delivered

    delivered = benchmark.pedantic(run_loaded_des, rounds=1, iterations=1)
    prop = link.propagation_delay()
    measured = delivered.summary().mean - prop
    expected = mm1_wait(rho, service) + service
    assert measured == pytest.approx(expected, rel=0.12)
    print(f"\nDES wait+service {measured * 1e3:.2f} ms vs M/M/1 "
          f"{expected * 1e3:.2f} ms at rho={rho}")
