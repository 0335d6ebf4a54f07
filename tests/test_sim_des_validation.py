"""Cross-validation: discrete-event simulation vs closed-form queueing.

The latency models across the repository use M/M/1 and M/D/1 formulas;
these tests rebuild the same queues as *actual discrete-event
simulations* on :mod:`repro.sim` and check that simulated waiting times
converge to the analytic values.  This validates both sides: the
formulas the models rely on and the kernel's event ordering under load.
"""

import pytest

from repro.net.queueing import md1_wait, mm1_residence, mm1_wait
from repro.sim import Resource, RngRegistry, SeriesMonitor, Simulator, Store


def simulate_queue(rho: float, service_mean: float, *,
                   deterministic_service: bool, customers: int,
                   seed: int) -> SeriesMonitor:
    """One M/M/1 or M/D/1 queue, returning per-customer waiting times."""
    sim = Simulator()
    rng = RngRegistry(seed).stream("des", rho, deterministic_service)
    server = Resource(sim, capacity=1)
    waits = SeriesMonitor("wait")
    interarrival_mean = service_mean / rho

    def customer():
        arrived = sim.now
        req = server.request()
        yield req
        waits.record(sim.now, sim.now - arrived)
        service = service_mean if deterministic_service \
            else float(rng.exponential(service_mean))
        yield sim.timeout(service)
        server.release(req)

    def source():
        for _ in range(customers):
            yield sim.timeout(float(rng.exponential(interarrival_mean)))
            sim.process(customer())

    sim.process(source())
    sim.run()
    return waits


@pytest.mark.parametrize("rho", [0.3, 0.6, 0.8])
def test_mm1_wait_matches_theory(rho):
    service = 1.0
    waits = simulate_queue(rho, service, deterministic_service=False,
                           customers=60_000, seed=11)
    expected = mm1_wait(rho, service)
    assert waits.summary().mean == pytest.approx(expected, rel=0.08)


@pytest.mark.parametrize("rho", [0.3, 0.6, 0.8])
def test_md1_wait_matches_theory(rho):
    service = 1.0
    waits = simulate_queue(rho, service, deterministic_service=True,
                           customers=60_000, seed=13)
    expected = md1_wait(rho, service)
    assert waits.summary().mean == pytest.approx(expected, rel=0.08)


def test_mm1_residence_matches_theory():
    """Waiting + service = residence: E[T] = E[S] / (1 - rho)."""
    rho, service = 0.7, 1.0
    waits = simulate_queue(rho, service, deterministic_service=False,
                           customers=60_000, seed=17)
    residence = waits.summary().mean + service
    assert residence == pytest.approx(mm1_residence(rho, service),
                                      rel=0.08)


def test_mm1_idle_probability():
    """P(W = 0) = 1 - rho: the fraction of customers finding an empty
    system."""
    rho = 0.5
    waits = simulate_queue(rho, 1.0, deterministic_service=False,
                           customers=60_000, seed=19)
    idle_fraction = waits.fraction_below(1e-12)
    assert idle_fraction == pytest.approx(1.0 - rho, abs=0.02)


def test_tandem_queues_additive_means():
    """Two M/M/1 stages in tandem: mean end-to-end residence is the sum
    of per-stage residences (Burke's theorem: the departure process of
    the first stage is again Poisson)."""
    sim = Simulator()
    rng = RngRegistry(23).stream("tandem")
    stage1 = Resource(sim, capacity=1)
    stage2 = Resource(sim, capacity=1)
    totals = SeriesMonitor("total")
    rho1, rho2, s1, s2 = 0.6, 0.5, 1.0, 0.8
    lam = rho1 / s1   # arrival rate; stage-2 load = lam * s2 = 0.6*0.8/1

    def customer():
        arrived = sim.now
        for server, mean in ((stage1, s1), (stage2, s2)):
            req = server.request()
            yield req
            yield sim.timeout(float(rng.exponential(mean)))
            server.release(req)
        totals.record(sim.now, sim.now - arrived)

    def source():
        for _ in range(50_000):
            yield sim.timeout(float(rng.exponential(1.0 / lam)))
            sim.process(customer())

    sim.process(source())
    sim.run()
    expected = (mm1_residence(lam * s1, s1)
                + mm1_residence(lam * s2, s2))
    assert totals.summary().mean == pytest.approx(expected, rel=0.08)


def test_store_as_packet_queue_conserves_packets():
    """A producer/consumer over a bounded Store: every packet produced
    is consumed exactly once, in order."""
    sim = Simulator()
    rng = RngRegistry(29).stream("pkts")
    queue = Store(sim, capacity=16)
    received: list[int] = []

    def producer():
        for seq in range(2_000):
            yield sim.timeout(float(rng.exponential(1.0)))
            yield queue.put(seq)

    def consumer():
        for _ in range(2_000):
            item = yield queue.get()
            received.append(item)
            yield sim.timeout(float(rng.exponential(0.7)))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert received == list(range(2_000))
