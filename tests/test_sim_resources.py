"""Unit tests for resources and stores."""

import pytest

from repro.sim import (
    PriorityResource,
    Resource,
    SimulationError,
    Simulator,
    Store,
)


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------

def test_resource_grants_up_to_capacity_immediately():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    r1, r2 = res.request(), res.request()
    assert r1.triggered and r2.triggered
    r3 = res.request()
    assert not r3.triggered
    assert res.count == 2 and res.queue_length == 1


def test_resource_release_wakes_fifo_waiter():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(label, hold):
        req = res.request()
        yield req
        order.append((label, sim.now))
        yield sim.timeout(hold)
        res.release(req)

    sim.process(worker("a", 2.0))
    sim.process(worker("b", 1.0))
    sim.process(worker("c", 1.0))
    sim.run()
    assert order == [("a", 0.0), ("b", 2.0), ("c", 3.0)]


def test_resource_acquire_helper_releases_on_completion():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker():
        yield from res.acquire(hold=1.5)
        return sim.now

    def second():
        yield sim.timeout(0.1)
        yield from res.acquire(hold=1.0)
        return sim.now

    p1 = sim.process(worker())
    p2 = sim.process(second())
    sim.run()
    assert p1.value == 1.5
    assert p2.value == 2.5  # waits for first to release at 1.5
    assert res.count == 0


def test_release_foreign_request_rejected():
    sim = Simulator()
    res_a, res_b = Resource(sim, capacity=1), Resource(sim, capacity=1)
    req = res_a.request()
    with pytest.raises(SimulationError):
        res_b.release(req)


def test_release_queued_request_cancels_it():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    held = res.request()
    queued = res.request()
    res.release(queued)          # cancel while waiting
    assert res.queue_length == 0
    res.release(held)
    assert res.count == 0


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_priority_resource_serves_lowest_priority_first():
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    order = []

    def worker(label, prio):
        req = res.request(priority=prio)
        yield req
        order.append(label)
        yield sim.timeout(1.0)
        res.release(req)

    def spawn():
        # Occupy the resource, then enqueue three waiters w/ priorities.
        req = res.request()
        yield req
        sim.process(worker("low", 5.0))
        sim.process(worker("high", 0.0))
        sim.process(worker("mid", 2.0))
        yield sim.timeout(1.0)
        res.release(req)

    sim.process(spawn())
    sim.run()
    assert order == ["high", "mid", "low"]


def test_priority_ties_are_fifo():
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    order = []

    def worker(label):
        req = res.request(priority=1.0)
        yield req
        order.append(label)
        yield sim.timeout(1.0)
        res.release(req)

    def spawn():
        req = res.request()
        yield req
        for label in ("first", "second", "third"):
            sim.process(worker(label))
        yield sim.timeout(1.0)
        res.release(req)

    sim.process(spawn())
    sim.run()
    assert order == ["first", "second", "third"]


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------

def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)

    def proc():
        yield store.put("pkt-1")
        item = yield store.get()
        return item

    assert sim.run_process(proc()) == "pkt-1"


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)

    def consumer():
        item = yield store.get()
        return (item, sim.now)

    def producer():
        yield sim.timeout(5.0)
        yield store.put("late")

    p = sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert p.value == ("late", 5.0)


def test_store_is_fifo():
    sim = Simulator()
    store = Store(sim)

    def proc():
        yield store.put(1)
        yield store.put(2)
        yield store.put(3)
        a = yield store.get()
        b = yield store.get()
        c = yield store.get()
        return [a, b, c]

    assert sim.run_process(proc()) == [1, 2, 3]


def test_bounded_store_blocks_put_when_full():
    sim = Simulator()
    store = Store(sim, capacity=1)
    log = []

    def producer():
        yield store.put("a")
        log.append(("a", sim.now))
        yield store.put("b")
        log.append(("b", sim.now))

    def consumer():
        yield sim.timeout(3.0)
        item = yield store.get()
        log.append(("got:" + item, sim.now))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert log == [("a", 0.0), ("got:a", 3.0), ("b", 3.0)]


def test_store_try_get():
    sim = Simulator()
    store = Store(sim)
    ok, item = store.try_get()
    assert not ok and item is None
    store.put("x")
    ok, item = store.try_get()
    assert ok and item == "x"


def test_store_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Store(sim, capacity=0)
