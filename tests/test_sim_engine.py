"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import Interrupt, SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_custom_start():
    sim = Simulator(start_time=5.0)
    assert sim.now == 5.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(2.5)
    sim.run()
    assert sim.now == 2.5


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_run_until_advances_to_exact_time():
    sim = Simulator()
    sim.timeout(1.0)
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_run_until_past_raises():
    sim = Simulator(start_time=5.0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_run_until_does_not_process_later_events():
    sim = Simulator()
    fired = []
    sim.timeout(1.0).subscribe(lambda ev: fired.append(1.0))
    sim.timeout(3.0).subscribe(lambda ev: fired.append(3.0))
    sim.run(until=2.0)
    assert fired == [1.0]


def test_simple_process_sequences_timeouts():
    sim = Simulator()
    trace = []

    def proc():
        trace.append(("start", sim.now))
        yield sim.timeout(1.0)
        trace.append(("mid", sim.now))
        yield sim.timeout(2.0)
        trace.append(("end", sim.now))

    sim.process(proc())
    sim.run()
    assert trace == [("start", 0.0), ("mid", 1.0), ("end", 3.0)]


def test_process_return_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        return 42

    assert sim.run_process(proc()) == 42


def test_timeout_value_passed_to_process():
    sim = Simulator()

    def proc():
        got = yield sim.timeout(1.0, value="payload")
        return got

    assert sim.run_process(proc()) == "payload"


def test_process_exception_propagates_through_run_process():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        sim.run_process(proc())


def test_process_waits_on_other_process():
    sim = Simulator()

    def child():
        yield sim.timeout(2.0)
        return "child-result"

    def parent():
        result = yield sim.process(child())
        return (result, sim.now)

    assert sim.run_process(parent()) == ("child-result", 2.0)


def test_failing_child_propagates_to_parent():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise ValueError("child died")

    def parent():
        try:
            yield sim.process(child())
        except ValueError as exc:
            return f"caught:{exc}"

    assert sim.run_process(parent()) == "caught:child died"


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = sim.event("gate")
    log = []

    def opener():
        yield sim.timeout(4.0)
        gate.succeed("open!")

    def waiter():
        value = yield gate
        log.append((sim.now, value))

    sim.process(opener())
    sim.process(waiter())
    sim.run()
    assert log == [(4.0, "open!")]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_event_value_before_trigger_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        _ = sim.event().value


def test_yielding_already_processed_event_continues_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")
    sim.run()  # process the event so it is 'processed'

    def proc():
        v = yield ev
        return (v, sim.now)

    assert sim.run_process(proc()) == ("early", 0.0)


def test_yield_non_event_fails_process():
    sim = Simulator()

    def proc():
        yield 17  # not an Event

    with pytest.raises(SimulationError, match="must yield Event"):
        sim.run_process(proc())


def test_all_of_collects_all_values():
    sim = Simulator()

    def proc():
        t1 = sim.timeout(1.0, value="a")
        t2 = sim.timeout(2.0, value="b")
        results = yield sim.all_of([t1, t2])
        return (sorted(results.values()), sim.now)

    assert sim.run_process(proc()) == (["a", "b"], 2.0)


def test_any_of_returns_first():
    sim = Simulator()

    def proc():
        slow = sim.timeout(9.0, value="slow")
        fast = sim.timeout(1.0, value="fast")
        results = yield sim.any_of([slow, fast])
        return (list(results.values()), sim.now)

    assert sim.run_process(proc()) == (["fast"], 1.0)


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def proc():
        result = yield sim.all_of([])
        return result

    assert sim.run_process(proc()) == {}


def test_interrupt_reaches_process():
    sim = Simulator()
    log = []

    def victim():
        try:
            yield sim.timeout(100.0)
        except Interrupt as exc:
            log.append((sim.now, exc.cause))

    def attacker(proc):
        yield sim.timeout(3.0)
        proc.interrupt(cause="handover")

    victim_proc = sim.process(victim())
    sim.process(attacker(victim_proc))
    sim.run()
    assert log == [(3.0, "handover")]


def test_uncaught_interrupt_fails_process():
    sim = Simulator()

    def victim():
        yield sim.timeout(100.0)

    def attacker(proc):
        yield sim.timeout(1.0)
        proc.interrupt()

    victim_proc = sim.process(victim())
    sim.process(attacker(victim_proc))
    sim.run()
    assert victim_proc.triggered and not victim_proc.ok
    assert isinstance(victim_proc.value, Interrupt)


def test_interrupt_dead_process_rejected():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    proc = sim.process(quick())
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_deterministic_tie_breaking():
    """Events at the same instant fire in scheduling order."""
    sim = Simulator()
    order = []
    for label in ("first", "second", "third"):
        sim.timeout(1.0, value=label).subscribe(
            lambda ev: order.append(ev.value))
    sim.run()
    assert order == ["first", "second", "third"]


def test_step_on_empty_schedule_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(7.0)
    assert sim.peek() == 7.0


def test_events_processed_counter():
    sim = Simulator()
    sim.timeout(1.0)
    sim.timeout(2.0)
    sim.run()
    assert sim.events_processed == 2


def test_deadlocked_process_detected_by_run_process():
    sim = Simulator()

    def stuck():
        yield sim.event()  # never triggered

    with pytest.raises(SimulationError, match="never finished"):
        sim.run_process(stuck())


def test_cross_simulator_event_rejected():
    sim_a, sim_b = Simulator(), Simulator()
    foreign = sim_b.event()

    def proc():
        yield foreign

    sim_a.process(proc())
    with pytest.raises(SimulationError):
        sim_a.run()


def test_nested_process_chain_timing():
    sim = Simulator()

    def level3():
        yield sim.timeout(1.0)
        return 3

    def level2():
        v = yield sim.process(level3())
        yield sim.timeout(1.0)
        return v + 10

    def level1():
        v = yield sim.process(level2())
        return (v, sim.now)

    assert sim.run_process(level1()) == (13, 2.0)


def test_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)  # type: ignore[arg-type]
