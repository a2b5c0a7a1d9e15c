"""Unit tests for the discrete-event kernel: events, processes, time."""

import pytest

from repro.sim import Simulator, Event, Timeout, AllOf, AnyOf, Interrupted
from repro.sim.core import EmptySchedule, UnhandledProcessError
from repro.sim.events import SimulationError
from repro.sim.probe import subscribe


def test_timeout_advances_time(sim):
    log = []

    def proc():
        yield sim.timeout(1.5)
        log.append(sim.now)
        yield sim.timeout(0.5)
        log.append(sim.now)

    sim.process(proc())
    sim.run()
    assert log == [1.5, 2.0]


def test_negative_timeout_rejected(sim):
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_timeout_carries_value(sim):
    out = []

    def proc():
        v = yield sim.timeout(1.0, value="hello")
        out.append(v)

    sim.process(proc())
    sim.run()
    assert out == ["hello"]


def test_event_succeed_wakes_waiter_with_value(sim):
    ev = sim.event()
    out = []

    def waiter():
        v = yield ev
        out.append((sim.now, v))

    def firer():
        yield sim.timeout(3.0)
        ev.succeed(42)

    sim.process(waiter())
    sim.process(firer())
    sim.run()
    assert out == [(3.0, 42)]


def test_event_double_trigger_rejected(sim):
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_throws_into_process(sim):
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except RuntimeError as e:
            caught.append(str(e))

    sim.process(waiter())
    ev.fail(RuntimeError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_fail_requires_exception_instance(sim):
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_process_return_value_propagates(sim):
    def inner():
        yield sim.timeout(1)
        return 99

    def outer():
        v = yield sim.process(inner())
        return v + 1

    p = sim.process(outer())
    sim.run()
    assert p.value == 100


def test_yield_from_composes_generators(sim):
    def sub():
        yield sim.timeout(1)
        return "sub"

    def main():
        v = yield from sub()
        return v + "-main"

    p = sim.process(main())
    sim.run()
    assert p.value == "sub-main"


def test_unhandled_process_exception_surfaces():
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise ValueError("kaput")

    sim.process(bad())
    with pytest.raises(UnhandledProcessError):
        sim.run()


def test_waited_on_failure_is_rethrown_not_crashed(sim):
    def bad():
        yield sim.timeout(1)
        raise ValueError("kaput")

    caught = []

    def watcher():
        try:
            yield sim.process(bad())
        except ValueError:
            caught.append(True)

    sim.process(watcher())
    sim.run()
    assert caught == [True]


def test_yielding_non_event_is_an_error(sim):
    def bad():
        yield 42

    sim.process(bad())
    with pytest.raises(UnhandledProcessError):
        sim.run()


def test_deterministic_fifo_order_at_same_time(sim):
    order = []

    def proc(i):
        yield sim.timeout(1.0)
        order.append(i)

    for i in range(10):
        sim.process(proc(i))
    sim.run()
    assert order == list(range(10))


def test_call_later_is_keyed_like_a_timeout(sim):
    """``call_later(delay, fn, *args)`` is one queue entry, taking the
    place a ``timeout(delay)`` with that one callback would take: same
    instant, same FIFO sequence among same-instant entries, one event."""
    order = []
    sim.timeout(1.0).add_callback(lambda ev: order.append("t0"))
    sim.call_later(1.0, order.append, "c1")
    sim.timeout(1.0).add_callback(lambda ev: order.append("t2"))
    sim.call_later(0.0, order.append, "now")
    sim.call_later(0.5, lambda a, b: order.append((a, b, sim.now)), "x", "y")
    sim.run()
    assert order == ["now", ("x", "y", 0.5), "t0", "c1", "t2"]
    assert sim.now == 1.0 and sim.events_processed == 5
    with pytest.raises(ValueError):
        sim.call_later(-1e-9, order.append, "past")


def test_call_later_failure_surfaces(sim):
    def boom():
        raise RuntimeError("in a timed callback")

    sim.call_later(1.0, boom)
    with pytest.raises(RuntimeError, match="timed callback"):
        sim.run()


def test_run_until_limits_time(sim):
    log = []

    def proc():
        for _ in range(10):
            yield sim.timeout(1)
            log.append(sim.now)

    sim.process(proc())
    sim.run(until=4.5)
    assert log == [1, 2, 3, 4]
    assert sim.now == 4.5


def test_run_until_in_past_rejected(sim):
    def proc():
        yield sim.timeout(10)

    sim.process(proc())
    sim.run()
    with pytest.raises(ValueError):
        sim.run(until=5)


def test_step_on_empty_schedule_raises(sim):
    with pytest.raises(EmptySchedule):
        sim.step()


def test_run_until_complete_returns_value(sim):
    def proc():
        yield sim.timeout(2)
        return "done"

    p = sim.process(proc())
    assert sim.run_until_complete(p) == "done"


def test_run_until_complete_detects_deadlock(sim):
    ev = sim.event()  # never fires

    def proc():
        yield ev

    p = sim.process(proc())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_complete(p)


def test_run_until_complete_time_limit(sim):
    def proc():
        yield sim.timeout(100)

    p = sim.process(proc())
    with pytest.raises(SimulationError, match="limit"):
        sim.run_until_complete(p, limit=10)


def test_allof_gathers_values(sim):
    def proc(i):
        yield sim.timeout(i)
        return i * 10

    procs = [sim.process(proc(i)) for i in range(1, 4)]

    out = []

    def waiter():
        values = yield AllOf(sim, procs)
        out.append(values)

    sim.process(waiter())
    sim.run()
    assert out == [{0: 10, 1: 20, 2: 30}]
    assert sim.now == 3


def test_anyof_fires_on_first(sim):
    slow = sim.timeout(10, value="slow")
    fast = sim.timeout(1, value="fast")
    out = []

    def waiter():
        got = yield AnyOf(sim, [slow, fast])
        out.append((sim.now, got))

    sim.process(waiter())
    sim.run()
    assert out[0][0] == 1
    assert out[0][1] == {1: "fast"}


def test_allof_empty_fires_immediately(sim):
    out = []

    def waiter():
        v = yield AllOf(sim, [])
        out.append(v)

    sim.process(waiter())
    sim.run()
    assert out == [{}]


def test_interrupt_throws_interrupted(sim):
    caught = []

    def sleeper():
        try:
            yield sim.timeout(100)
        except Interrupted as e:
            caught.append((sim.now, e.cause))

    p = sim.process(sleeper())

    def interrupter():
        yield sim.timeout(5)
        p.interrupt("wakeup")

    sim.process(interrupter())
    sim.run()
    assert caught == [(5, "wakeup")]


def test_events_processed_counter(sim):
    def proc():
        yield sim.timeout(1)
        yield sim.timeout(1)

    sim.process(proc())
    sim.run()
    assert sim.events_processed >= 3  # init + 2 timeouts


def test_negative_schedule_delay_rejected(sim):
    with pytest.raises(ValueError):
        sim.schedule(sim.event(), delay=-1e-9)
    assert sim.peek() == float("inf")


def _random_schedule(sim, seed, log):
    """Seed a mixed schedule: timeouts (zero, tiny, colliding), raw
    ``schedule`` calls on both deques and the heap, and processes that
    keep adding more of each as they run."""
    import random

    from repro.sim.events import NORMAL, URGENT

    rng = random.Random(seed)
    delays = (0.0, 0.0, 1e-9, 0.5, 0.5, 1.0, 1.5)

    def note(tag):
        return lambda ev: log.append((tag, sim.now))

    def proc(i):
        for k in range(6):
            yield sim.timeout(rng.choice(delays))
            log.append((f"p{i}.{k}", sim.now))
            ev = sim.event()
            ev.add_callback(note(f"p{i}.{k}.ev"))
            if rng.random() < 0.5:
                ev.succeed(priority=rng.choice((NORMAL, URGENT)))
            else:
                ev._ok, ev._value = True, None
                # priority 2 at zero delay goes to the heap, at time == now
                sim.schedule(ev, rng.choice(delays), rng.choice((URGENT, NORMAL, 2)))

    for i in range(5):
        sim.process(proc(i), label=f"p{i}")


@pytest.mark.parametrize("seed", range(5))
def test_deque_entries_are_always_at_now(seed):
    """The pop-order rule's premise: nothing is ever queued in the past,
    so a non-empty deque means the next event is at ``now``."""
    sim = Simulator()
    _random_schedule(sim, seed, [])
    steps = 0
    while sim.peek() != float("inf"):
        for queue in (sim._urgent, sim._immediate):
            assert all(entry[0] == sim.now for entry in queue)
        if sim._urgent or sim._immediate:
            assert sim.peek() == sim.now
        else:
            assert sim.peek() >= sim.now
        sim.step()
        steps += 1
    assert steps == sim.events_processed > 60


@pytest.mark.parametrize("seed", range(5))
def test_step_and_run_drain_in_the_same_order(seed):
    logs = []
    for drive in ("step", "run", "run_until"):
        sim = Simulator()
        log = []
        _random_schedule(sim, seed, log)
        if drive == "step":
            while sim.peek() != float("inf"):
                sim.step()
        elif drive == "run":
            sim.run()
        else:  # stop and restart the fused loop at every half second
            for k in range(1, 40):
                sim.run(until=k * 0.5)
            assert sim.peek() == float("inf")
        logs.append((log, sim.events_processed))
    assert logs[0] == logs[1]
    assert logs[0] == logs[2]


def test_events_processed_is_exact_inside_observer_hooks(sim):
    """An attached ``on_step`` consumer due on every event sees the
    counter already include the event being dispatched, on every event,
    through the fused loop."""
    seen = []

    class Meter:
        categories = ()

        def handler_for(self, cat, name):
            return self.on_step if (cat, name) == ("kernel", "step") else None

        def on_step(self, now, pending):
            seen.append(sim.events_processed)
            return sim.events_processed + 1, float("inf")

    subscribe(sim, Meter())
    _random_schedule(sim, 0, [])
    sim.run()
    assert seen == list(range(1, sim.events_processed + 1))
