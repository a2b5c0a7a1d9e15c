"""Unit tests for resources, stores, and pthread-style sync primitives."""

import pytest

from repro.sim import (
    Simulator,
    Resource,
    Store,
    Mutex,
    ConditionVar,
    SimBarrier,
    Semaphore,
    Latch,
)
from repro.sim.events import SimulationError


# ---------------------------------------------------------------- Resource
def test_resource_capacity_limits_concurrency(sim):
    res = Resource(sim, capacity=2)
    active = []
    peak = []

    def worker(i):
        yield from res.execute(1.0)
        peak.append(sim.now)

    for i in range(4):
        sim.process(worker(i))
    sim.run()
    # 4 jobs of 1s on 2 slots -> finish at 1,1,2,2
    assert sorted(peak) == [1.0, 1.0, 2.0, 2.0]


def test_resource_fifo_grant_order(sim):
    res = Resource(sim, capacity=1)
    order = []

    def worker(i):
        req = res.request()
        yield req
        order.append(i)
        yield sim.timeout(1)
        res.release(req)

    for i in range(5):
        sim.process(worker(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_resource_priority_beats_fifo(sim):
    res = Resource(sim, capacity=1)
    order = []

    def holder():
        req = res.request()
        yield req
        yield sim.timeout(5)
        res.release(req)

    def worker(i, prio):
        yield sim.timeout(1)  # queue up while held
        req = res.request(priority=prio)
        yield req
        order.append(i)
        res.release(req)

    sim.process(holder())
    sim.process(worker("low", 5))
    sim.process(worker("high", -5))
    sim.run()
    assert order == ["high", "low"]


def test_resource_release_of_unheld_raises(sim):
    res = Resource(sim, capacity=1)
    req = res.request()

    def proc():
        yield req
        res.release(req)
        with pytest.raises(SimulationError):
            res.release(req)

    sim.process(proc())
    sim.run()


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_utilization_accounting(sim):
    res = Resource(sim, capacity=1)

    def worker():
        yield from res.execute(2.0)
        yield sim.timeout(2.0)

    sim.process(worker())
    sim.run()
    assert res.total_busy_time == pytest.approx(2.0)
    assert res.utilization_until_now == pytest.approx(0.5)


def test_resource_cancel_queued_request(sim):
    res = Resource(sim, capacity=1)
    granted = []

    def holder():
        req = res.request()
        yield req
        yield sim.timeout(2)
        res.release(req)

    def canceller():
        yield sim.timeout(0.5)
        req = res.request()
        res.cancel(req)
        granted.append(req.triggered)

    sim.process(holder())
    sim.process(canceller())
    sim.run()
    assert granted == [False]


@pytest.mark.parametrize("traced", [False, True], ids=["hold", "generator"])
@pytest.mark.parametrize("when", ["queued", "granted", "holding"])
def test_interrupted_waiter_gives_the_unit_back(sim, traced, when):
    """A process interrupted while queued for, just granted, or occupying
    a resource must not leave its request behind (it used to: the unit
    leaked and later requesters never ran)."""
    from repro.sim import Interrupted
    from repro.trace import TraceRecorder

    if traced:  # an attached recorder selects the generator burst path
        TraceRecorder(sim)
    res = Resource(sim, capacity=1)
    log = []

    def holder():
        yield from res.execute(5.0)
        log.append(("holder", sim.now))

    def victim():
        try:
            yield from res.execute(1.0)
        except Interrupted:
            log.append(("interrupted", sim.now))

    def later():
        yield sim.timeout(6.0)
        yield from res.execute(1.0)
        log.append(("later", sim.now))

    def driver():
        if when == "queued":
            sim.process(holder())
            v = sim.process(victim())
            yield sim.timeout(1.0)
        else:
            v = sim.process(victim())
            # "granted": the victim has requested (granted synchronously)
            # but its grant entry has not been processed yet — the URGENT
            # interrupt overtakes it; "holding": mid-occupancy
            yield sim.timeout(0.0 if when == "granted" else 0.5)
        v.interrupt()

    sim.process(driver())
    sim.process(later())
    sim.run()
    t_interrupt = {"queued": 1.0, "granted": 0.0, "holding": 0.5}[when]
    assert ("interrupted", t_interrupt) in log
    assert ("later", 7.0) in log
    assert res.count == 0 and res.queue_length == 0


@pytest.mark.parametrize("traced", [False, True], ids=["hold", "generator"])
@pytest.mark.parametrize("fault", ["raises", "negative"])
def test_again_failure_is_thrown_into_the_waiter(sim, traced, fault):
    """What ``again()`` raises (or a negative duration it returns) reaches
    the process waiting on the burst on both paths — it used to escape
    ``sim.run()`` on the hold path and leave the process suspended — with
    the unit given back and ``again`` run as the waiting process."""
    from repro.trace import TraceRecorder

    if traced:
        TraceRecorder(sim)
    res = Resource(sim, capacity=1)
    log = []

    def again():
        log.append(("again", sim.now, sim.active_process.label))
        if fault == "raises":
            raise RuntimeError("boom")
        return -1.0

    def victim():
        try:
            yield from res.execute(1.0, again=again)
        except (RuntimeError, ValueError) as exc:
            log.append((type(exc).__name__, sim.now))
        yield from res.execute(1.0)  # still alive, and the unit is free
        log.append(("done", sim.now))

    proc = sim.process(victim(), label="victim")
    sim.run()
    caught = "RuntimeError" if fault == "raises" else "ValueError"
    assert log == [("again", 1.0, "victim"), (caught, 1.0), ("done", 2.0)]
    assert proc.processed and proc.ok
    assert res.count == 0 and res.queue_length == 0


# ---------------------------------------------------------------- Store
def test_store_fifo_order(sim):
    box = Store(sim)
    got = []

    def consumer():
        for _ in range(3):
            v = yield box.get()
            got.append(v)

    def producer():
        for i in range(3):
            yield sim.timeout(1)
            box.put(i)

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [0, 1, 2]


def test_store_get_before_put_blocks(sim):
    box = Store(sim)
    out = []

    def consumer():
        v = yield box.get()
        out.append((sim.now, v))

    sim.process(consumer())

    def producer():
        yield sim.timeout(7)
        box.put("x")

    sim.process(producer())
    sim.run()
    assert out == [(7, "x")]


def test_store_get_filtered(sim):
    box = Store(sim)
    box.put(("a", 1))
    box.put(("b", 2))
    box.put(("a", 3))
    assert box.get_filtered(lambda m: m[0] == "b") == ("b", 2)
    assert box.get_filtered(lambda m: m[0] == "z") is None
    assert len(box) == 2


# ---------------------------------------------------------------- Mutex
def test_mutex_mutual_exclusion(sim):
    mtx = Mutex(sim)
    inside = [0]
    max_inside = [0]

    def worker():
        yield from mtx.acquire()
        inside[0] += 1
        max_inside[0] = max(max_inside[0], inside[0])
        yield sim.timeout(1)
        inside[0] -= 1
        mtx.release()

    for _ in range(4):
        sim.process(worker())
    sim.run()
    assert max_inside[0] == 1
    assert mtx.n_acquisitions == 4
    assert mtx.n_contended == 3


def test_mutex_release_unheld_raises(sim):
    mtx = Mutex(sim)
    with pytest.raises(SimulationError):
        mtx.release()


# ---------------------------------------------------------------- ConditionVar
def test_condition_var_wait_notify(sim):
    mtx = Mutex(sim)
    cond = ConditionVar(sim, mtx)
    state = {"ready": False}
    out = []

    def waiter():
        yield from mtx.acquire()
        while not state["ready"]:
            yield from cond.wait()
        out.append(sim.now)
        mtx.release()

    def notifier():
        yield sim.timeout(5)
        yield from mtx.acquire()
        state["ready"] = True
        cond.notify_all()
        mtx.release()

    sim.process(waiter())
    sim.process(notifier())
    sim.run()
    assert out == [5]


def test_condition_var_notify_one_wakes_one(sim):
    mtx = Mutex(sim)
    cond = ConditionVar(sim, mtx)
    woken = []

    def waiter(i):
        yield from mtx.acquire()
        yield from cond.wait()
        woken.append(i)
        mtx.release()

    for i in range(3):
        sim.process(waiter(i))

    def notifier():
        yield sim.timeout(1)
        cond.notify()

    sim.process(notifier())
    sim.run()
    assert woken == [0]
    assert cond.n_waiting == 2


# ---------------------------------------------------------------- SimBarrier
def test_barrier_releases_all_at_last_arrival(sim):
    bar = SimBarrier(sim, 3)
    out = []

    def worker(i):
        yield sim.timeout(i)
        yield from bar.arrive()
        out.append((i, sim.now))

    for i in range(3):
        sim.process(worker(i))
    sim.run()
    assert all(t == 2 for _, t in out)
    assert bar.n_cycles == 1


def test_barrier_is_reusable(sim):
    bar = SimBarrier(sim, 2)
    times = []

    def worker(delay):
        for k in range(3):
            yield sim.timeout(delay)
            yield from bar.arrive()
            if delay == 2:
                times.append(sim.now)

    sim.process(worker(1))
    sim.process(worker(2))
    sim.run()
    assert times == [2, 4, 6]
    assert bar.n_cycles == 3


def test_barrier_invalid_count(sim):
    with pytest.raises(ValueError):
        SimBarrier(sim, 0)


# ---------------------------------------------------------------- Semaphore
def test_semaphore_counts(sim):
    sem = Semaphore(sim, value=1)
    order = []

    def worker(i):
        yield from sem.wait()
        order.append(("in", i, sim.now))
        yield sim.timeout(1)
        sem.post()

    for i in range(3):
        sim.process(worker(i))
    sim.run()
    assert [t for _, _, t in order] == [0, 1, 2]


def test_semaphore_negative_init():
    sim = Simulator()
    with pytest.raises(ValueError):
        Semaphore(sim, value=-1)


# ---------------------------------------------------------------- Latch
def test_latch_opens_at_zero(sim):
    latch = Latch(sim, 2)
    out = []

    def waiter():
        yield latch.wait()
        out.append(sim.now)

    def counter():
        yield sim.timeout(1)
        latch.count_down()
        yield sim.timeout(1)
        latch.count_down()

    sim.process(waiter())
    sim.process(counter())
    sim.run()
    assert out == [2]
    assert latch.open


def test_latch_overcount_raises(sim):
    latch = Latch(sim, 1)
    latch.count_down()
    with pytest.raises(SimulationError):
        latch.count_down()


def test_latch_zero_is_open_immediately(sim):
    latch = Latch(sim, 0)
    assert latch.open
