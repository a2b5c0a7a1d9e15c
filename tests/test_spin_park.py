"""A busy-wait that parks against its oracle.

``Node.spin_cpu`` hands the kernel the event it waits for and a pure
per-slice function, and a spin nobody can observe *parks*: it keeps its
CPU and schedules nothing until a submit has to queue behind it, the
event is processed, the node's speed changes or it is cancelled (see
:mod:`repro.sim.resources`).  The contract is that no process can tell:
seeded random programs run it against ``conftest.reference_spin`` — the
slice-by-slice chain ``spin_cpu`` used to be, monkeypatched in — and
must end every step at the same instant, wake in the same order and book
the same grants and busy time.  What parking is *for* is pinned as event
ceilings: a lock wait costs O(interruptions), not O(slices).  Two
sections document how a spin that was parked resolves a tie — the one
place it can differ from slice by slice — and why spins that share their
boundaries never have to; the last one runs real applications under
``mode="sdsm"`` and fault plans, whose costs are commensurable and whose
ties are systematic, against both oracles.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import ClusterConfig
from repro.cluster.node import Node
from repro.sim import Interrupted, Simulator
from conftest import reference_spin


def _node(sim, capacity):
    return Node(sim, 0, ClusterConfig(n_nodes=1, cpus_per_node=capacity, cpu_mhz=(550,)))


# ------------------------------------------------------- the property
def _run(seed: int):
    """One random program on one node: 1-4 spinners on their own events
    (capacity 1-3, so they also queue behind each other), bursts at the
    application's and the comm thread's priority interfering, each event
    triggered either by a process that holds a CPU at that moment or by
    one that does not, a mid-run speed change, and one more spinner that
    is interrupted — parked or not, as it comes."""
    rng = random.Random(seed)
    sim = Simulator()
    node = _node(sim, rng.randint(1, 3))
    cpus = node.cpus
    n_spinners = rng.randint(1, 4)
    events = [sim.event() for _ in range(n_spinners)]
    ends = {}
    order = []
    seen = {"parked_at_cancel": False}

    def done(who):
        ends.setdefault(who, []).append(sim.now)
        order.append(who)

    def spinner(i):
        yield sim.timeout(rng.uniform(0.0, 4e-6))
        yield from node.spin_cpu(rng.uniform(0.05e-6, 0.5e-6), events[i])
        done(f"s{i}")
        yield from node.busy_cpu(rng.uniform(0.3e-6, 2e-6))
        done(f"s{i}")

    def burster(b, plan):
        for pause, seconds, priority in plan:
            yield sim.timeout(pause)
            yield from node.busy_cpu(seconds, priority)
            done(f"b{b}")

    def trigger_holding(i, at, keep):
        yield sim.timeout(at)
        req = cpus.request(-1)
        yield req
        done(f"t{i}")
        events[i].succeed()
        yield sim.timeout(keep)
        cpus.release(req)

    def trigger_free(i, at):
        yield sim.timeout(at)
        events[i].succeed()
        done(f"t{i}")

    def speed_change(at, factor):
        yield sim.timeout(at)
        node.set_speed_factor(node.speed_factor * factor)  # as the chaos engine does

    def victim():
        try:
            yield from node.spin_cpu(rng.uniform(0.05e-6, 0.5e-6), sim.event())
        except Interrupted:
            done("victim")

    def canceller(v, at):
        yield sim.timeout(at)
        seen["parked_at_cancel"] = bool(cpus._parked)
        v.interrupt()

    for i in range(n_spinners):
        sim.process(spinner(i), label=f"s{i}")
        at = rng.uniform(20e-6, 120e-6)
        if rng.random() < 0.5:
            sim.process(trigger_holding(i, at, rng.uniform(0.5e-6, 3e-6)), label=f"t{i}")
        else:
            sim.process(trigger_free(i, at), label=f"t{i}")
    for b in range(rng.randint(1, 3)):
        plan = [(rng.uniform(0.5e-6, 25e-6), rng.uniform(0.2e-6, 6e-6), rng.choice((0, -1)))
                for _ in range(rng.randint(2, 8))]
        sim.process(burster(b, plan), label=f"b{b}")
    sim.process(speed_change(rng.uniform(5e-6, 100e-6), rng.choice((0.5, 1 / 3, 2.0))))
    sim.process(canceller(sim.process(victim(), label="victim"), rng.uniform(5e-6, 100e-6)))
    sim.run()
    assert (cpus.count, cpus.queue_length, cpus._parked) == (0, 0, [])
    # not sim.now: slice by slice, the cancelled hold's dead entry is
    # still popped, after everything else
    return {
        "ends": ends,
        "order": order,
        "grants": cpus.n_grants,
        # a parked spin books its slices in one go: the same terms,
        # summed in another order
        "busy": pytest.approx(cpus.total_busy_time, rel=1e-12),
        "overhead": pytest.approx(node.overhead_time, rel=1e-12),
    }, sim.events_processed, seen["parked_at_cancel"]


SEEDS = range(40)


@pytest.mark.parametrize("seed", SEEDS)
def test_parked_spin_is_the_slice_by_slice_spin(monkeypatch, seed):
    parked, n_events, _ = _run(seed)
    monkeypatch.setattr(Node, "spin_cpu", reference_spin)
    sliced, n_sliced, _ = _run(seed)
    assert parked == sliced
    assert n_events <= n_sliced


def test_programs_park_queue_and_cancel_parked_spins(monkeypatch):
    """The programs above are only a fair witness if spins do park (most
    slices are never scheduled), spinners also contend, and some
    interrupts find their victim parked, some not."""
    runs = [_run(seed) for seed in SEEDS]
    assert {parked for _, _, parked in runs} == {True, False}
    n_events = sum(n for _, n, _ in runs)
    grants = sum(r["grants"] for r, _, _ in runs)
    assert grants > 1.5 * n_events  # slice by slice, every grant is an event
    monkeypatch.setattr(Node, "spin_cpu", reference_spin)
    assert sum(_run(seed)[1] for seed in SEEDS) > grants  # one event a slice


# ------------------------------------------------------- event ceilings
def _lock_wait(n_slices: int, interruptions: int):
    """One spinner waits *n_slices* slices on a one-CPU node; the comm
    thread's priority bursts cut in *interruptions* times.  Returns the
    events processed, the grants and the node."""
    sim = Simulator()
    node = _node(sim, 1)
    granted = sim.event()
    slice_s = 1e-6 * node.speed_factor  # 1 us once scaled

    def waiter():
        yield from node.spin_cpu(slice_s, granted)

    def comm():
        for _ in range(interruptions):
            yield sim.timeout(n_slices * 1e-6 / (interruptions + 1))
            yield from node.busy_cpu(0.25e-6, priority=-1)

    def manager():
        yield sim.timeout((n_slices - 0.5) * 1e-6)
        granted.succeed()

    for gen in (waiter(), comm(), manager()):
        sim.process(gen)
    sim.run()
    return sim.events_processed, node.cpus.n_grants, node


def test_a_lock_wait_costs_events_per_interruption_not_per_slice():
    """Fixed costs: three process inits and ends, the manager's timeout
    and the grant event, the spin's first slice and its last.  Each
    interruption: the comm thread's timeout, the spin's current slice
    (put back on the schedule), the comm burst."""
    base, grants, _ = _lock_wait(1000, 0)
    assert grants >= 1000 and base <= 12
    for k in (1, 5, 25):
        n, grants, _ = _lock_wait(1000, k)
        assert grants >= 1000
        assert n <= base + 4 * k
    assert _lock_wait(100_000, 5)[0] == _lock_wait(1000, 5)[0]


def test_parked_spin_shows_as_busy(monkeypatch):
    """``Resource.utilization_until_now`` and the metrics ``cpu_busy``
    gauge read a parked spinner as the busy CPU it is: it stays in
    ``users`` and its ``granted_at`` is the start of the slice it parked
    in, so the open interval covers every slice not booked yet."""
    from repro.metrics.sources import cluster_source
    from types import SimpleNamespace

    def probe(at):
        sim = Simulator()
        node = _node(sim, 2)
        sim.process(node.spin_cpu(1e-6, sim.event()))
        sim.run(until=at)
        gauges = cluster_source(SimpleNamespace(
            nodes=[node], network=SimpleNamespace(total_messages=0, total_bytes=0)))()
        return node.cpus, gauges["node0/cpu_busy"]

    cpus, gauge = probe(1e-3)
    assert cpus._parked and cpus.total_busy_time < 1e-5  # nothing booked since
    assert cpus.utilization_until_now == pytest.approx(0.5, rel=1e-12)
    assert gauge == pytest.approx(0.5 * 550 / 600)
    monkeypatch.setattr(Node, "spin_cpu", reference_spin)
    sliced, sliced_gauge = probe(1e-3)
    assert cpus.utilization_until_now == pytest.approx(sliced.utilization_until_now, rel=1e-9)
    assert gauge == sliced_gauge


# ------------------------------------------------------- the tie rule
def _tie_scenario(steps, what):
    """Slices of 1.0 from t = 0 on one CPU: boundaries at exactly 1.0,
    2.0, …  A second process sleeps through *steps* and then, at exactly
    t = 3.0 — a boundary — either submits a burst of 0.5 (*what* =
    ``"submit"``) or triggers the event the spin waits for
    (``"trigger"``).  Returns when each was done."""
    sim = Simulator()
    node = _node(sim, 1)
    node.speed_factor = 1.0
    until = sim.event()
    done = {}

    def other():
        for step in steps:
            yield sim.timeout(step)
        assert sim.now == 3.0
        if what == "submit":
            yield from node.busy_cpu(0.5)
            done["burst"] = sim.now
            yield sim.timeout(7.25 - sim.now)
        until.succeed()

    def spinner():
        yield from node.spin_cpu(1.0, until)
        done["spin"] = sim.now

    sim.process(spinner())
    sim.process(other())
    sim.run()
    return done, node.cpus.n_grants, node.cpus.total_busy_time


@pytest.mark.parametrize("what,expected", [
    # the submitter gets the CPU at the boundary, 3.0 - 3.5; the spin goes
    # on at 3.5 and sees its event (7.25) at 7.5
    ("submit", ({"burst": 3.5, "spin": 7.5}, 3 + 1 + 4, 7.5)),
    # the spin sees the trigger at the boundary
    ("trigger", ({"spin": 3.0}, 3, 3.0)),
])
def test_a_boundary_at_exactly_now_has_not_yet_passed(monkeypatch, what, expected):
    """A spin that was parked takes the boundary of the slice it is
    un-parked in as an entry scheduled *by the un-park*.  So what
    happens at the very instant of a boundary happens before the slice
    changes: the submitter gets the unit there and then, the spin
    notices its event there and then.  Slice by slice that is a matter
    of sequence numbers — the slice's end was scheduled when the slice
    began, so it comes last whenever the cause of what happens is older
    than that (here one timer from t = 0).  That is the case a parked
    spin, which has no sequence number, is made to agree with …"""
    old = (3.0,)
    assert _tie_scenario(old, what) == expected
    monkeypatch.setattr(Node, "spin_cpu", reference_spin)
    assert _tie_scenario(old, what) == expected


@pytest.mark.parametrize("what,sliced", [
    # slice 4 began at 3.0 before the submit: the burst runs 4.0 - 4.5,
    # the spin goes on at 4.5 and sees its event (7.25) at 7.5
    ("submit", ({"burst": 4.5, "spin": 7.5}, 4 + 1 + 3, 7.5)),
    # slice 4 began at 3.0 before the trigger: the spin ends at 4.0
    ("trigger", ({"spin": 4.0}, 4, 4.0)),
])
def test_where_a_parked_spin_and_sequence_numbers_part(monkeypatch, what, sliced):
    """… and this is the one it is not: a cause scheduled *during* the
    slice (the last step of the sleep, set at 2.5, after boundary 2.0)
    comes after the slice's end slice by slice, and a parked spin still
    says the boundary has not passed.  Documented, deterministic, and it
    takes two entries at one virtual instant to the last bit."""
    recent = (2.5, 0.5)
    parked = _tie_scenario(recent, what)
    assert parked == _tie_scenario((3.0,), what)
    monkeypatch.setattr(Node, "spin_cpu", reference_spin)
    assert _tie_scenario(recent, what) == sliced != parked


def _unpark_order_scenario():
    """Slices of 1.0 from t = 0 on one CPU, parked from the first
    boundary on.  At 2.25 the event's owner sets a timer for 3.0 — a
    boundary — and at 2.5 a burst of 0.5 is submitted, which puts the
    spin back on the schedule, for that same 3.0."""
    sim = Simulator()
    node = _node(sim, 1)
    node.speed_factor = 1.0
    until = sim.event()
    done = {}

    def owner():
        yield sim.timeout(2.25)
        yield sim.timeout(0.75)
        until.succeed()

    def burst():
        yield sim.timeout(2.5)
        yield from node.busy_cpu(0.5)
        done["burst"] = sim.now

    def spinner():
        yield from node.spin_cpu(1.0, until)
        done["spin"] = sim.now

    for gen in (spinner(), owner(), burst()):
        sim.process(gen)
    sim.run()
    return done, node.cpus.n_grants


def test_an_unparked_spin_takes_its_boundary_in_unpark_order(monkeypatch):
    """The same rule away from the boundary: the slice's end goes on the
    schedule when the spin is un-parked (2.5), so an entry set for that
    instant in between (the owner's timer, at 2.25) comes first — the
    spin sees its event at 3.0.  Slice by slice the end was scheduled at
    2.0 and comes before the timer: one more slice, behind the burst."""
    assert _unpark_order_scenario() == ({"spin": 3.0, "burst": 3.5}, 3 + 1)
    monkeypatch.setattr(Node, "spin_cpu", reference_spin)
    assert _unpark_order_scenario() == ({"burst": 3.5, "spin": 4.5}, 3 + 1 + 1)


# ------------------------------------------------------- spins in step
def _in_step_scenario():
    """Two spinners on two CPUs, slices of 1.0: A from t = 0, B from
    t = 0.5.  A comm burst queues at 2.75, gets A's CPU at 3.0 and keeps
    it until 4.5 — the very instant A's next slice (granted at 3.5, off
    B's release) ends.  The burst's end entry is the older one, so B gets
    the burst's CPU first (a slice to 5.5) and then A re-arms, also to
    5.5: from here the two share every boundary, B ahead of A.  A second
    burst (7.25 to 8.0, cutting in at 7.5) splits them again — whoever
    is ahead at 7.5 re-queues first and comes back at 7.5, the other at
    8.0 — and A's event, triggered at 8.75, tells which: A is done at
    9.0 only if B was still ahead."""
    sim = Simulator()
    node = _node(sim, 2)
    node.speed_factor = 1.0
    until = {"A": sim.event(), "B": sim.event()}
    done = {}

    def spinner(who, start):
        yield sim.timeout(start)
        yield from node.spin_cpu(1.0, until[who])
        done[who] = sim.now

    def comm():
        yield sim.timeout(2.75)
        yield from node.busy_cpu(1.5, priority=-1)
        done["burst 1"] = sim.now
        yield sim.timeout(7.25 - 4.5)
        yield from node.busy_cpu(0.5, priority=-1)
        done["burst 2"] = sim.now

    def manager():
        yield sim.timeout(8.75)
        until["A"].succeed()
        yield sim.timeout(3.0)
        until["B"].succeed()

    sim.process(spinner("A", 0.0))
    sim.process(spinner("B", 0.5))
    sim.process(comm())
    sim.process(manager())
    sim.run()
    return done, node.cpus.n_grants, sim.events_processed


def test_spins_in_step_keep_their_order(monkeypatch):
    """Spins that share their slice boundaries take them in the order
    their slices were granted, for as long as they stay in step — slice
    by slice through sequence numbers.  A spin therefore does not park
    into step with one that is on the schedule
    (``Resource._in_step``); they park together, in that order, at the
    first boundary they share."""
    done, grants, n_events = _in_step_scenario()
    assert done == {"burst 1": 4.5, "burst 2": 8.0, "A": 9.0, "B": 12.5}
    monkeypatch.setattr(Node, "spin_cpu", reference_spin)
    assert _in_step_scenario()[:2] == (done, grants)
    assert n_events < _in_step_scenario()[2]


# ------------------------------------------------------- real runs
def _app_run(app, nodes, plan):
    from repro.bench.figures import registered_programs
    from repro.chaos.plan import plan_by_name
    from repro.runtime import ParadeRuntime
    from conftest import sync_loops

    kwargs = dict(n_nodes=nodes, mode="sdsm", chaos_seed=0,
                  fault_plan=plan_by_name(plan) if plan else None)
    if app == "sync":  # the Fig 6/7 loops: nothing but lock waits
        rt = ParadeRuntime(pool_bytes=1 << 20, **kwargs)
        res = rt.run(sync_loops(8))
    else:
        entry = registered_programs()[app]
        rt = ParadeRuntime(pool_bytes=entry["pool_bytes"], **kwargs)
        res = rt.run(entry["factory"]())
    return ({"virtual_s": res.elapsed, "dsm": res.dsm_stats, "value": repr(res.value),
             "msgs": res.cluster_stats["total_messages"]},
            res.cluster_stats["events_processed"])


@pytest.mark.parametrize("app,nodes,plan", [
    ("cg", 3, "reorder"),  # the run that caught spins falling into step
    ("cg", 3, "lossy-mix"),
    ("cg", 2, "slow-node"),  # speed edges un-park
    ("sync", 8, "lossy-mix"),
    ("sync", 4, "latency-spike"),
    ("sync", 3, None),
    ("helmholtz", 4, "comm-stall"),
    ("helmholtz", 3, "corrupt"),
    ("md", 4, "reorder"),
    ("md", 3, "flap"),
])
def test_sdsm_runs_under_faults_match_the_oracles(monkeypatch, app, nodes, plan):
    """Protocol costs are round numbers of microseconds, so under
    ``mode="sdsm"`` entries meet slice boundaries at exactly one instant
    all the time — and the runs are still the slice-by-slice runs, to
    the last bit of every virtual time, count and value, with every
    burst three events by hand as well.  (A sample of the 128-run sweep
    of docs/PERFORMANCE.md, "Kernel-resident bursts".)"""
    from repro.sim import Resource
    from conftest import reference_execute

    parked, n_events = _app_run(app, nodes, plan)
    monkeypatch.setattr(Node, "spin_cpu", reference_spin)
    sliced, n_sliced = _app_run(app, nodes, plan)
    assert parked == sliced and n_events < n_sliced
    monkeypatch.setattr(Resource, "execute", reference_execute)
    by_hand, n_by_hand = _app_run(app, nodes, plan)
    assert parked == by_hand and n_sliced < n_by_hand
