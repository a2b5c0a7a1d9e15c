"""The kernel-resident burst (:class:`repro.sim.resources.Hold`) against
its oracle.

A timed resource occupancy is one ``Hold`` — the process is resumed
once, at the end — and the contract is that nobody can tell it from the
process doing it by hand (``yield request; yield Timeout; release``, two
resumes): same events, same order, same times, and for a profiler the
same wait → busy → done phase intervals.  Seeded random programs check
it against the request/timeout/release sequence spelled out here
(schedule) and against ``conftest.reference_execute`` — the generator
``Resource.execute`` used to be for observed runs, monkeypatched in
(schedule + profiler intervals) — and two app-level runs check it end to
end.  The last section pins what a burst owes the phase stack when its
process stops waiting.
"""

from __future__ import annotations

import random

import pytest

from repro.profile import Profiler
from repro.sim import Interrupted, Resource, Simulator
from repro.sim.probe import PH_COMPUTE, PH_CPU_WAIT, PH_LOCK_WAIT, bracket
from repro.trace import DEFAULT_CATEGORIES, TraceRecorder
from conftest import reference_execute

DURATIONS = (0.0, 1e-6, 1e-6, 2e-6, 5e-6)  # zero-length bursts and ties
PRIORITIES = (0, 0, -1, 1)  # -1 is the comm thread's


def _make_program(seed: int):
    """Per-process op lists over two resources (capacity 1 and 2) and
    five events that spinners busy-wait on: three triggered late by a
    dedicated process (long slice chains), two triggered from inside the
    random scripts (short chains, or none when the trigger came first)."""
    rng = random.Random(seed)
    n_events = 5
    scripts = []
    for _ in range(6):
        ops = []
        for _ in range(rng.randint(4, 10)):
            r = rng.random()
            if r < 0.6:
                ops.append(("burst", rng.randrange(2), rng.choice(DURATIONS),
                            rng.choice(PRIORITIES)))
            elif r < 0.8:
                ops.append(("sleep", rng.choice(DURATIONS)))
            else:
                ops.append(("trigger", rng.randrange(3, n_events)))
        scripts.append(ops)
    for ev in range(n_events):
        scripts.append([("sleep", rng.choice(DURATIONS)),
                        ("spin", rng.randrange(2), rng.choice(DURATIONS[1:]), ev)])
        # slices collide with the bursts above; the late trigger also
        # guarantees that no spinner runs forever
        scripts.append([("sleep", 15e-6 + ev * 7e-6), ("trigger", ev)])
    return scripts, n_events


def _observe(sim):
    """A profiler (phase intervals) and a recorder (exact event count,
    queue depth every 64th event)."""
    return Profiler(sim), TraceRecorder(sim)


def _run(seed: int, path: str):
    """*path*: ``explicit`` (by hand, detached), ``hold`` (``execute``
    detached), ``observed`` (``execute``, profiler + recorder attached);
    the caller patches ``execute`` for the oracle run."""
    sim = Simulator()
    prof, rec = _observe(sim) if path == "observed" else (None, None)
    resources = [Resource(sim, capacity=1, name="r1"), Resource(sim, capacity=2, name="r2")]
    scripts, n_events = _make_program(seed)
    events = [sim.event() for _ in range(n_events)]
    wakeups = {i: [] for i in range(len(scripts))}
    finished = []

    def burst(res, duration, priority):
        if path == "explicit":
            req = res.request(priority)
            yield req
            yield sim.timeout(duration)
            res.release(req)
        else:
            yield from res.execute(duration, priority, PH_CPU_WAIT, PH_COMPUTE)

    def spin(res, slice_s, ev):
        if path == "explicit":
            while not ev.triggered:
                yield from burst(res, slice_s, 0)
        elif not ev.triggered:
            # a raw burst chain: busy time goes to the enclosing phase
            yield from bracket(sim, PH_LOCK_WAIT, res.execute(
                slice_s, 0, PH_CPU_WAIT,
                again=lambda: None if ev.triggered else slice_s,
            ))
        yield ev

    def proc(i, ops):
        for op in ops:
            if op[0] == "burst":
                yield from burst(resources[op[1]], op[2], op[3])
            elif op[0] == "sleep":
                yield sim.timeout(op[1])
            elif op[0] == "spin":
                yield from spin(resources[op[1]], op[2], events[op[3]])
            elif not events[op[1]].triggered:
                events[op[1]].succeed()
            wakeups[i].append(sim.now)
        finished.append(i)

    for i, ops in enumerate(scripts):
        sim.process(proc(i, ops), label=f"p{i}")
    sim.run()
    assert len(finished) == len(scripts)
    schedule = {
        "events": sim.events_processed,
        "now": sim.now,
        "wakeups": wakeups,
        "finished": finished,
        "busy": [r.total_busy_time for r in resources],
        "grants": [r.n_grants for r in resources],
        "idle": [(r.count, r.queue_length) for r in resources],
    }
    if prof is None:
        return schedule
    prof.finalize()
    assert prof.max_sum_error() < 1e-12
    return schedule, {
        "intervals": prof.intervals,
        "ledgers": prof.ledgers(),
        "queue_depths": [(ev.ts, ev.args) for ev in rec.events],
    }


@pytest.mark.parametrize("seed", range(20))
def test_burst_paths_produce_the_same_schedule(monkeypatch, seed):
    explicit = _run(seed, "explicit")
    assert explicit["idle"] == [(0, 0), (0, 0)]
    assert _run(seed, "hold") == explicit
    schedule, phases = _run(seed, "observed")
    assert schedule == explicit
    assert {"cpu-wait", "compute", "lock-wait"} <= {iv[3] for iv in phases["intervals"]}
    monkeypatch.setattr(Resource, "execute", reference_execute)
    assert _run(seed, "observed") == (explicit, phases)


def test_programs_exercise_contention_ties_and_spinning():
    """The generator above is only a fair witness if its programs queue,
    tie and spin; guard against it degenerating."""
    r = _run(0, "hold")
    n_bursts = sum(op[0] == "burst" for ops in _make_program(0)[0] for op in ops)
    assert sum(r["grants"]) > n_bursts + 10  # spinners took many slices
    times = [t for w in r["wakeups"].values() for t in w]
    assert len(set(times)) < len(times)  # same-instant wake-ups


# ------------------------------------------------------------ app level
def _fingerprint(rt, res):
    import hashlib

    v = res.value
    blob = repr(v if isinstance(v, float) else (float(v.zeta).hex(), float(v.rnorm).hex()))
    return {
        "events": res.cluster_stats["events_processed"],
        "virtual_s": res.elapsed,
        "msgs": res.cluster_stats["total_messages"],
        "dsm": res.dsm_stats,
        "digest": hashlib.sha256(blob.encode()).hexdigest(),
    }


def _outcome(rt, res, observers):
    """The fingerprint and, for a traced run, everything the profiler
    and the recorder (default categories) saw."""
    fp = _fingerprint(rt, res)
    if observers is None:
        return fp
    prof, rec = observers
    prof.finalize()
    assert rec.n_dropped == 0 and prof.max_sum_error() < 1e-9
    return fp, {
        "intervals": prof.intervals,
        "ledgers": prof.ledgers(),
        "trace": [(ev.ts, ev.dur, ev.cat, ev.name, ev.node, ev.tid, ev.args, ev.ph)
                  for ev in rec.events],
    }


def _sync_sdsm(traced: bool):
    """The Fig 6/7 critical + single loops under the KDSM baseline: the
    busy-wait lock client is a hold chain."""
    from repro.mpi.ops import SUM
    from repro.runtime import ParadeRuntime

    rt = ParadeRuntime(n_nodes=4, mode="sdsm", pool_bytes=1 << 20)
    observers = _observe(rt.sim) if traced else None

    def program(ctx):
        x = ctx.shared_scalar("x")
        v = ctx.shared_scalar("v")

        def critical_loop(tc, x):
            for _ in range(4):
                yield from tc.critical_update(x, 1.0, SUM)

        def single_loop(tc, v):
            for i in range(4):
                def init(i=i):
                    return float(i)
                    yield

                yield from tc.single(body_gen_fn=init, shared_scalar=v)

        yield from ctx.parallel(critical_loop, x)
        total = yield from ctx.scalar(x).get()
        yield from ctx.parallel(single_loop, v)
        return float(total)

    res = rt.run(program)
    assert res.value == 4.0 * rt.n_threads
    assert res.dsm_stats["lock_acquires"] > 0
    return _outcome(rt, res, observers)


def _cg_class_t(traced: bool):
    from repro.apps import cg
    from repro.runtime import ParadeRuntime

    rt = ParadeRuntime(n_nodes=4, pool_bytes=1 << 23)
    observers = _observe(rt.sim) if traced else None
    return _outcome(rt, rt.run(cg.make_program("T", niter=1)), observers)


@pytest.mark.parametrize("app", [_sync_sdsm, _cg_class_t], ids=["sync-sdsm", "cg-T"])
def test_apps_are_identical_detached_and_traced(monkeypatch, app):
    """Detached, observed, and observed with every burst run by the
    oracle: one schedule; the two observed runs also one profile and one
    default-category trace."""
    detached = app(traced=False)
    fingerprint, seen = app(traced=True)
    assert fingerprint == detached
    assert {ev[2] for ev in seen["trace"]} <= DEFAULT_CATEGORIES
    monkeypatch.setattr(Resource, "execute", reference_execute)
    assert app(traced=True) == (detached, seen)


# ------------------------------------------- a burst that stops waiting
def _abandon(how: str, when: str):
    """Victim V opens phase ``outer`` and starts a 5 us burst on a
    one-unit resource that holder H has until t = 10 us; actor A, inside
    its own phase ``actor``, interrupts V or closes V's generator while
    V's hold is *when*: ``queued`` (t = 2 us), ``granted`` (H has just
    released — A wakes off H's termination, an urgent event ahead of the
    grant marker) or ``busy`` (t = 12 us).  W bursts afterwards."""
    sim = Simulator()
    prof = Profiler(sim)
    res = Resource(sim, capacity=1, name="r")
    seen = {}

    def stack_of(tid):
        return list(prof.threads[tid].stack)

    def holder():
        yield from res.execute(10e-6, 0, PH_CPU_WAIT, PH_COMPUTE)

    def victim():
        yield sim.timeout(1e-6)
        sim.probe.push("outer")  # never popped: only the hold's facts move V's stack
        try:
            yield from res.execute(5e-6, 0, PH_CPU_WAIT, PH_COMPUTE)
        except Interrupted:
            seen["caught"] = sim.now
        yield sim.timeout(3e-6)

    def actor(h, v, v_gen):
        sim.probe.push("actor")
        if when == "granted":
            yield h
        else:
            yield sim.timeout({"queued": 2e-6, "busy": 12e-6}[when])
        (user,) = res.users  # V's hold once granted, H's while V queues
        seen["before"] = (stack_of("V"), res.count, res.queue_length, user.granted_at)
        if how == "interrupt":
            v.interrupt("stop")
        else:
            v_gen.close()
            seen["after-close"] = (stack_of("V"), stack_of("A"))
        yield sim.timeout(1e-6)
        seen["after"] = (stack_of("V"), stack_of("A"), res.count, res.queue_length)

    def late():
        yield sim.timeout(20e-6)
        yield from res.execute(1e-6, 0, PH_CPU_WAIT, PH_COMPUTE)
        seen["late"] = sim.now

    h = sim.process(holder(), label="H")
    v_gen = victim()
    v = sim.process(v_gen, label="V")
    sim.process(actor(h, v, v_gen), label="A")
    sim.process(late(), label="W")
    sim.run()
    prof.finalize()
    return sim, prof, res, seen


@pytest.mark.parametrize("when", ["queued", "granted", "busy"])
@pytest.mark.parametrize("how", ["interrupt", "close"])
def test_abandoned_burst_leaves_the_phase_stack_as_it_found_it(how, when):
    sim, prof, res, seen = _abandon(how, when)
    waiting = {"queued": ("cpu-wait", False), "granted": ("cpu-wait", False),
               "busy": ("compute", True)}[when]
    v_stack, count, queued, granted_at = seen["before"]
    assert v_stack == [("outer", False), waiting]
    if when == "queued":
        assert (count, queued, granted_at) == (1, 1, 0.0)  # H's unit, V waits
    else:
        assert (count, queued, granted_at) == (1, 0, 10e-6)  # V holds it
    # popped exactly once, from V's stack, whoever was running; unit back
    assert seen["after"] == (
        [("outer", False)], [("actor", False)], 1 if when == "queued" else 0, 0)
    if how == "close":
        assert seen["after-close"] == ([("outer", False)], [("actor", False)])
    else:
        assert seen["caught"] == {"queued": 2e-6, "granted": 10e-6, "busy": 12e-6}[when]
    # the unit is usable afterwards and nothing is left behind
    assert seen["late"] == 20e-6 + 1e-6
    assert (res.count, res.queue_length) == (0, 0)
    # every thread's phase times still sum to its lifetime (--check)
    assert prof.max_sum_error() < 1e-12
    busy_until = {"queued": 10e-6, "granted": 10e-6, "busy": 12e-6}[when]
    assert res.total_busy_time == pytest.approx(busy_until + 1e-6, abs=1e-15)
