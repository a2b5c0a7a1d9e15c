"""Schedule equivalence of the two burst paths.

A timed resource occupancy runs either as a generator
(``yield request; yield Timeout; release`` — two process resumes) or as
a kernel-resident :class:`repro.sim.resources.Hold` (one resume).  The
contract is that nobody can tell from the schedule: same events, same
order, same times.  Seeded random programs check it three ways — the
explicit generator spelled out here, ``Resource.execute`` detached (the
``Hold`` path), and ``Resource.execute`` with a trace recorder attached
(its own generator path) — and two app-level runs check it end to end.
"""

from __future__ import annotations

import random

import pytest

from repro.sim import Resource, Simulator
from repro.trace import TraceRecorder

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


def _run(seed: int, path: str):
    sim = Simulator()
    if path == "traced":
        TraceRecorder(sim)
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
            yield from res.execute(duration, priority)

    def spin(res, slice_s, ev):
        if path == "explicit":
            while not ev.triggered:
                yield from burst(res, slice_s, 0)
        elif not ev.triggered:
            yield from res.execute(
                slice_s, again=lambda: None if ev.triggered else slice_s
            )
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
    return {
        "events": sim.events_processed,
        "now": sim.now,
        "wakeups": wakeups,
        "finished": finished,
        "busy": [r.total_busy_time for r in resources],
        "grants": [r.n_grants for r in resources],
        "idle": [(r.count, r.queue_length) for r in resources],
    }


@pytest.mark.parametrize("seed", range(20))
def test_burst_paths_produce_the_same_schedule(seed):
    explicit = _run(seed, "explicit")
    assert explicit["idle"] == [(0, 0), (0, 0)]
    assert _run(seed, "hold") == explicit
    assert _run(seed, "traced") == explicit


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


def _sync_sdsm(traced: bool):
    """The Fig 6/7 critical + single loops under the KDSM baseline: the
    busy-wait lock client is what the hold chain replaces."""
    from repro.mpi.ops import SUM
    from repro.runtime import ParadeRuntime

    rt = ParadeRuntime(n_nodes=4, mode="sdsm", pool_bytes=1 << 20)
    if traced:
        TraceRecorder(rt.sim)

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
    return _fingerprint(rt, res)


def _cg_class_t(traced: bool):
    from repro.apps import cg
    from repro.runtime import ParadeRuntime

    rt = ParadeRuntime(n_nodes=4, pool_bytes=1 << 23)
    if traced:
        TraceRecorder(rt.sim)
    res = rt.run(cg.make_program("T", niter=1))
    return _fingerprint(rt, res)


@pytest.mark.parametrize("app", [_sync_sdsm, _cg_class_t], ids=["sync-sdsm", "cg-T"])
def test_apps_are_identical_detached_and_traced(app):
    assert app(traced=False) == app(traced=True)
