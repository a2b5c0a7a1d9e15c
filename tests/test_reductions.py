"""The reduction clause: one combine order, and one price, per translation.

OpenMP leaves the combine order of a reduction unspecified, so the
runtime fixes one: thread order.  The conventional translation writes
each thread's partials into its own slot and folds the slots in global
thread order after the barrier; the ParADE translation folds a node's
partials in local-thread order before its ``MPI_Allreduce``.  Neither
result depends on the lock-grant or arrival order, so faults that
reshuffle the schedule cannot change a value.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.bench.figures import registered_programs
from repro.chaos import plan_by_name
from repro.fleet import RunSpec, run_many
from repro.mpi.ops import SUM
from repro.runtime import ParadeRuntime

THREADS_PER_NODE = 3
BIG = 2.0 ** 53
#: by local thread: summed in that order a node's block is exactly 0.0
#: (2**53 + 1.0 rounds to 2**53), summed in reverse it is 1.0
#: (1.0 - 2**53 is exact)
PATTERN = (BIG, 1.0, -BIG)


def _partial(tid: int) -> float:
    return PATTERN[tid % THREADS_PER_NODE]


def _in_thread_order(n_threads, f=_partial):
    return functools.reduce(SUM, [f(t) for t in range(n_threads)])


def _run_reductions(mode, n_nodes, plan):
    rt = ParadeRuntime(
        n_nodes=n_nodes, mode=mode, pool_bytes=1 << 20, sanitize=True,
        fault_plan=None if plan is None else plan_by_name(plan), chaos_seed=3,
    )
    seen = []

    def program(ctx):
        x = ctx.shared_scalar("x")
        y = ctx.shared_scalar("y")
        q = ctx.shared_array("q", (3,))

        def body(tc, x, y, q):
            p = _partial(tc.tid)

            def reversed_arrival():
                # the last local thread arrives first and local thread 0
                # last, at every reduction of every node
                lag = THREADS_PER_NODE - 1 - tc.local_tid
                if lag:
                    yield from tc.compute(lag * 2e4)

            yield from reversed_arrival()
            value = yield from tc.reduce_value(p)
            yield from reversed_arrival()
            into = yield from tc.reduce_into(x, p)
            yield from reversed_arrival()
            yield from tc.reduce_into_many(((y, p), (q, np.array([p, -p, 2 * p]))))
            seen.append((tc.tid, float(value).hex(), float(into).hex()))

        yield from ctx.parallel(body, x, y, q, threads_per_node=THREADS_PER_NODE)
        fy = yield from ctx.scalar(y).get()
        fq = yield from ctx.array(q).get()
        return [float(v).hex() for v in (fy, *fq)]

    res = rt.run(program)
    assert rt.sanitizer.ok, rt.sanitizer.summary()
    return res.value, seen


@pytest.mark.parametrize("plan", [None, "lossy-mix", "reorder"])
@pytest.mark.parametrize("n_nodes", [2, 4])
@pytest.mark.parametrize("mode", ["parade", "sdsm"])
def test_every_reduction_folds_in_thread_order(mode, n_nodes, plan):
    n = n_nodes * THREADS_PER_NODE
    want = _in_thread_order(n).hex()
    many, seen = _run_reductions(mode, n_nodes, plan)
    assert sorted(t for t, _, _ in seen) == list(range(n))
    assert {(v, i) for _, v, i in seen} == {(want, want)}
    assert many == [
        want,
        want,
        _in_thread_order(n, lambda t: -_partial(t)).hex(),
        _in_thread_order(n, lambda t: 2 * _partial(t)).hex(),
    ]


@pytest.mark.parametrize("mode", ["parade", "sdsm"])
def test_reduce_into_many_returns_the_finals_in_pairs_order(mode):
    """Both translations return the clause's finals as one flat float64
    vector, in *pairs* order: the shared values read after the clause."""
    rt = ParadeRuntime(n_nodes=2, mode=mode, pool_bytes=1 << 20)
    seen = []

    def program(ctx):
        y = ctx.shared_scalar("y")
        q = ctx.shared_array("q", (3,))

        def body(tc, y, q):
            p = float(tc.tid + 1)
            got = yield from tc.reduce_into_many(((y, p), (q, np.array([p, -p, 2 * p]))))
            fy = yield from tc.scalar(y).get()
            fq = yield from tc.array(q).get()
            seen.append((got, np.hstack([fy, fq])))

        yield from ctx.parallel(body, y, q, threads_per_node=2)

    rt.run(program)
    assert len(seen) == 4
    for got, read in seen:
        assert got.dtype == np.float64 and got.tobytes() == read.tobytes()
    assert seen[0][0].tolist() == [10.0, 10.0, -10.0, 20.0]


# The conventional clause's price at 4 nodes, registered sizes, 2Thread-2CPU:
# one lock hold per thread per clause and at most 2 barrier epochs (EP's
# one clause: region start + 2 + region end).
_SDSM_COST = {"ep": (4, 8), "cg": (162, 848)}


@pytest.mark.parametrize("app", sorted(_SDSM_COST))
def test_conventional_reduction_costs_one_lock_hold_per_thread(app):
    spec = RunSpec.from_entry(app, registered_programs()[app], n_nodes=4, mode="sdsm")
    (rec,) = run_many([spec], jobs=1).records
    got = (rec["master_stats"]["barriers"], rec["dsm_stats"]["lock_acquires"])
    assert got == _SDSM_COST[app]
