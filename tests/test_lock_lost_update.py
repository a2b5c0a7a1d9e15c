"""A lock grant must not lose the acquirer's own unflushed writes.

ROADMAP item 1's reproducer.  One shared page, four writers (2 nodes x 2
threads), each increments its own quarter and then takes a lock — any
lock — before the barrier.  The grant carries a write notice for that
page (the other node wrote it and released), and applying it used to
``_invalidate`` the acquirer's DIRTY copy: twin popped, dirty bit
discarded, nothing diffed, the writes never reached the home.  At a
barrier the flush precedes the invalidations, so only lock grants hit
it; ``lock_acquire`` now flushes first and the state machine rejects the
DIRTY -> INVALID transition (``test_dsm_units.py``).  Under ``mode="sdsm"`` every reduction,
``single`` and ``critical`` takes this path, which was the whole of the
recorded CG / Helmholtz divergence from the sequential references.
"""

from __future__ import annotations

import pytest

from repro.apps import cg
from repro.dsm.node import DsmNode
from repro.runtime import ParadeRuntime

N = 240  # doubles: one 4 KiB page holds them all


def _writers_then_lock(take_lock):
    def program(ctx):
        p = ctx.shared_array("p", (N,))

        def body(tc, p):
            pv = tc.array(p)
            lo, hi = tc.for_range(0, N)
            w = yield from pv.writable(lo, hi)
            w += 1
            yield from take_lock(tc)
            yield from tc.barrier()
            whole = yield from pv.get()
            return float(whole.sum())

        sums = yield from ctx.parallel(body, p)
        return sums

    return program


def _omp_lock(tc):
    yield from tc.set_lock("L")
    yield from tc.unset_lock("L")


def _critical(tc):
    def nothing():
        return None
        yield

    yield from tc.critical_region(nothing, name="C")


@pytest.mark.parametrize("mode", ["parade", "sdsm"])
@pytest.mark.parametrize("take_lock", [_omp_lock, _critical], ids=["set_lock", "critical_region"])
def test_writes_before_a_lock_survive_the_grant(mode, take_lock):
    rt = ParadeRuntime(n_nodes=2, mode=mode, pool_bytes=1 << 20, sanitize=True)
    assert rt.n_threads == 4
    res = rt.run(_writers_then_lock(take_lock))
    assert res.value == [float(N)] * 2  # was 120.0: half the page lost
    assert rt.sanitizer.ok
    assert res.dsm_stats["lock_acquires"] == 4


def _sibling_writes_during_the_flush(delay_units, where):
    """Two pages, both read by everybody first.  On each node thread 0
    writes its part of ``p`` and takes the lock — *where* = ``"before"``:
    write, lock, unlock (the grant's flush ships the diff); ``"inside"``:
    lock, write, unlock (the release's does) — while its sibling computes
    for *delay_units* and then writes ``q``: for the right delays, while
    thread 0's flush is waiting for the home's ack."""
    def program(ctx):
        p = ctx.shared_array("p", (2 * N,))
        q = ctx.shared_array("q", (2 * N,))

        def body(tc, p, q):
            pv, qv = tc.array(p), tc.array(q)
            yield from pv.get()
            yield from qv.get()
            yield from tc.barrier()
            lo = tc.node_id * 100
            if tc.local_tid == 0:
                if where == "inside":
                    yield from tc.set_lock("L")
                w = yield from pv.writable(lo, lo + 100)
                w += 1
                if where == "before":
                    yield from tc.set_lock("L")
                yield from tc.unset_lock("L")
            else:
                yield from tc.compute(delay_units)
                w = yield from qv.writable(lo, lo + 100)
                w += 1
            yield from tc.barrier()
            return float((yield from pv.get()).sum()), float((yield from qv.get()).sum())

        return (yield from ctx.parallel(body, p, q))

    return program


@pytest.mark.parametrize("mode", ["parade", "sdsm"])
@pytest.mark.parametrize("where", ["before", "inside"])
def test_a_flush_closes_only_the_pages_it_flushed(monkeypatch, mode, where):
    """A page a sibling thread dirties while a lock-path flush waits for
    its acks was not diffed by that flush: closing it with the rest
    (READ_ONLY, twin dropped, no notice) lost the write silently.  It
    stays DIRTY for the next flush.  The sibling's delay is swept across
    the whole lock operation; the spy says the window was hit."""
    left_dirty = []
    close = DsmNode._close_interval

    def spy(self, pages):
        close(self, pages)
        left_dirty.append(len(self.dirty))

    monkeypatch.setattr(DsmNode, "_close_interval", spy)
    for k in range(0, 200, 8):
        rt = ParadeRuntime(n_nodes=2, mode=mode, pool_bytes=1 << 20, sanitize=True)
        res = rt.run(_sibling_writes_during_the_flush(k * 100.0, where))
        assert res.value == [(200.0, 200.0)] * 2, k  # was (200.0, 100.0)
        assert rt.sanitizer.ok
    assert any(left_dirty) and not all(left_dirty)


def test_cg_under_sdsm_on_four_nodes_matches_the_sequential_reference():
    """Class T x 2: every vector is 240 doubles — one page, many writers —
    and every ``r -= ...`` is followed by a lock-based reduction.  (The
    2-node run is ``test_apps.py::test_cg_sdsm_two_nodes_matches_sequential``,
    a strict xfail until this fix.)"""
    a = cg.make_matrix("T")
    seq = cg.cg_reference("T", a=a, niter=2)
    rt = ParadeRuntime(n_nodes=4, mode="sdsm", pool_bytes=1 << 21)
    res = rt.run(cg.make_program("T", a=a, niter=2))
    assert res.value.zeta == pytest.approx(seq.zeta, abs=1e-9)
    assert res.value.rnorm == pytest.approx(seq.rnorm, rel=1e-6, abs=1e-12)
