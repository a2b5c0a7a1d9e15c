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

The second half of the file is the lock path on a node with two
application threads: a flush that closes a page over a sibling's write, a
write before ``set_lock`` that the release never publishes, and a
sibling's release of another lock that takes the notice with it.
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


# ---------------------------------------------------------------------------
# Two application threads per node on the lock path: one page, everybody
# reads it, barrier, then the writes below.  All three programs are
# data-race-free, all three computed wrong values with the sanitizer silent.
# ---------------------------------------------------------------------------
ONE_PAGE = 480  # doubles


def _a_flush_closes_a_page_over_a_siblings_write(delay_units):
    """On each node thread 0 writes its part of ``p`` and takes a lock
    (the acquire flushes); its sibling computes for *delay_units* and does
    the same on another part of the same page — for the right delays,
    after thread 0's flush took the diff and before its acks are in."""
    def program(ctx):
        p = ctx.shared_array("p", (ONE_PAGE,))

        def body(tc, p):
            pv = tc.array(p)
            yield from pv.get()
            yield from tc.barrier()
            lo = 100 * tc.node_id
            if tc.local_tid == 1:
                yield from tc.compute(delay_units)
                lo += 240
            w = yield from pv.writable(lo, lo + 100)
            w += 1
            yield from tc.set_lock("L")
            yield from tc.unset_lock("L")
            yield from tc.barrier()
            return float((yield from pv.get()).sum())

        return (yield from ctx.parallel(body, p))

    return program


@pytest.mark.parametrize("mode", ["parade", "sdsm"])
def test_a_write_made_while_a_flush_waits_for_its_acks_is_not_closed_over(mode):
    """``_flush`` took the diff, the sibling wrote the still-DIRTY page
    while the acks were out, ``_close_interval`` then dropped the twin:
    300.0 at 37 of these 200 delays (first at k = 94 parade / 128 sdsm).
    A flushed page is closed only if it still equals its twin."""
    for k in range(0, 400, 2):
        rt = ParadeRuntime(n_nodes=2, mode=mode, pool_bytes=1 << 20, sanitize=True)
        res = rt.run(_a_flush_closes_a_page_over_a_siblings_write(50.0 * k))
        assert res.value == [400.0] * 2, k
        assert rt.sanitizer.ok


def _read_p_under(tc, pv, ov, lock):
    """Take *lock*, sum ``p`` and hand the sum back through ``out[0]``,
    written under the same lock (``res.value`` carries node 0's threads
    only, and the readers below run on other nodes)."""
    yield from tc.set_lock(lock)
    seen = float((yield from pv.get()).sum())
    o = yield from ov.writable(0, 1)
    o[0] = seen
    yield from tc.unset_lock(lock)


def _reader_under_lb(sibling_delay_units):
    """Node 1 writes ``p[0:100] += 1`` and node 2, much later, takes
    ``LB`` and sums ``p``.

    *sibling_delay_units* ``None``: node 1 writes **before** ``set_lock``,
    so the acquire's flush ships the diff and the release finds nothing
    dirty.  Otherwise node 1's thread 1 writes **inside** ``LB`` and
    holds it for a while, and thread 0 takes and drops another lock,
    ``LA``, after that delay: its flush closes the page first."""
    def program(ctx):
        p = ctx.shared_array("p", (ONE_PAGE,))
        out = ctx.shared_array("out", (ONE_PAGE,))

        def write_p(tc, pv):
            w = yield from pv.writable(0, 100)
            w += 1

        def body(tc, p, out):
            pv, ov = tc.array(p), tc.array(out)
            yield from pv.get()
            yield from tc.barrier()
            who = (tc.node_id, tc.local_tid)
            if sibling_delay_units is None:
                if who == (1, 0):
                    yield from write_p(tc, pv)
                    yield from tc.set_lock("LB")
                    yield from tc.unset_lock("LB")
            elif who == (1, 1):
                yield from tc.set_lock("LB")
                yield from write_p(tc, pv)
                yield from tc.compute(20000.0)
                yield from tc.unset_lock("LB")
            elif who == (1, 0):
                yield from tc.compute(sibling_delay_units)
                yield from tc.set_lock("LA")
                yield from tc.unset_lock("LA")
            if who == (2, 0):
                yield from tc.compute(200000.0)
                yield from _read_p_under(tc, pv, ov, "LB")
            yield from tc.barrier()
            return float((yield from ov.get())[0])

        return (yield from ctx.parallel(body, p, out))

    return program


@pytest.mark.parametrize("mode", ["parade", "sdsm"])
def test_a_write_made_before_set_lock_is_published_by_the_release(mode):
    """The acquire's flush put its notices into the barrier's list only;
    the release then found nothing dirty and handed the manager an empty
    list: the next holder of the lock read 0.0."""
    rt = ParadeRuntime(n_nodes=3, mode=mode, pool_bytes=1 << 20, sanitize=True)
    res = rt.run(_reader_under_lb(None))
    assert res.value == [100.0] * 2
    assert rt.sanitizer.ok


@pytest.mark.parametrize("mode", ["parade", "sdsm"])
def test_a_siblings_release_of_another_lock_does_not_take_the_notice_with_it(mode):
    """A release published only the pages dirty at that instant; a
    sibling's flush for another lock had closed the page first: 0.0.
    Every interval this node closes reaches each lock it releases."""
    for delay_units in range(1000, 10001, 1000):
        rt = ParadeRuntime(n_nodes=3, mode=mode, pool_bytes=1 << 20, sanitize=True)
        res = rt.run(_reader_under_lb(float(delay_units)))
        assert res.value == [100.0] * 2, delay_units
        assert rt.sanitizer.ok


def _a_release_while_a_siblings_diff_is_in_flight(hold_units):
    """Node 1's thread 1 takes ``LB`` (before a barrier, so node 2 queues
    behind it for certain), writes the whole of ``p`` and holds the lock
    for *hold_units*; thread 0 takes ``LA`` meanwhile, so its
    acquire-time flush ships the page.  For the right holds thread 1's
    release starts its own flush while that diff is still on the wire —
    and finds the page equal to its refreshed twin.  Node 2 reads ``p``
    under ``LB``."""
    def program(ctx):
        p = ctx.shared_array("p", (ONE_PAGE,))
        out = ctx.shared_array("out", (ONE_PAGE,))

        def body(tc, p, out):
            pv, ov = tc.array(p), tc.array(out)
            yield from pv.get()
            yield from tc.barrier()
            who = (tc.node_id, tc.local_tid)
            if who == (1, 1):
                yield from tc.set_lock("LB")
            yield from tc.barrier()
            if who == (1, 1):
                w = yield from pv.writable(0, ONE_PAGE)
                w += 1
                yield from tc.compute(hold_units)
                yield from tc.unset_lock("LB")
            elif who == (1, 0):
                yield from tc.compute(3000.0)
                yield from tc.set_lock("LA")
                yield from tc.unset_lock("LA")
            elif who == (2, 0):
                yield from _read_p_under(tc, pv, ov, "LB")
            yield from tc.barrier()
            return float((yield from ov.get())[0])

        return (yield from ctx.parallel(body, p, out))

    return program


@pytest.mark.parametrize("mode", ["parade", "sdsm"])
def test_a_release_does_not_overtake_a_siblings_diff_in_flight(mode):
    """The price of refreshing the twin at diff time: a second flush of
    the same page sees an empty diff while the first one's bytes are
    still in flight, and its notices would reach the next holder before
    the data reaches the home (0.0 at 22 of these holds in parade mode,
    21 under sdsm, with the refresh alone).  No flush returns while
    another of the same node has acks out."""
    for k in range(100):
        rt = ParadeRuntime(n_nodes=3, mode=mode, pool_bytes=1 << 20, sanitize=True)
        res = rt.run(_a_release_while_a_siblings_diff_is_in_flight(3800.0 + 10.0 * k))
        assert res.value == [float(ONE_PAGE)] * 2, k
        assert rt.sanitizer.ok


@pytest.mark.parametrize("mode", ["parade", "sdsm"])
def test_causality_through_two_different_locks(mode):
    """Node 1 writes ``p`` under ``L1``; node 2 takes and drops ``L1``,
    then ``L2``; node 3, much later, takes ``L2`` and reads ``p``.  The
    write happens-before the read (release L1 -> acquire L1 -> release
    L2 -> acquire L2), so node 3 must see it.  It read 0.0 while a grant
    carried only the notices released to that lock (ROADMAP item 2); a
    release now hands on every interval its node knows, learned through
    any lock, that the lock's vector does not cover."""
    def program(ctx):
        p = ctx.shared_array("p", (ONE_PAGE,))
        out = ctx.shared_array("out", (ONE_PAGE,))

        def body(tc, p, out):
            pv, ov = tc.array(p), tc.array(out)
            yield from pv.get()
            yield from tc.barrier()
            who = (tc.node_id, tc.local_tid)
            if who == (1, 0):
                yield from tc.set_lock("L1")
                w = yield from pv.writable(0, 100)
                w += 1
                yield from tc.unset_lock("L1")
            elif who == (2, 0):
                yield from tc.compute(100000.0)
                yield from tc.set_lock("L1")
                yield from tc.unset_lock("L1")
                yield from tc.set_lock("L2")
                yield from tc.unset_lock("L2")
            elif who == (3, 0):
                yield from tc.compute(300000.0)
                yield from _read_p_under(tc, pv, ov, "L2")
            yield from tc.barrier()
            return float((yield from ov.get())[0])

        return (yield from ctx.parallel(body, p, out))

    rt = ParadeRuntime(n_nodes=4, mode=mode, pool_bytes=1 << 20, sanitize=True)
    assert rt.run(program).value == [100.0] * 2
