"""Satellite coverage: empty-range accessors and fast-path cache
invalidation across page-state transitions."""

import numpy as np

from repro.dsm import PageState, SharedArray
from repro.testing import build_dsm, run_all


def test_empty_range_accessors_take_no_protocol_action():
    """start == stop ranges on a page this node has never fetched must
    not fault, fetch, or dirty anything."""
    cluster, _cts, dsm = build_dsm(2)
    arr = SharedArray.allocate(dsm, "e", (512,))  # home node 0

    def worker():
        v = arr.on(1)  # node 1 holds no copy
        got = yield from v.get(3, 3)
        assert got.size == 0
        w = yield from v.writable(5, 5)
        assert w.size == 0
        yield from v.set(np.empty(0), start=7)

    run_all(cluster, [worker()])
    n1 = dsm.node(1)
    assert n1.stats.pages_fetched == 0
    assert n1.stats.read_faults == 0
    assert n1.stats.write_faults == 0
    assert not n1.dirty
    page0 = arr.segment.addr // dsm.page_size
    assert n1.state[page0] == PageState.INVALID


def test_empty_range_at_array_bounds():
    cluster, _cts, dsm = build_dsm(2)
    arr = SharedArray.allocate(dsm, "e", (16,))

    def worker():
        v = arr.on(0)
        head = yield from v.get(0, 0)
        tail = yield from v.get(16, 16)
        assert head.size == 0 and tail.size == 0
        yield from v.set(np.empty(0), start=16)

    run_all(cluster, [worker()])


def test_fast_path_cache_dropped_on_every_transition():
    """The positive-access cache must die whenever a page changes state:
    write-fault (READ_ONLY->DIRTY), flush (DIRTY->READ_ONLY), invalidate
    (READ_ONLY->INVALID), update-done (TRANSIENT->READ_ONLY)."""
    cluster, _cts, dsm = build_dsm(2)
    arr = SharedArray.allocate(dsm, "f", (512,))
    addr = arr.segment.addr
    page = addr // dsm.page_size
    n0, n1 = dsm.node(0), dsm.node(1)

    def w0():
        v = arr.on(0)
        # home starts READ_ONLY: read cached, write not
        assert n0.try_fast_access(addr, 8, False)
        assert not n0.try_fast_access(addr, 8, True)
        yield from v.set_scalar(0, 1.0)  # write-fault -> DIRTY
        assert n0.state[page] == PageState.DIRTY
        assert n0.try_fast_access(addr, 8, True)
        yield from n0.barrier()  # flush: DIRTY -> READ_ONLY
        assert n0.state[page] == PageState.READ_ONLY
        assert not n0.try_fast_access(addr, 8, True), (
            "stale writable cache survived the flush transition"
        )
        assert n0.try_fast_access(addr, 8, False)
        yield from n0.barrier()  # node 1 writes this epoch
        yield from n0.barrier()  # notice: home migrates to 1, n0 INVALID
        assert n0.state[page] == PageState.INVALID
        assert not n0.try_fast_access(addr, 8, False), (
            "stale readable cache survived the invalidate transition"
        )
        got = yield from v.get_scalar(0)  # fault -> TRANSIENT -> READ_ONLY
        assert float(got) == 2.0
        assert n0.state[page] == PageState.READ_ONLY
        assert n0.try_fast_access(addr, 8, False)
        assert not n0.try_fast_access(addr, 8, True)
        yield from n0.barrier()

    def w1():
        yield from n1.barrier()
        yield from arr.on(1).set_scalar(0, 2.0)
        yield from n1.barrier()
        yield from n1.barrier()
        yield from n1.barrier()

    run_all(cluster, [w0(), w1()])
