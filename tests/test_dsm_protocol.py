"""Integration tests for the DSM protocol: fetch, barrier, home migration,
locks, multi-threaded page states, coherence."""

import numpy as np
import pytest

from repro.dsm import SharedArray, PageState
from repro.apps import cg, helmholtz
from repro.dsm.config import HOMELESS_LRC, PARADE_DSM, KDSM_BASELINE
from repro.runtime import ParadeRuntime
from repro.sim.probe import Subscriber
from conftest import build_dsm, recount, run_all, sync_loops


def test_initial_ownership_master_has_all_pages():
    _cluster, _cts, dsm = build_dsm(4)
    for dn in dsm.nodes:
        assert all(h == 0 for h in dn.home)
        expect = PageState.READ_ONLY if dn.id == 0 else PageState.INVALID
        assert all(s == expect for s in dn.state)


def test_read_fault_fetches_from_master():
    cluster, _cts, dsm = build_dsm(2)
    arr = SharedArray.allocate(dsm, "x", (512,))
    got = []

    def writer():
        yield from arr.on(0).set(np.arange(512.0))
        yield from dsm.node(0).barrier()
        yield from dsm.node(0).barrier()

    def reader():
        yield from dsm.node(1).barrier()
        v = yield from arr.on(1).get()
        got.append(np.asarray(v).copy())
        yield from dsm.node(1).barrier()

    run_all(cluster, [writer(), reader()])
    assert np.array_equal(got[0], np.arange(512.0))
    assert dsm.node(1).stats.pages_fetched == 1
    assert dsm.node(0).stats.fetches_served == 1


def test_write_notice_invalidates_other_copies():
    cluster, _cts, dsm = build_dsm(2)
    arr = SharedArray.allocate(dsm, "x", (8,))

    def n0():
        yield from arr.on(0).set_scalar(0, 1.0)
        yield from dsm.node(0).barrier()   # n1 fetches here
        yield from dsm.node(0).barrier()
        yield from arr.on(0).set_scalar(0, 2.0)
        yield from dsm.node(0).barrier()   # must invalidate n1's copy
        yield from dsm.node(0).barrier()

    seen = []

    def n1():
        yield from dsm.node(1).barrier()
        v1 = yield from arr.on(1).get_scalar(0)
        yield from dsm.node(1).barrier()
        yield from dsm.node(1).barrier()
        v2 = yield from arr.on(1).get_scalar(0)
        seen.append((float(v1), float(v2)))
        yield from dsm.node(1).barrier()

    run_all(cluster, [n0(), n1()])
    assert seen == [(1.0, 2.0)]


def test_home_migration_to_sole_modifier():
    cluster, _cts, dsm = build_dsm(4)
    arr = SharedArray.allocate(dsm, "x", (2048,))  # 4 pages
    page0 = arr.segment.addr // dsm.page_size

    def worker(nid):
        # node nid repeatedly writes its own page
        v = arr.on(nid)
        lo = nid * 512
        yield from v.set(np.full(512, float(nid)), start=lo)
        yield from dsm.node(nid).barrier()
        yield from v.set(np.full(512, float(nid) + 10), start=lo)
        yield from dsm.node(nid).barrier()

    run_all(cluster, [worker(i) for i in range(4)])
    for nid in range(4):
        # after the first barrier each node homes its own page
        assert dsm.node(0).home[page0 + nid] == nid
        assert dsm.node(3).home[page0 + nid] == nid
    assert dsm.stats_home_migrations >= 3


def test_migrated_home_avoids_diff_traffic():
    """After migration, the sole writer is home: steady-state iterations
    send no diffs (the §5.2.2 payoff)."""
    cluster, _cts, dsm = build_dsm(2)
    arr = SharedArray.allocate(dsm, "x", (1024,))

    def worker(nid):
        v = arr.on(nid)
        lo = nid * 512
        for it in range(4):
            yield from v.set(np.full(512, float(it + 1)), start=lo)
            yield from dsm.node(nid).barrier()

    run_all(cluster, [worker(0), worker(1)])
    # node 1 diffs only in iteration 1 (before its page migrated to it)
    assert dsm.node(1).stats.diffs_sent == 1


def test_fixed_home_keeps_diffing_kdsm():
    cluster, _cts, dsm = build_dsm(2, dsm_config=KDSM_BASELINE)
    arr = SharedArray.allocate(dsm, "x", (1024,))

    def worker(nid):
        v = arr.on(nid)
        lo = nid * 512
        for it in range(4):
            yield from v.set(np.full(512, float(it + 1)), start=lo)
            yield from dsm.node(nid).barrier()

    run_all(cluster, [worker(0), worker(1)])
    # with home fixed at node 0, node 1 diffs every iteration
    assert dsm.node(1).stats.diffs_sent == 4
    assert dsm.stats_home_migrations == 0


def test_multiple_writers_home_stays_and_all_converge():
    cluster, _cts, dsm = build_dsm(3)
    arr = SharedArray.allocate(dsm, "x", (512,))  # one page
    page = arr.segment.addr // dsm.page_size
    final = {}

    def worker(nid):
        v = arr.on(nid)
        # disjoint byte ranges of the SAME page, all three nodes write
        yield from v.set(np.full(100, float(nid + 1)), start=nid * 100)
        yield from dsm.node(nid).barrier()
        data = yield from v.get()
        final[nid] = np.asarray(data).copy()
        yield from dsm.node(nid).barrier()

    run_all(cluster, [worker(i) for i in range(3)])
    # multi-writer page: home remains the original (node 0)
    assert dsm.node(0).home[page] == 0
    for nid in range(3):
        for w in range(3):
            assert np.all(final[nid][w * 100 : (w + 1) * 100] == w + 1), (nid, w)
    dsm.check_coherence()


def test_blocked_state_second_thread_waits_for_update():
    """Two threads on one node fault on the same page: the second must see
    TRANSIENT -> BLOCKED and wake with valid data (Figure 5)."""
    cluster, _cts, dsm = build_dsm(2)
    arr = SharedArray.allocate(dsm, "x", (512,))
    states_seen = []
    values = []

    def n0():
        yield from arr.on(0).set(np.full(512, 7.0))
        yield from dsm.node(0).barrier()

    def n1():
        yield from dsm.node(1).barrier()
        p1 = cluster.sim.process(reader_thread())
        p2 = cluster.sim.process(late_thread())
        yield p1
        yield p2

    def reader_thread():
        v = yield from arr.on(1).get()
        values.append(float(np.asarray(v)[0]))

    def late_thread():
        yield cluster.sim.timeout(2e-6)
        page = arr.segment.addr // dsm.page_size
        states_seen.append(dsm.node(1).state[page])
        v = yield from arr.on(1).get()
        values.append(float(np.asarray(v)[0]))

    run_all(cluster, [n0(), n1()])
    assert values == [7.0, 7.0]
    assert states_seen[0] in (PageState.TRANSIENT, PageState.BLOCKED, PageState.READ_ONLY)
    assert dsm.node(1).stats.pages_fetched == 1  # only one fetch despite two readers


def test_lock_mutual_exclusion_and_consistency():
    cluster, _cts, dsm = build_dsm(4)
    counter = SharedArray.allocate(dsm, "c", (1,), dtype=np.int64)

    def worker(nid):
        v = counter.on(nid)
        for _ in range(6):
            yield from dsm.node(nid).lock_acquire(3)
            cur = yield from v.get_scalar(0)
            yield from v.set_scalar(0, cur + 1)
            yield from dsm.node(nid).lock_release(3)
        yield from dsm.node(nid).barrier()

    run_all(cluster, [worker(i) for i in range(4)])
    reads = {}

    def reader(nid):
        v = yield from counter.on(nid).get_scalar(0)
        reads[nid] = int(v)

    run_all(cluster, [reader(i) for i in range(4)])
    assert all(v == 24 for v in reads.values()), reads


def test_kdsm_spin_lock_also_correct():
    cluster, _cts, dsm = build_dsm(2, dsm_config=KDSM_BASELINE, cpus=2)
    counter = SharedArray.allocate(dsm, "c", (1,), dtype=np.int64)

    def worker(nid):
        v = counter.on(nid)
        for _ in range(4):
            yield from dsm.node(nid).lock_acquire(1)
            cur = yield from v.get_scalar(0)
            yield from v.set_scalar(0, cur + 1)
            yield from dsm.node(nid).lock_release(1)
        yield from dsm.node(nid).barrier()

    run_all(cluster, [worker(0), worker(1)])
    reads = []

    def reader():
        v = yield from counter.on(0).get_scalar(0)
        reads.append(int(v))

    run_all(cluster, [reader()])
    assert reads == [8]


def test_lock_grants_are_fifo_per_manager():
    cluster, _cts, dsm = build_dsm(3)
    order = []

    def worker(nid):
        yield cluster.sim.timeout(nid * 1e-5)  # staggered requests
        yield from dsm.node(nid).lock_acquire(0)
        order.append(nid)
        yield from dsm.node(nid).lock_release(0)

    run_all(cluster, [worker(i) for i in range(3)])
    assert order == [0, 1, 2]


def test_object_granularity_pages_never_fault():
    cluster, _cts, dsm = build_dsm(2)
    obj = SharedArray.allocate(dsm, "o", (8,), object_granularity=True)

    def worker(nid):
        v = obj.on(nid)
        yield from v.set_scalar(nid, float(nid))
        got = yield from v.get_scalar(nid)
        assert got == float(nid)

    run_all(cluster, [worker(0), worker(1)])
    assert dsm.node(0).stats.read_faults == 0
    assert dsm.node(1).stats.write_faults == 0
    assert dsm.node(1).stats.pages_fetched == 0


def test_object_segments_take_whole_pages():
    _cluster, _cts, dsm = build_dsm(2)
    a = dsm.alloc(100, name="hlrc1")
    o = dsm.alloc(16, name="obj", object_granularity=True)
    b = dsm.alloc(100, name="hlrc2")
    assert o.addr % dsm.page_size == 0
    assert b.addr >= o.addr + dsm.page_size  # padded to page end


def test_pool_exhaustion_raises():
    _cluster, _cts, dsm = build_dsm(2, pool_bytes=8192)
    with pytest.raises(MemoryError):
        dsm.alloc(100 * 4096, name="huge")


def test_duplicate_segment_name_rejected():
    _cluster, _cts, dsm = build_dsm(2)
    dsm.alloc(64, name="seg")
    with pytest.raises(ValueError):
        dsm.alloc(64, name="seg")


def test_coherence_invariant_after_random_writes():
    """Property-style: random disjoint writers + barriers keep every valid
    copy identical to the home copy."""
    rng = np.random.default_rng(42)
    cluster, _cts, dsm = build_dsm(4)
    arr = SharedArray.allocate(dsm, "x", (4096,))
    plans = [rng.integers(0, 100, size=(3, 2)) for _ in range(4)]

    def worker(nid):
        v = arr.on(nid)
        base = nid * 1024
        for it in range(3):
            off, val = plans[nid][it]
            yield from v.set(np.full(64, float(val)), start=base + int(off) * 9)
            yield from dsm.node(nid).barrier()

    run_all(cluster, [worker(i) for i in range(4)])
    dsm.check_coherence()


# ------------------------------------------------------------- census
class _CensusAudit(Subscriber):
    """Recounts every node's page table each time a node states its
    post-barrier ``counter/page-census`` sample."""

    def __init__(self, rt):
        self.sim = rt.sim
        self.dsm = rt.dsm
        self.samples = 0
        self._handlers = {("counter", "page-census"): self._on_census}
        self.attach()

    def check(self):
        for dn in self.dsm.nodes:
            assert dn.census == recount(dn), (dn.id, dn.census, recount(dn))
            assert sum(dn.census) == dn.n_pages

    def _on_census(self, args, node, *_):
        self.samples += 1
        self.check()
        # the stated sample is that node's maintained count, by state name
        assert list(args) == [st.name for st in PageState]
        assert list(args.values()) == self.dsm.node(node).census


_CENSUS_APPS = {
    "cg": lambda: cg.make_program("T", niter=1),
    "helmholtz": lambda: helmholtz.make_program(n=32, m=32, max_iters=3),
    "sync": sync_loops,
}
_CENSUS_PROTOCOLS = {
    "parade": {"mode": "parade"},
    "sdsm": {"mode": "sdsm"},
    "homeless": {"dsm_config": HOMELESS_LRC},
}


@pytest.mark.parametrize(
    "protocol,n_nodes,hier,accel",
    [
        (p, n, h, a)
        for p in sorted(_CENSUS_PROTOCOLS)
        for n in (2, 4) for h in (False, True) for a in (False, True)
    ]
    + [("parade", 16, True, False)],
)
def test_census_equals_a_recount_at_every_barrier(protocol, n_nodes, hier, accel):
    """The maintained count is the page table's census on every protocol
    path: after each barrier and at run end it equals a fresh recount and
    sums to the pool size."""
    apps = ("helmholtz",) if n_nodes == 16 else sorted(_CENSUS_APPS)
    if protocol == "homeless" and accel:
        # the accelerator is home-based: a configuration error, not a run
        with pytest.raises(ValueError, match="homeless=True does not combine"):
            ParadeRuntime(n_nodes=n_nodes, protocol_accel=True, dsm_config=HOMELESS_LRC)
        return
    for app in apps:
        rt = ParadeRuntime(
            n_nodes=n_nodes, protocol_accel=accel, hierarchical=hier,
            pool_bytes=1 << 20, **_CENSUS_PROTOCOLS[protocol],
        )
        audit = _CensusAudit(rt)
        rt.run(_CENSUS_APPS[app]())
        assert audit.samples == rt.dsm.stats()["barriers"] > 0, app
        audit.check()
