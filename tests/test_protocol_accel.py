"""Protocol accelerator: write-notice edge cases, batching, update push,
and flags-on/off value identity.

The accelerator (docs/PERFORMANCE.md "Protocol optimizations") changes
*virtual* time and message counts, never computed values — every A/B test
here pins values bit-identical while asserting the protocol counters
moved the way the mechanism promises.
"""

import numpy as np

from repro.dsm import SharedArray
from repro.dsm.config import PARADE_DSM
from repro.dsm.writenotice import WriteNotice, dedupe_notices, merge_notice_bytes
from repro.runtime import ParadeRuntime
from repro.testing import build_dsm, run_all


# ----------------------------------------------------- notice units
def test_dedupe_suppresses_duplicate_page_writer_pairs():
    # one notice per lock interval -> only the first (page, writer) ships
    ns = [
        WriteNotice(page=3, writer=1, interval=0),
        WriteNotice(page=3, writer=1, interval=1),   # dup: later interval
        WriteNotice(page=3, writer=2, interval=1),   # distinct writer: kept
        WriteNotice(page=4, writer=1, interval=2),
        WriteNotice(page=3, writer=1, interval=2),   # dup again
    ]
    out = dedupe_notices(ns)
    assert [(wn.page, wn.writer) for wn in out] == [(3, 1), (3, 2), (4, 1)]
    # first occurrence wins, preserving arrival order and intervals
    assert out[0].interval == 0


def test_dedupe_is_per_call_not_global():
    # dedupe happens per barrier arrival; a fresh epoch's notice for the
    # same (page, writer) must not be suppressed by history
    first = dedupe_notices([WriteNotice(1, 1, 0)])
    second = dedupe_notices([WriteNotice(1, 1, 1)])
    assert len(first) == 1 and len(second) == 1


def test_merge_notice_bytes_sums_per_writer():
    per_node = {
        1: [WriteNotice(7, 1, 0, nbytes=100), WriteNotice(7, 1, 0, nbytes=50)],
        2: [WriteNotice(7, 2, 0, nbytes=30), WriteNotice(8, 2, 0, nbytes=8)],
    }
    by_page = merge_notice_bytes(per_node)
    assert by_page == {7: {1: 150, 2: 30}, 8: {2: 8}}


def test_notices_not_coalesced_across_barrier_epochs():
    """A page re-written in a later epoch must re-invalidate the reader:
    duplicate suppression is scoped to one barrier arrival, never across
    epochs."""
    cluster, _cts, dsm = build_dsm(2)
    arr = SharedArray.allocate(dsm, "x", (8,))
    seen = []

    def n0():
        for epoch in range(3):
            yield from arr.on(0).set_scalar(0, float(epoch))
            yield from dsm.node(0).barrier()
            yield from dsm.node(0).barrier()

    def n1():
        for _ in range(3):
            yield from dsm.node(1).barrier()
            v = yield from arr.on(1).get_scalar(0)
            seen.append(float(v))
            yield from dsm.node(1).barrier()

    run_all(cluster, [n0(), n1()])
    assert seen == [0.0, 1.0, 2.0]
    # epoch 0 installs the first copy; epochs 1 and 2 each invalidate it
    assert dsm.node(1).stats.invalidations == 2
    assert dsm.node(1).stats.pages_fetched == 3


# ----------------------------------------------------------- batching
def _three_page_flush(cfg):
    """Node 1 dirties three pages; the barrier flushes all diffs home."""
    cluster, _cts, dsm = build_dsm(2, dsm_config=cfg)
    page_f64 = cluster.config.page_size // 8
    arr = SharedArray.allocate(dsm, "x", (3 * page_f64,))
    got = []

    def n0():
        yield from dsm.node(0).barrier()
        yield from dsm.node(0).barrier()
        for p in range(3):
            v = yield from arr.on(0).get_scalar(p * page_f64)
            got.append(float(v))

    def n1():
        for p in range(3):
            # two writes per page: two exact runs, one small diff per page
            yield from arr.on(1).set_scalar(p * page_f64, 1.0 + p)
            yield from arr.on(1).set_scalar(p * page_f64 + 2, 2.0 + p)
        yield from dsm.node(1).barrier()
        yield from dsm.node(1).barrier()

    run_all(cluster, [n0(), n1()])
    return got, dsm


def test_batching_matches_unbatched():
    got_a, dsm_a = _three_page_flush(PARADE_DSM)
    got_b, dsm_b = _three_page_flush(PARADE_DSM.replace(batch_notices=True))
    assert got_a == got_b == [1.0, 2.0, 3.0]
    # per-page diff accounting is batching-invariant ...
    assert dsm_b.node(1).stats.diffs_sent == dsm_a.node(1).stats.diffs_sent == 3
    assert dsm_b.node(1).stats.diff_bytes == dsm_a.node(1).stats.diff_bytes
    # ... but the three sub-512B diffs coalesced into one dbat frame
    assert dsm_a.node(1).stats.notices_batched == 0
    assert dsm_b.node(1).stats.notices_batched == 3


def test_batching_skips_diffs_over_size_ceiling():
    """A whole-page diff exceeds the batching ceiling and keeps its own frame."""
    cfg = PARADE_DSM.replace(batch_notices=True)
    cluster, _cts, dsm = build_dsm(2, dsm_config=cfg)
    page_f64 = cluster.config.page_size // 8
    arr = SharedArray.allocate(dsm, "x", (2 * page_f64,))

    def n0():
        yield from dsm.node(0).barrier()

    def n1():
        # page 0: small diff (joins the batch); page 1: full-page rewrite
        yield from arr.on(1).set_scalar(0, 1.0)
        yield from arr.on(1).set(np.arange(float(page_f64)), start=page_f64)
        yield from dsm.node(1).barrier()

    run_all(cluster, [n0(), n1()])
    assert dsm.node(1).stats.diffs_sent == 2
    assert dsm.node(1).stats.notices_batched == 1


# ------------------------------------------------ app-level A/B identity
def _helmholtz_ab(**accel_kw):
    base = ParadeRuntime(n_nodes=4, pool_bytes=1 << 21)
    res_base = base.run(_helm_prog())
    acc = ParadeRuntime(n_nodes=4, pool_bytes=1 << 21, **accel_kw)
    res_acc = acc.run(_helm_prog())
    return res_base, res_acc


def _helm_prog():
    from repro.apps import helmholtz

    return helmholtz.make_program(n=48, m=48, max_iters=4)


def test_accel_values_bit_identical_and_no_slower():
    res_base, res_acc = _helmholtz_ab(protocol_accel=True)
    assert res_acc.value.iterations == res_base.value.iterations
    assert np.array_equal(res_acc.value.u, res_base.value.u)
    assert res_acc.value.error == res_base.value.error
    assert res_acc.elapsed <= res_base.elapsed
    # flags-off runs never touch the accelerator counters
    for key in ("notices_batched", "updates_pushed", "updates_installed"):
        assert res_base.dsm_stats.get(key, 0) == 0
    # the accelerated run exercised the push pipeline, and installs
    # cannot exceed pushes (the gap is staleness drops)
    assert res_acc.dsm_stats["updates_pushed"] > 0
    assert 0 < res_acc.dsm_stats["updates_installed"] <= res_acc.dsm_stats[
        "updates_pushed"
    ]
    assert (
        res_acc.cluster_stats["total_messages"]
        < res_base.cluster_stats["total_messages"]
    )


def test_accel_flag_matrix_each_mechanism_value_safe():
    """Every on/off combination of the two mechanisms finishes, and the
    three with something on reproduce the values of the fourth (the paper
    configuration) exactly: on the stencil, and on CG class S at 3 and 4
    nodes — irregular gathers over many pages, the inputs a since-deleted
    single-flag point deadlocked on."""
    from repro.apps import cg, helmholtz
    from repro.fleet.spec import value_digest

    def run(make_program, n_nodes, **flags):
        rt = ParadeRuntime(
            n_nodes=n_nodes,
            pool_bytes=1 << 23,
            dsm_config=PARADE_DSM.replace(**flags),
        )
        value = rt.run(make_program()).value
        # the digest's repr() elides the middle of a big array: add its bytes
        return value_digest(value), getattr(value, "u", np.empty(0)).tobytes()

    for make_program, n_nodes in (
        (lambda: helmholtz.make_program(n=32, m=32, max_iters=3), 2),
        (lambda: cg.make_program("S", niter=1), 3),
        (lambda: cg.make_program("S", niter=1), 4),
    ):
        ref = run(make_program, n_nodes)  # both off: the paper configuration
        for batch, adaptive in ((True, False), (False, True), (True, True)):
            got = run(make_program, n_nodes,
                      batch_notices=batch, adaptive_migration=adaptive)
            assert got == ref, (n_nodes, batch, adaptive)
