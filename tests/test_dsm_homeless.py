"""Tests for the homeless-LRC ablation protocol (§5.2.2 comparison)."""

import numpy as np
import pytest

from repro.cluster.network import Message
from repro.dsm import SharedArray, PageState
from repro.dsm.config import HOMELESS_LRC, PARADE_DSM
from repro.testing import build_dsm, run_all


def test_all_copies_start_valid():
    _cluster, _cts, dsm = build_dsm(3, dsm_config=HOMELESS_LRC)
    for dn in dsm.nodes:
        assert all(s == PageState.READ_ONLY for s in dn.state)


def test_single_writer_diff_pull():
    cluster, _cts, dsm = build_dsm(2, dsm_config=HOMELESS_LRC)
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
    # the reader pulled a diff, not a full page
    assert dsm.node(1).stats.pages_fetched >= 1
    assert dsm.node(0).stats.fetches_served >= 1
    assert dsm.node(0).stats.diffs_sent == 0  # nothing pushed to a home


def test_multi_epoch_accumulation_applies_in_order():
    """A node that skips several barriers of updates must replay all the
    missing diffs in epoch order."""
    cluster, _cts, dsm = build_dsm(2, dsm_config=HOMELESS_LRC)
    arr = SharedArray.allocate(dsm, "x", (512,))
    got = []

    def writer():
        v = arr.on(0)
        for it in range(3):
            # overlapping writes: later epochs overwrite earlier ones
            yield from v.set(np.full(256, float(it + 1)), start=it * 64)
            yield from dsm.node(0).barrier()
        yield from dsm.node(0).barrier()

    def reader():
        for _ in range(3):
            yield from dsm.node(1).barrier()
        v = yield from arr.on(1).get()
        got.append(np.asarray(v).copy())
        yield from dsm.node(1).barrier()

    run_all(cluster, [writer(), reader()])
    ref = np.zeros(512)
    for it in range(3):
        ref[it * 64 : it * 64 + 256] = it + 1
    assert np.array_equal(got[0], ref)
    # three records accumulated -> three diff pulls at one fault
    assert dsm.node(1).stats.pages_fetched == 3


def test_multi_writer_page_pulls_from_every_writer():
    cluster, _cts, dsm = build_dsm(4, dsm_config=HOMELESS_LRC)
    arr = SharedArray.allocate(dsm, "x", (512,))  # one page
    final = {}

    def worker(nid):
        v = arr.on(nid)
        yield from v.set(np.full(128, float(nid + 1)), start=nid * 128)
        yield from dsm.node(nid).barrier()
        data = yield from v.get()
        final[nid] = np.asarray(data).copy()
        yield from dsm.node(nid).barrier()

    run_all(cluster, [worker(i) for i in range(4)])
    for nid in range(4):
        for w in range(4):
            assert np.all(final[nid][w * 128 : (w + 1) * 128] == w + 1)
    # each reader pulled diffs from the 3 *other* writers
    assert dsm.node(0).stats.pages_fetched == 3
    dsm.check_coherence()


def test_dget_for_an_unlogged_diff_fails_loudly():
    """A writer serves a ``dget`` only for a ``(page, epoch)`` its flush
    logged; a miss is protocol corruption, not "no change"."""
    _cluster, _cts, dsm = build_dsm(2, dsm_config=HOMELESS_LRC)
    msg = Message(src=1, dst=0, nbytes=12, payload=(0, 0, 1), tag=("dsm", "dget", 0))
    with pytest.raises(KeyError):
        next(dsm.node(0).handle_dsm(msg))


def test_homeless_locks_unsupported():
    cluster, _cts, dsm = build_dsm(2, dsm_config=HOMELESS_LRC)

    def worker():
        with pytest.raises(NotImplementedError):
            yield from dsm.node(0).lock_acquire(1)

    run_all(cluster, [worker()])


@pytest.mark.parametrize("accel", ["batch_notices", "adaptive_migration"])
def test_homeless_rejects_the_home_based_accelerators(accel):
    """Both accelerator mechanisms ride on home-based frames; homeless
    used to ignore the flags silently."""
    with pytest.raises(ValueError, match=f"homeless=True .* {accel}=True"):
        HOMELESS_LRC.replace(**{accel: True})
    with pytest.raises(ValueError, match="homeless=True"):
        HOMELESS_LRC.accelerated()
    assert PARADE_DSM.accelerated().replace(homeless=False).batch_notices


def test_homeless_more_control_messages_than_home_based():
    """§5.2.2's claim, measured on a false-sharing pattern."""

    def run(cfg):
        cluster, _cts, dsm = build_dsm(4, dsm_config=cfg)
        arr = SharedArray.allocate(dsm, "x", (512,))

        def worker(nid):
            v = arr.on(nid)
            for it in range(4):
                yield from v.set(np.full(128, float(it + nid + 1)), start=nid * 128)
                yield from dsm.node(nid).barrier()
                yield from v.get()
                yield from dsm.node(nid).barrier()

        run_all(cluster, [worker(i) for i in range(4)])
        return cluster.network.total_messages

    assert run(HOMELESS_LRC) > run(PARADE_DSM)
