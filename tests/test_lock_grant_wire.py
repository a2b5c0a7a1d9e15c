"""Regression: lock grants must not ship the acquirer's own notices.

A node's own write notices carry no information for it (a writer never
invalidates its own copy); the manager filters them at ``_grant`` so the
wire bytes and the grant's ``notices=`` accounting reflect what the
acquirer can act on.  Before the fix they were shipped and discarded at
apply time, so a re-acquiring writer paid wire cost proportional to its
own write history.
"""

from repro.dsm import SharedArray
from repro.dsm.writenotice import WriteNotice
from repro.testing import build_dsm, run_all
from repro.trace import TraceRecorder


def _grant_events(rec):
    grants = [e for e in rec.events if e.cat == "dsm.lock" and e.name == "grant"]
    wires = [
        e for e in rec.events
        if e.cat == "net" and e.name == "msg-send" and "'lk', 'gr'" in e.args["tag"]
    ]
    return grants, wires


def test_own_notices_filtered_at_grant():
    cluster, _cts, dsm = build_dsm(3)
    rec = TraceRecorder(cluster.sim, capacity=1 << 14)
    arr = SharedArray.allocate(dsm, "x", (8,))

    def driver():
        # node 1 (non-home) writes under the lock: its release logs one
        # write notice at the manager (node 0)
        yield from dsm.node(1).lock_acquire(0)
        yield from arr.on(1).set_scalar(0, 1.0)
        yield from dsm.node(1).lock_release(0)
        # node 1 re-acquires: the pending notice is its OWN and must not
        # be shipped back to it
        yield from dsm.node(1).lock_acquire(0)
        yield from dsm.node(1).lock_release(0)
        # node 2 acquires: node 1's notice is news to it
        yield from dsm.node(2).lock_acquire(0)
        yield from dsm.node(2).lock_release(0)

    run_all(cluster, [driver()])
    grants, wires = _grant_events(rec)
    assert [g.args["requester"] for g in grants] == [1, 1, 2]
    assert [g.args["notices"] for g in grants] == [0, 0, 1]


def test_grant_wire_bytes_match_filtered_notices():
    """Wire accounting: each grant message is header + NBYTES per notice
    actually shipped — a self-notice adds zero bytes."""
    cluster, _cts, dsm = build_dsm(3)
    rec = TraceRecorder(cluster.sim, capacity=1 << 14)
    arr = SharedArray.allocate(dsm, "x", (8,))

    def driver():
        yield from dsm.node(1).lock_acquire(0)
        yield from arr.on(1).set_scalar(0, 1.0)
        yield from dsm.node(1).lock_release(0)
        yield from dsm.node(1).lock_acquire(0)
        yield from dsm.node(1).lock_release(0)
        yield from dsm.node(2).lock_acquire(0)
        yield from dsm.node(2).lock_release(0)

    run_all(cluster, [driver()])
    _grants, wires = _grant_events(rec)
    sizes = [w.args["nbytes"] for w in wires]
    # empty-log grant and self-notice-only grant are byte-identical on
    # the wire; the foreign notice costs exactly one WriteNotice record
    assert sizes[1] == sizes[0]
    assert sizes[2] == sizes[0] + WriteNotice.NBYTES


def test_repeated_self_acquire_pays_no_notice_bytes():
    """A lock's sole user never pays for its own write history."""
    cluster, _cts, dsm = build_dsm(2)
    rec = TraceRecorder(cluster.sim, capacity=1 << 14)
    arr = SharedArray.allocate(dsm, "x", (8,))

    def driver():
        for i in range(5):
            yield from dsm.node(1).lock_acquire(0)
            yield from arr.on(1).set_scalar(0, float(i))
            yield from dsm.node(1).lock_release(0)

    run_all(cluster, [driver()])
    grants, wires = _grant_events(rec)
    assert [g.args["notices"] for g in grants] == [0] * 5
    sizes = [w.args["nbytes"] for w in wires]
    assert len(set(sizes)) == 1, (
        f"grant wire size grew with the node's own write history: {sizes}"
    )


def test_a_grant_after_a_barrier_carries_no_notice_released_before_it():
    """A barrier covers every interval closed before it, for every node,
    so it truncates the lock manager's log too: node 2's first grant
    after the barrier carries nothing of node 1's pre-barrier write
    (the per-consumer cursor it replaced started at 0 and shipped it)."""
    cluster, _cts, dsm = build_dsm(3)
    rec = TraceRecorder(cluster.sim, capacity=1 << 14)
    arr = SharedArray.allocate(dsm, "x", (8,))

    def driver(n):
        if n == 1:
            yield from dsm.node(1).lock_acquire(0)
            yield from arr.on(1).set_scalar(0, 1.0)
            yield from dsm.node(1).lock_release(0)
        yield from dsm.node(n).barrier()
        if n == 2:
            yield from dsm.node(2).lock_acquire(0)
            yield from dsm.node(2).lock_release(0)

    run_all(cluster, [driver(n) for n in range(3)])
    grants, _wires = _grant_events(rec)
    assert [(g.args["requester"], g.args["notices"]) for g in grants] == [(1, 0), (2, 0)]
