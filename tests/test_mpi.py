"""Unit and integration tests for the MPI subset."""

import numpy as np
import pytest

from repro.mpi import nbytes_of, ANY_SOURCE, ANY_TAG, MatchQueue
from repro.mpi.ops import SUM, MAX, MIN, PROD, LAND, LOR, user_op, op_for_symbol
from repro.sim import Simulator
from conftest import build_cluster, build_comm, run_all


# ------------------------------------------------------------- ops
def test_predefined_ops_on_scalars():
    assert SUM(2, 3) == 5
    assert MAX(2, 3) == 3
    assert MIN(2, 3) == 2
    assert PROD(2, 3) == 6
    assert LAND(1, 0) is False
    assert LOR(1, 0) is True


def test_ops_on_tuples_elementwise():
    assert SUM((1, 2.5), (3, 4.5)) == (4, 7.0)
    assert MAX((1, 9), (5, 2)) == (5, 9)


def test_ops_on_numpy_arrays():
    a = np.array([1.0, 2.0])
    b = np.array([3.0, 1.0])
    assert np.array_equal(SUM(a, b), [4.0, 3.0])
    assert np.array_equal(MAX(a, b), [3.0, 2.0])


def test_ops_on_dicts():
    assert SUM({"a": 1}, {"a": 2}) == {"a": 3}
    with pytest.raises(ValueError):
        SUM({"a": 1}, {"b": 2})


def test_op_nested_tuple():
    assert SUM((1, (2, 3)), (10, (20, 30))) == (11, (22, 33))


def test_reduce_all():
    assert SUM.reduce_all([1, 2, 3, 4]) == 10
    with pytest.raises(ValueError):
        SUM.reduce_all([])


def test_user_op():
    concat = user_op(lambda a, b: a + b, name="CONCAT")
    assert concat("x", "y") == "xy"


def test_op_for_symbol():
    assert op_for_symbol("+") is SUM
    assert op_for_symbol("max") is MAX
    with pytest.raises(KeyError):
        op_for_symbol("xor")


def test_mismatched_tuple_lengths_rejected():
    with pytest.raises(ValueError):
        SUM((1, 2), (1, 2, 3))


# ------------------------------------------------------------- datatypes
def test_nbytes_of_numpy():
    assert nbytes_of(np.zeros(10, dtype=np.float64)) == 80
    assert nbytes_of(np.float32(1.0)) == 4


def test_nbytes_of_scalars():
    assert nbytes_of(3) == 8
    assert nbytes_of(3.14) == 8
    assert nbytes_of(True) == 1
    assert nbytes_of(None) == 0
    assert nbytes_of(1 + 2j) == 16


def test_nbytes_of_containers():
    assert nbytes_of((1.0, 2.0, 3.0)) == 24
    assert nbytes_of([1, 2]) == 16
    assert nbytes_of({"k": 1.0}) == 1 + 8
    assert nbytes_of(b"abcd") == 4
    assert nbytes_of("hi") == 2


# ------------------------------------------------------------- matching
def test_match_queue_posted_then_delivered():
    sim = Simulator()
    q = MatchQueue(sim)
    ev = q.post(source=2, tag="t")
    assert not ev.triggered
    q.deliver(2, "t", "payload")
    assert ev.triggered
    assert ev.value == (2, "t", "payload")


def test_match_queue_unexpected_then_posted():
    sim = Simulator()
    q = MatchQueue(sim)
    q.deliver(1, "a", "early")
    ev = q.post(source=ANY_SOURCE, tag="a")
    assert ev.triggered and ev.value[2] == "early"


def test_match_queue_wildcards():
    sim = Simulator()
    q = MatchQueue(sim)
    ev = q.post(source=ANY_SOURCE, tag=ANY_TAG)
    q.deliver(7, "whatever", 1)
    assert ev.value == (7, "whatever", 1)


def test_match_queue_tag_mismatch_queues():
    sim = Simulator()
    q = MatchQueue(sim)
    ev = q.post(source=0, tag="want")
    q.deliver(0, "other", 1)
    assert not ev.triggered
    assert q.pending_unexpected == 1
    q.deliver(0, "want", 2)
    assert ev.triggered


def test_match_queue_fifo_among_matches():
    sim = Simulator()
    q = MatchQueue(sim)
    q.deliver(0, "t", "first")
    q.deliver(0, "t", "second")
    assert q.post(0, "t").value[2] == "first"
    assert q.post(0, "t").value[2] == "second"


# ------------------------------------------------------------- communicator
@pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
def test_allreduce_all_ranks_get_total(p):
    cluster = build_cluster(p)
    _cts, comm = build_comm(cluster)
    results = {}

    def main(rc):
        total = yield from rc.allreduce(rc.rank + 1, op=SUM)
        results[rc.rank] = total

    run_all(cluster, [main(comm.rank(r)) for r in range(p)])
    assert all(v == p * (p + 1) // 2 for v in results.values())


@pytest.mark.parametrize("root", [0, 1, 3])
def test_bcast_from_any_root(root):
    p = 4
    cluster = build_cluster(p)
    _cts, comm = build_comm(cluster)
    results = {}

    def main(rc):
        v = yield from rc.bcast("secret" if rc.rank == root else None, root=root)
        results[rc.rank] = v

    run_all(cluster, [main(comm.rank(r)) for r in range(p)])
    assert all(v == "secret" for v in results.values())


def test_reduce_only_root_gets_value():
    p = 4
    cluster = build_cluster(p)
    _cts, comm = build_comm(cluster)
    results = {}

    def main(rc):
        v = yield from rc.reduce(rc.rank, op=MAX, root=2)
        results[rc.rank] = v

    run_all(cluster, [main(comm.rank(r)) for r in range(p)])
    assert results[2] == 3
    assert all(results[r] is None for r in range(p) if r != 2)


def test_gather_and_scatter():
    p = 4
    cluster = build_cluster(p)
    _cts, comm = build_comm(cluster)
    results = {}

    def main(rc):
        g = yield from rc.gather(rc.rank * 2, root=0)
        values = [v * 10 for v in g] if rc.rank == 0 else None
        s = yield from rc.scatter(values, root=0)
        results[rc.rank] = (g, s)

    run_all(cluster, [main(comm.rank(r)) for r in range(p)])
    assert results[0][0] == [0, 2, 4, 6]
    assert all(results[r][0] is None for r in range(1, p))
    assert [results[r][1] for r in range(p)] == [0, 20, 40, 60]


def test_allgather():
    p = 3
    cluster = build_cluster(p)
    _cts, comm = build_comm(cluster)
    results = {}

    def main(rc):
        g = yield from rc.allgather(rc.rank ** 2)
        results[rc.rank] = g

    run_all(cluster, [main(comm.rank(r)) for r in range(p)])
    assert all(v == [0, 1, 4] for v in results.values())


def test_p2p_tag_selectivity():
    cluster = build_cluster(2)
    _cts, comm = build_comm(cluster)
    got = []

    def sender(rc):
        yield from rc.send("for-b", 1, tag="b")
        yield from rc.send("for-a", 1, tag="a")

    def receiver(rc):
        a = yield from rc.recv(source=0, tag="a")
        b = yield from rc.recv(source=0, tag="b")
        got.append((a, b))

    run_all(cluster, [sender(comm.rank(0)), receiver(comm.rank(1))])
    assert got == [("for-a", "for-b")]


def test_send_to_invalid_rank_raises():
    cluster = build_cluster(2)
    _cts, comm = build_comm(cluster)

    def main(rc):
        with pytest.raises(ValueError):
            yield from rc.send(1, dest=9)

    run_all(cluster, [main(comm.rank(0))])


@pytest.mark.parametrize("source", [2, 9, -2])
def test_recv_from_invalid_rank_raises(source):
    """A receive no sender can match fails where it is posted, not as a
    drained schedule far from the cause."""
    cluster = build_cluster(2)
    _cts, comm = build_comm(cluster)
    rc = comm.rank(0)

    def main():
        with pytest.raises(ValueError, match="invalid source rank"):
            yield from rc.recv(source=source)
        with pytest.raises(ValueError, match="invalid source rank"):
            yield from rc.recv_with_status(source=source)
        with pytest.raises(ValueError, match="invalid source rank"):
            rc.irecv(source=source)
        # the valid extremes still post
        assert not rc.irecv(source=ANY_SOURCE).triggered
        assert not rc.irecv(source=1).triggered

    run_all(cluster, [main()])
    assert comm._queues[0].pending_posted == 2


def test_irecv_completes_later():
    cluster = build_cluster(2)
    _cts, comm = build_comm(cluster)
    got = []

    def receiver(rc):
        req = rc.irecv(source=0, tag="x")
        yield cluster.sim.timeout(0)  # request posted before send arrives
        src, tag, payload = yield req
        got.append(payload)

    def sender(rc):
        yield cluster.sim.timeout(1e-4)
        yield from rc.send("late", 1, tag="x")

    run_all(cluster, [receiver(comm.rank(1)), sender(comm.rank(0))])
    assert got == ["late"]


def test_barrier_synchronises_ranks():
    p = 4
    cluster = build_cluster(p)
    _cts, comm = build_comm(cluster)
    after = {}

    def main(rc):
        yield cluster.sim.timeout(rc.rank * 1e-3)  # stagger arrivals
        yield from rc.barrier()
        after[rc.rank] = cluster.now

    run_all(cluster, [main(comm.rank(r)) for r in range(p)])
    slowest_arrival = (p - 1) * 1e-3
    assert all(t >= slowest_arrival for t in after.values())


def test_allreduce_numpy_payload():
    p = 4
    cluster = build_cluster(p)
    _cts, comm = build_comm(cluster)
    results = {}

    def main(rc):
        v = np.full(8, float(rc.rank))
        total = yield from rc.allreduce(v, op=SUM)
        results[rc.rank] = total

    run_all(cluster, [main(comm.rank(r)) for r in range(p)])
    for r in range(p):
        assert np.array_equal(results[r], np.full(8, 6.0))


def test_collective_message_count_scales_logarithmically():
    counts = {}
    for p in (4, 8):
        cluster = build_cluster(p)
        _cts, comm = build_comm(cluster)

        def main(rc):
            yield from rc.bcast(0, root=0)

        base = cluster.network.total_messages
        run_all(cluster, [main(comm.rank(r)) for r in range(p)])
        counts[p] = cluster.network.total_messages - base
    # binomial tree: p-1 messages per bcast
    assert counts[4] == 3
    assert counts[8] == 7


def test_single_rank_collectives_are_free():
    cluster = build_cluster(1)
    _cts, comm = build_comm(cluster)
    out = []

    def main(rc):
        v = yield from rc.allreduce(5, op=SUM)
        b = yield from rc.bcast("x", root=0)
        g = yield from rc.allgather(1)
        out.append((v, b, g))

    run_all(cluster, [main(comm.rank(0))])
    assert out == [(5, "x", [1])]
    assert cluster.network.total_messages == 0
