"""Unit tests for the per-node communication thread."""

import pytest

from repro.mpi import CommThread, POISON
from repro.testing import build_cluster, run_all


def test_dispatch_by_channel():
    cluster = build_cluster(2)
    ct = CommThread(cluster.nodes[1], cluster.network)
    got = []

    def handler(msg):
        got.append(msg.payload)
        return
        yield

    ct.register("foo", handler)
    ct.start()

    def sender():
        yield from cluster.network.send(0, 1, 16, "hello", tag=("foo", 1))

    run_all(cluster, [sender()])
    assert got == ["hello"]
    assert ct.messages_handled == 1


def test_unknown_channel_raises():
    cluster = build_cluster(2)
    ct = CommThread(cluster.nodes[1], cluster.network)
    ct.start()

    def sender():
        yield from cluster.network.send(0, 1, 16, "x", tag=("nochannel",))

    from repro.sim.core import UnhandledProcessError

    cluster.sim.process(sender())
    with pytest.raises(UnhandledProcessError):
        cluster.sim.run()


def test_duplicate_registration_rejected():
    cluster = build_cluster(1)
    ct = CommThread(cluster.nodes[0], cluster.network)

    def h(msg):
        return
        yield

    ct.register("a", h)
    with pytest.raises(ValueError):
        ct.register("a", h)


def test_double_start_rejected():
    cluster = build_cluster(1)
    ct = CommThread(cluster.nodes[0], cluster.network)
    ct.start()
    with pytest.raises(RuntimeError):
        ct.start()


def test_poison_shuts_down_in_fifo_order():
    cluster = build_cluster(2)
    ct = CommThread(cluster.nodes[1], cluster.network)
    got = []

    def handler(msg):
        got.append(msg.payload)
        return
        yield

    ct.register("c", handler)
    ct.start()

    def sender():
        yield from cluster.network.send(0, 1, 8, 1, tag=("c",))
        yield from cluster.network.send(0, 1, 8, 2, tag=("c",))
        # the poison pill goes straight into the inbox (no wire latency),
        # so wait for the in-flight frames to land first
        yield cluster.sim.timeout(1e-3)
        ct.shutdown()

    run_all(cluster, [sender()])
    cluster.sim.run()
    assert got == [1, 2]
    assert ct.process.processed  # loop exited


def test_service_serialises_handlers():
    """Two messages: the second is handled only after the first handler's
    generator completes (one comm thread = serial protocol service)."""
    cluster = build_cluster(2)
    ct = CommThread(cluster.nodes[1], cluster.network)
    spans = []

    def handler(msg):
        start = cluster.sim.now
        yield cluster.sim.timeout(1e-4)
        spans.append((start, cluster.sim.now))

    ct.register("s", handler)
    ct.start()

    def sender():
        yield from cluster.network.send(0, 1, 8, "a", tag=("s",))
        yield from cluster.network.send(0, 1, 8, "b", tag=("s",))

    run_all(cluster, [sender()])
    assert len(spans) == 2
    # no overlap
    assert spans[1][0] >= spans[0][1]


def test_cpu_charge_delays_handling_on_busy_node():
    """With one CPU busy on compute, message service waits for it."""
    from repro.cluster import ClusterConfig, Cluster

    cluster = Cluster(ClusterConfig(n_nodes=2, cpus_per_node=1, cpu_mhz=(600, 600)))
    ct = CommThread(cluster.nodes[1], cluster.network)
    handled_at = []

    def handler(msg):
        handled_at.append(cluster.sim.now)
        return
        yield

    ct.register("c", handler)
    ct.start()

    def hog():
        # occupy node 1's only CPU for 5 ms
        yield from cluster.nodes[1].compute(500_000)

    def sender():
        yield from cluster.network.send(0, 1, 8, "x", tag=("c",))

    run_all(cluster, [hog(), sender()])
    assert handled_at[0] >= 5e-3  # waited for the CPU


def test_a_remote_message_costs_at_most_five_events():
    """The event budget of one remote frame: the sender's CPU burst, the
    NIC occupancy, the flight entry, the inbox wake of the comm thread
    and its service burst — each timed occupancy one event."""

    def events(n_messages):
        cluster = build_cluster(2)
        ct = CommThread(cluster.nodes[1], cluster.network)
        got = []

        def handler(msg):
            got.append(msg.payload)
            return
            yield

        ct.register("foo", handler)
        ct.start()

        def sender():
            for i in range(n_messages):
                yield from cluster.network.send(0, 1, 64, i, tag=("foo", i))

        run_all(cluster, [sender()])
        assert got == list(range(n_messages))
        return cluster.sim.events_processed

    assert events(110) - events(10) <= 5 * 100


def test_plain_function_handler_is_serviced_like_a_generator_one():
    """A handler that needs no virtual time may be a plain function
    returning ``None``: same service instants, same events, and no
    generator made per frame."""

    def run(plain):
        cluster = build_cluster(2)
        ct = CommThread(cluster.nodes[1], cluster.network)
        handled_at = []

        def generator_handler(msg):
            handled_at.append((msg.payload, cluster.sim.now))
            return
            yield

        def plain_handler(msg):
            handled_at.append((msg.payload, cluster.sim.now))

        ct.register("p", plain_handler if plain else generator_handler)
        ct.start()

        def sender():
            for i in range(5):
                yield from cluster.network.send(0, 1, 64, i, tag=("p", i))

        run_all(cluster, [sender()])
        return handled_at, cluster.sim.events_processed, ct.messages_handled

    assert run(plain=True) == run(plain=False)
    assert run(plain=True)[2] == 5
