"""A simulated SMP node: CPUs, NIC, inbox.  A compute burst may carry its
application kernel, run on a host core while the simulator goes on."""

from __future__ import annotations

import os

from repro.sim import Event, Resource, Store
from repro.sim.probe import PH_COMPUTE, PH_CPU_WAIT

_pool = None  # (pid, executor) of kernel_pool


def kernel_pool():
    """The process-wide host thread pool of burst kernels: made at first use
    (and anew in a forked child), one worker per host CPU this process has."""
    global _pool
    if _pool is None or _pool[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor

        _pool = os.getpid(), ThreadPoolExecutor(len(os.sched_getaffinity(0)), "kernel")
    return _pool[1]


def _burst_result(burst, future):
    """Generator: the burst, then its kernel's result (or exception)."""
    yield from burst
    return future.result()


class Node:
    """One SMP node of the cluster.

    * ``cpus`` — capacity-limited resource (capacity = cores);
    * ``nic_tx`` — transmit engine, capacity 1, serialises outgoing frames;
    * ``inbox`` — FIFO of delivered :class:`~repro.cluster.network.Message`
      objects, drained by the node's communication thread.
    """

    def __init__(self, sim, node_id: int, config):
        self.sim = sim
        self.id = node_id
        self.config = config
        self.cpus = Resource(sim, capacity=config.cpus_per_node, name=f"cpu[{node_id}]")
        self.nic_tx = Resource(sim, capacity=1, name=f"nic[{node_id}]")
        self.inbox = Store(sim, name=f"inbox[{node_id}]")
        self.speed_factor = config.speed_factor(node_id)
        # statistics
        self.msgs_sent = 0
        self.msgs_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.compute_time = 0.0
        self.overhead_time = 0.0

    # CPU bursts return Resource.execute's generator directly (no frame of
    # their own per burst): one kernel-resident Hold each.
    def compute(self, work_units: float, kernel=None):
        """Generator: occupy one CPU for *work_units* of application work.
        A *kernel* (no arguments, pure: no simulated memory, no simulator
        state) goes to :func:`kernel_pool` now; the burst's end returns
        its result or raises its exception."""
        # same float expression as config.compute_seconds, but through the
        # node's *live* speed, so a chaos NodeSlowdown window derates
        # compute bursts too (the cached factor equals the config's)
        seconds = work_units * self.config.seconds_per_work_unit / self.speed_factor
        self.compute_time += seconds
        burst = self.cpus.execute(seconds, 0, PH_CPU_WAIT, PH_COMPUTE)
        if kernel is None:
            return burst
        return _burst_result(burst, kernel_pool().submit(kernel))

    def busy_cpu(self, seconds: float, priority: int = 0, again=None):
        """Generator: occupy one CPU for raw protocol-overhead *seconds*
        (already expressed in wall time; scaled by CPU speed).  A profiler
        charges the burst to the *enclosing* phase (diff work under flush,
        spin under lock-wait ...), marked active.  With *again*, a chain
        of such bursts: the end of each calls ``again()`` for the raw
        seconds of the next, ``None`` ends it (see
        :meth:`~repro.sim.Resource.execute`) — with :meth:`spin_cpu`, the
        two places a protocol burst is scaled and booked."""
        scaled = seconds / self.speed_factor
        self.overhead_time += scaled
        if again is None:
            return self.cpus.execute(scaled, priority, PH_CPU_WAIT)

        def chain():
            seconds = again()
            if seconds is None:
                return None
            scaled = seconds / self.speed_factor  # live: chaos may derate it
            self.overhead_time += scaled
            return scaled

        return self.cpus.execute(scaled, priority, PH_CPU_WAIT, again=chain)

    def spin_cpu(self, seconds: float, until: Event):
        """Generator: busy-wait — :meth:`busy_cpu` slices of *seconds*
        back to back until *until* has been triggered.  The slices are a
        pure function of the node's speed, so stretches of the wait that
        nobody can observe are not simulated slice by slice (see
        :class:`~repro.sim.Hold`) — which is why the speed is changed
        through :meth:`set_speed_factor` only."""
        if not until.triggered:

            def spin_slice():
                scaled = seconds / self.speed_factor  # live: chaos may derate it
                self.overhead_time += scaled
                return scaled

            yield from self.cpus.execute(
                spin_slice(), 0, PH_CPU_WAIT, again=spin_slice, until=until)

    def set_speed_factor(self, factor: float) -> None:
        """Change the node's CPU speed mid-run (chaos slowdown edges).
        Parked busy-wait slices are booked at the old speed first: they
        go back on the schedule, and every later slice reads the new one."""
        self.cpus.unpark()
        self.speed_factor = factor

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Node {self.id} ({self.config.cpu_mhz[self.id]} MHz x{self.config.cpus_per_node})>"
