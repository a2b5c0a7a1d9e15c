"""Phase taxonomy of the virtual-time profiler.

Every thread's virtual lifetime is partitioned into *phases* — the same
decomposition hybrid-programming studies use (compute vs. communication
vs. synchronisation) refined with the DSM-specific stalls the paper's
evaluation argues about (twin/diff work, fetch waits, busy-wait lock
clients, comm-thread CPU contention).

A phase is either **active** (occupying a CPU or the wire: candidate for
the critical path) or a **wait** (suspended on an event; some *other*
activity is responsible for the passage of virtual time).  Activity is a
property of the recorded interval, not the phase name alone: a CPU burst
issued while waiting for a lock is recorded as *active* ``lock-wait`` —
exactly how the KDSM busy-wait client burns cycles.

Fine phases
-----------

==================  ======  =====================================================
phase               group   meaning
==================  ======  =====================================================
``compute``         compute useful application work (:meth:`Node.compute`)
``cpu-wait``        cpu     queued for a CPU (contention with siblings/comm thread)
``fault-fetch``     stall   page-fault fetch: request sent, waiting for the page
``fault-work``      stall   local fault service: SIGSEGV/mprotect overhead, twin
                            creation, atomic page update, diff application
``page-wait``       stall   blocked on a sibling thread's in-flight page update
                            (Figure 5 TRANSIENT/BLOCKED)
``flush``           stall   release-time twin/diff work: diff computation and
                            shipping at lock releases and barrier arrivals
``overhead``        stall   protocol CPU bursts outside any attributed phase
``lock-wait``       sync    distributed lock acquire, request to grant (spin
                            slices of the KDSM busy-wait client land here)
``barrier-wait``    sync    hierarchical barrier: arrival to departure
``mutex-wait``      sync    pthread mutex acquisition (intra-node)
``team-wait``       sync    combining-gate wait (reduction/single followers)
``mpi-coll``        sync    inside an MPI collective (bcast/reduce/allreduce)
``fork-join``       sync    master/agent waiting for a region's threads to join
``comm-service``    comm    comm thread draining + dispatching one message
``net-tx``          comm    NIC transmit occupancy (sender side)
``net-flight``      comm    switch propagation (pseudo-thread ``net``)
``retransmit-wait`` comm    reliability-layer dead time: a frame was lost
                            (or its ack was) and the wire sat idle until the
                            retransmit timer fired (pseudo-thread ``net``;
                            only appears under :mod:`repro.chaos` injection)
``idle``            idle    nothing attributed (inbox wait, fork wait, slack)
==================  ======  =====================================================

The coarse *groups* (``compute`` / ``stall`` / ``sync`` / ``comm`` /
``cpu`` / ``idle``) are what ``repro.bench.perf`` records per run as
fractions of thread *virtual* time, so a moved virtual time is
attributable from the diff of ``BENCH_parade.json`` alone.
"""

from __future__ import annotations

from typing import Dict, Tuple

# the labels live next to the probe bus, so instrumentation sites in
# sim/cluster/dsm/mpi/runtime name a phase without importing this package
from repro.sim.probe import (  # noqa: F401  (re-exported)
    PH_BARRIER, PH_COMM_SERVICE, PH_COMPUTE, PH_CPU_WAIT, PH_FAULT_FETCH,
    PH_FAULT_WORK, PH_FLUSH, PH_FORK_JOIN, PH_IDLE, PH_LOCK_WAIT, PH_MPI_COLL,
    PH_MUTEX_WAIT, PH_NET_FLIGHT, PH_NET_TX, PH_OVERHEAD, PH_PAGE_WAIT,
    PH_RETRANSMIT, PH_TEAM_WAIT,
)

GROUP_COMPUTE = "compute"
GROUP_CPU = "cpu"
GROUP_STALL = "stall"
GROUP_SYNC = "sync"
GROUP_COMM = "comm"
GROUP_IDLE = "idle"

ALL_GROUPS: Tuple[str, ...] = (
    GROUP_COMPUTE,
    GROUP_CPU,
    GROUP_STALL,
    GROUP_SYNC,
    GROUP_COMM,
    GROUP_IDLE,
)

#: phase -> group, in report/ledger column order (idle last)
GROUP_OF: Dict[str, str] = {
    PH_COMPUTE: GROUP_COMPUTE,
    PH_CPU_WAIT: GROUP_CPU,
    PH_FAULT_FETCH: GROUP_STALL,
    PH_FAULT_WORK: GROUP_STALL,
    PH_PAGE_WAIT: GROUP_STALL,
    PH_FLUSH: GROUP_STALL,
    PH_OVERHEAD: GROUP_STALL,
    PH_LOCK_WAIT: GROUP_SYNC,
    PH_BARRIER: GROUP_SYNC,
    PH_MUTEX_WAIT: GROUP_SYNC,
    PH_TEAM_WAIT: GROUP_SYNC,
    PH_MPI_COLL: GROUP_SYNC,
    PH_FORK_JOIN: GROUP_SYNC,
    PH_COMM_SERVICE: GROUP_COMM,
    PH_NET_TX: GROUP_COMM,
    PH_NET_FLIGHT: GROUP_COMM,
    PH_RETRANSMIT: GROUP_COMM,
    PH_IDLE: GROUP_IDLE,
}

ALL_PHASES: Tuple[str, ...] = tuple(GROUP_OF)

#: pseudo-thread id carrying switch-propagation (flight) intervals; it has
#: no ledger (messages overlap freely) and appears only in the critical path
NET_TID = "net"


def group_of(phase: str) -> str:
    """Coarse group of *phase* (unknown phases count as stall)."""
    return GROUP_OF.get(phase, GROUP_STALL)


def node_of_tid(tid: str) -> int:
    """Cluster node a simulation-thread label belongs to, or -1.

    Labels follow the runtime's conventions: ``omp[2.1]r3`` (node 2),
    ``comm[0]``, ``agent[3]``, ``mpi[1]``; ``master`` runs on node 0.
    """
    if tid == "master":
        return 0
    lb = tid.find("[")
    if lb < 0:
        return -1
    rb = tid.find("]", lb)
    if rb < 0:
        return -1
    inner = tid[lb + 1 : rb]
    dot = inner.find(".")
    if dot >= 0:
        inner = inner[:dot]
    try:
        return int(inner)
    except ValueError:
        return -1
