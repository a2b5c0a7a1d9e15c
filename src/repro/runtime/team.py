"""Per-node thread team: hierarchical synchronisation machinery.

A :class:`NodeTeam` groups the compute threads of one node within one
parallel region.  It provides the *combining* pattern behind ParADE's
hierarchical directives (§4.2/§4.3): threads synchronise locally with
pthread-style primitives and exactly one thread per node performs the
inter-node step (DSM barrier, MPI collective, ...).

A combining encounter folds the node's partials in local-thread order,
whatever order the threads arrive in, so a reduced value does not depend
on the schedule.

Directive encounters are matched across threads by per-thread encounter
counters ("instances"), which is sound for conforming OpenMP programs:
every thread of the team encounters the same work-sharing and
synchronisation constructs in the same order.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.sim import Event, Mutex
from repro.sim.probe import CAT_AUDIT, PH_BARRIER, PH_TEAM_WAIT, bracket, waiting


class _Instance:
    __slots__ = ("count", "done", "gate", "partials", "taken")

    def __init__(self, sim):
        self.count = 0
        self.done = 0
        self.gate = Event(sim, name="team-gate")
        self.partials: Optional[list] = None  # by local thread id
        self.taken = False  # for 'single': has some thread claimed execution?


class NodeTeam:
    """The threads of one node inside one parallel region."""

    def __init__(self, runtime, node_id: int, n_local: int, region_seq: int):
        self.runtime = runtime
        self.node_id = node_id
        self.n_local = n_local
        self.region_seq = region_seq
        self.sim = runtime.sim
        self.dsm_node = runtime.dsm.node(node_id)
        self.rank_comm = runtime.comm.rank(node_id)
        #: the pthread mutex of the translated code (intra-node exclusion)
        self.mutex = Mutex(self.sim, name=f"team-mutex[{node_id}]")
        self._named_mutexes: Dict[Any, Mutex] = {}
        self._instances: Dict[Any, _Instance] = {}

    def named_mutex(self, name) -> Mutex:
        """A distinct pthread mutex per explicit OpenMP lock name."""
        mtx = self._named_mutexes.get(name)
        if mtx is None:
            mtx = Mutex(self.sim, name=f"omp-lock[{self.node_id}:{name}]")
            self._named_mutexes[name] = mtx
        return mtx

    def _instance(self, key) -> _Instance:
        inst = self._instances.get(key)
        if inst is None:
            inst = _Instance(self.sim)
            self._instances[key] = inst
        return inst

    def _retire(self, key, inst: _Instance) -> None:
        inst.done += 1
        if inst.done == self.n_local:
            del self._instances[key]

    # ------------------------------------------------------------------
    def combining(self, key, local_tid, partial, op, inter_fn: Callable[[Any], Any]):
        """Generic combine: thread *local_tid* contributes *partial* (*op*
        may be None for pure barriers); the **last** arriver folds the
        partials with *op* in local-thread order — not arrival order, so
        the value does not depend on the schedule — runs generator
        ``inter_fn(merged)``, and its result is returned to all.
        """
        inst = self._instance(key)
        pb = self.sim.probe
        if pb is not None and CAT_AUDIT in pb.heard:
            # contributor -> leader happens-before edge (gather side)
            pb.instant(CAT_AUDIT, "gather", key=id(inst),
                       leader=inst.count + 1 == self.n_local)
        if op is not None:
            if inst.partials is None:
                inst.partials = [None] * self.n_local
            inst.partials[local_tid] = partial
        inst.count += 1
        if inst.count == self.n_local:
            merged = None if op is None else op.reduce_all(inst.partials)
            result = yield from inter_fn(merged)
            gate = inst.gate
            self._retire(key, inst)
            if pb is not None and CAT_AUDIT in pb.heard:
                # leader -> waiters edge (gate side); n_local-1 waiters
                pb.instant(CAT_AUDIT, "gate-open", key=id(gate), waiters=self.n_local - 1)
            gate.succeed(result)
            yield gate  # consume our own gate pass for deterministic ordering
            return result
        gate = inst.gate
        # pure barriers (op is None) are barrier waits; reductions and
        # other combining encounters are team (gather) waits
        result = yield from bracket(
            self.sim, PH_BARRIER if op is None else PH_TEAM_WAIT, waiting(gate)
        )
        if pb is not None and CAT_AUDIT in pb.heard:
            pb.instant(CAT_AUDIT, "gate-wait", key=id(gate))
        self._retire(key, inst)
        return result

    def barrier(self, key):
        """Hierarchical barrier: local gather, leader runs the DSM barrier."""

        def inter(_merged):
            yield from self.dsm_node.barrier()
            return None

        yield from self.combining(key, None, None, None, inter)

    def first_arriver(self, key):
        """Return True for exactly the first thread to reach *key*; the
        winner must later call :meth:`open_gate`; losers wait on it."""
        inst = self._instance(key)
        inst.count += 1
        if not inst.taken:
            inst.taken = True
            return True, inst
        return False, inst

    def wait_gate(self, inst: _Instance, key):
        value = yield from bracket(self.sim, PH_TEAM_WAIT, waiting(inst.gate))
        pb = self.sim.probe
        if pb is not None and CAT_AUDIT in pb.heard:
            pb.instant(CAT_AUDIT, "gate-wait", key=id(inst.gate))
        self._retire(key, inst)
        return value

    def open_gate(self, inst: _Instance, key, value=None) -> None:
        pb = self.sim.probe
        if pb is not None and CAT_AUDIT in pb.heard:
            pb.instant(CAT_AUDIT, "gate-open", key=id(inst.gate), waiters=self.n_local - 1)
        inst.gate.succeed(value)
        self._retire(key, inst)
