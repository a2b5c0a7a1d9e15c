"""Thread and master contexts: the directive-level API.

A parallel-region body receives a thread context — the OpenMP directives as
generator methods — of one class per translation of Figs 2–3, picked once
by the runtime: :class:`ThreadCtx` (conventional SDSM) or its subclass
:class:`ParadeThreadCtx` (ParADE hybrid).  :class:`MasterCtx` is the
sequential (outside-region) context of the master program.

Both translations fold a reduction's partials in thread order, which
OpenMP allows (it leaves the combine order unspecified), so a reduced
value never depends on the schedule: the conventional translation folds
per-thread slots after its barrier (:meth:`ThreadCtx._reduce`), the
hybrid one folds a node's partials in local-thread order
(:meth:`~repro.runtime.team.NodeTeam.combining`) before its collective.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

import numpy as np

from repro.dsm import SharedScalar
from repro.mpi.ops import ReduceOp, SUM
from repro.runtime.scheduler import static_chunk
from repro.sim.probe import PH_BARRIER, bracket


class _CtxBase:
    """Shared helpers for master and thread contexts."""

    def __init__(self, runtime, node_id: int):
        self.runtime = runtime
        self.node_id = node_id
        self.dsm_node = runtime.dsm.node(node_id)
        self.sim = runtime.sim

    @property
    def now(self) -> float:
        return self.sim.now

    def array(self, shared_array):
        """Bind a SharedArray to this context's node."""
        return shared_array.on(self.node_id)

    def scalar(self, shared_scalar):
        """Bind a SharedScalar to this context's node."""
        return shared_scalar.on(self.node_id)

    def compute(self, work_units: float, kernel=None):
        """Charge *work_units* of application computation to a CPU (and
        return *kernel*'s result: :meth:`repro.cluster.node.Node.compute`)."""
        return (yield from self.runtime.cluster.node(self.node_id).compute(work_units, kernel))


class ThreadCtx(_CtxBase):
    """One OpenMP thread inside a parallel region, under the conventional
    SDSM translation (Figs 2–3, left; the KDSM baseline of §6.1)."""

    def __init__(self, runtime, team, node_id: int, local_tid: int):
        super().__init__(runtime, node_id)
        self.team = team
        self.local_tid = local_tid
        self.tid = node_id * team.n_local + local_tid
        self.nthreads = runtime.cluster.n_nodes * team.n_local
        self._keys: dict = {}

    # -- encounter keys ----------------------------------------------------
    def _key(self, kind: str):
        n = self._keys.get(kind, 0)
        self._keys[kind] = n + 1
        return (kind, n)

    # -- work sharing (omp for, static schedule) ----------------------------
    def for_range(self, lo: int, hi: int) -> Tuple[int, int]:
        """Block partition of [lo, hi) for this thread (schedule(static))."""
        return static_chunk(lo, hi, self.tid, self.nthreads)

    def dynamic_loop(self, lo: int, hi: int, chunk: int = 1, sched: str = "dynamic"):
        """schedule(dynamic, chunk) / schedule(guided): a cluster-wide chunk
        dispenser on the master node (the §8 loop-scheduling extension).
        Returns a :class:`~repro.runtime.dynamic.DynamicLoop` handle."""
        from repro.runtime.dynamic import DynamicLoop

        key = self._key("dyn")
        loop_id = (self.team.region_seq, key[1])
        return DynamicLoop(self, loop_id, lo, hi, chunk, sched)

    # -- barrier -------------------------------------------------------------
    def barrier(self):
        """#pragma omp barrier — hierarchical (pthread + DSM barrier)."""
        t0 = self.sim.now
        key = self._key("bar")
        # arrival-to-departure, covering the local gather and (on the
        # leader) the inter-node DSM barrier
        yield from bracket(self.sim, PH_BARRIER, self.team.barrier(key))
        pb = self.sim.probe
        if pb is not None and "runtime" in pb.heard:
            # per-thread span: arrival-to-departure, showing barrier fan-in skew
            pb.span("runtime", "omp-barrier", t0, node=self.node_id,
                    tid_local=self.local_tid, encounter=key[1])

    # -- critical / atomic ----------------------------------------------------
    def critical_update(self, shared_scalar, delta, op: ReduceOp = SUM):
        """``#pragma omp critical { x = x op delta; }`` for a small shared
        scalar — the lexically-analyzable case the translator rewrites.

        Figure 2, left: a distributed lock around a normal shared-page
        read-modify-write — lock round-trip, page fault, twin, diff at
        release.
        """
        view = self.scalar(shared_scalar)
        lock_id = self.runtime.lock_id_for(shared_scalar)
        yield from self.dsm_node.lock_acquire(lock_id)
        try:
            cur = yield from view.get()
            yield from view.set(op(cur, delta))
        finally:
            yield from self.dsm_node.lock_release(lock_id)

    def atomic_update(self, shared_scalar, delta, op: ReduceOp = SUM):
        """#pragma omp atomic — treated as a special case of critical (§4.2)."""
        yield from self.critical_update(shared_scalar, delta, op=op)

    def critical_region(self, body_gen_fn: Callable[[], Any], name: str = "crit"):
        """A *non-analyzable* critical section (contains calls / large data):
        both modes fall back to the distributed lock (§7).  ``body_gen_fn``
        is a generator function executed while holding the global lock."""
        lock_id = self.runtime.lock_id_for(name)
        yield from self.dsm_node.lock_acquire(lock_id)
        try:
            result = yield from body_gen_fn()
        finally:
            yield from self.dsm_node.lock_release(lock_id)
        return result

    # -- reduction clause -----------------------------------------------------
    def _reduce(self, partials, op: ReduceOp):
        """The one conventional reduction (Fig 2, left): lock, flush at
        release, barrier.  Under the clause's distributed lock this thread
        writes all of its *partials* into its own row of a page-granular
        slot array; after the barrier every thread folds the rows in
        thread order, so the result does not depend on the lock-grant
        order.  Successive encounters alternate between two slot buffers:
        the next encounter's writes cannot overtake this one's reads.
        Returns the folded row (a float64 vector, one entry per partial
        element)."""
        mine = np.hstack(partials)
        width, n = mine.size, self.nthreads
        slots = self.runtime.reduce_slots(n, width)
        view = self.array(slots)
        base = (self._key("slots")[1] & 1) * n * width
        lock_id = self.runtime.lock_id_for(slots)
        yield from self.dsm_node.lock_acquire(lock_id)
        try:
            yield from view.set(mine, start=base + self.tid * width)
        finally:
            yield from self.dsm_node.lock_release(lock_id)
        yield from self.barrier()
        rows = yield from view.get(base, base + n * width)
        return op.reduce_all(rows.reshape(n, width))

    def reduce_into_many(self, pairs, op: ReduceOp = SUM):
        """``reduction(+: sx, sy, q[0..9])`` as ``(shared, partial)`` pairs
        (scalar + number, or array + array): one :meth:`_reduce` over all
        the partials.  Every thread reads the shared values before the lock;
        thread 0 stores ``value op total`` and a trailing barrier publishes
        it.  Returns the finals as one flat vector, in *pairs* order."""
        views = [
            self.array(s.array if isinstance(s, SharedScalar) else s) for s, _ in pairs
        ]
        cur = []
        for view in views:
            cur.append((yield from view.get()))
        # hstack copies: thread 0 overwrites this node's pool with the finals
        cur = np.hstack(cur)
        total = yield from self._reduce([p for _, p in pairs], op)
        finals = op(cur, total)
        if self.tid == 0:
            at = 0
            for view in views:
                yield from view.set(finals[at:at + view.array.size])
                at += view.array.size
        yield from self.barrier()
        return finals

    def reduce_into(self, shared_scalar, partial, op: ReduceOp = SUM):
        """The ``reduction`` clause on one shared scalar: combine the
        per-thread partials into it; returns the final value."""
        finals = yield from self.reduce_into_many(((shared_scalar, partial),), op)
        return finals[0]

    def reduce_value(self, partial, op: ReduceOp = SUM):
        """Pure value reduction returning the combined value to every thread
        (the pattern whose cost §2.2 calls "expensive ... long latency"):
        one :meth:`_reduce`, which ends at its barrier."""
        total = yield from self._reduce([partial], op)
        return float(total[0])

    # -- single ------------------------------------------------------------------
    def single(self, body_gen_fn: Optional[Callable[[], Any]] = None, shared_scalar=None):
        """#pragma omp single.

        Figure 3, left: distributed lock + shared "done" flag page +
        implicit barrier.  If *shared_scalar* is given, the block's result
        is stored to it and read back by every thread.
        """
        flag = self.runtime.single_flag()
        fview = flag.on(self.node_id)
        my_gen = self._keys.get("sgl_gen", 0)
        self._keys["sgl_gen"] = my_gen + 1
        lock_id = self.runtime.lock_id_for(flag)
        result = None
        yield from self.dsm_node.lock_acquire(lock_id)
        try:
            done = yield from fview.get()
            if int(done) <= my_gen:
                if body_gen_fn is not None:
                    result = yield from body_gen_fn()
                if shared_scalar is not None and result is not None:
                    yield from self.scalar(shared_scalar).set(result)
                yield from fview.set(my_gen + 1)
        finally:
            yield from self.dsm_node.lock_release(lock_id)
        yield from self.barrier()  # the implicit barrier of `single`
        if shared_scalar is not None:
            result = yield from self.scalar(shared_scalar).get()
            # Order the unlocked read against the next encounter's write.
            yield from self.barrier()
        return result

    def master(self, body_gen_fn: Callable[[], Any]):
        """#pragma omp master: global thread 0 only, no synchronisation."""
        if self.tid == 0:
            result = yield from body_gen_fn()
            return result
        return None

    def sections(self, section_gen_fns, nowait: bool = False):
        """#pragma omp sections: section k runs on the thread with
        ``tid == k % nthreads``; implicit barrier at the end unless
        *nowait*.  Returns this thread's section results (in order)."""
        results = []
        for k, fn in enumerate(section_gen_fns):
            if k % self.nthreads == self.tid:
                value = yield from fn()
                results.append(value)
        if not nowait:
            yield from self.barrier()
        return results

    # -- explicit OpenMP lock API (omp_set_lock / omp_unset_lock) ---------
    def set_lock(self, lock_name):
        """omp_set_lock: hierarchical — pthread mutex locally, the
        distributed LRC lock across nodes (notices applied on grant)."""
        lock_id = self.runtime.lock_id_for(("omp_lock", lock_name))
        yield from self.team.named_mutex(lock_name).acquire()
        yield from self.dsm_node.lock_acquire(lock_id)

    def unset_lock(self, lock_name):
        """omp_unset_lock: release the distributed lock (flushing this
        interval's modifications) then the local mutex."""
        lock_id = self.runtime.lock_id_for(("omp_lock", lock_name))
        yield from self.dsm_node.lock_release(lock_id)
        self.team.named_mutex(lock_name).release()


class ParadeThreadCtx(ThreadCtx):
    """One OpenMP thread under the ParADE hybrid translation (Figs 2–3,
    right): these rows keep object-granular data (§5.2.1) consistent by
    MPI collectives — no SDSM lock, no twin/diff; the rest is inherited."""

    def critical_update(self, shared_scalar, delta, op: ReduceOp = SUM):
        """Figure 2, right: pthread lock for intra-node exclusion + one
        ``MPI_Allreduce`` wave per encounter combining the current deltas of
        all processes, applied by every process to its local copy."""
        view = self.scalar(shared_scalar)
        yield from self.team.mutex.acquire()
        try:
            total = yield from self.team.rank_comm.allreduce(delta, op=op)
            view.raw_set(op(view.raw_get(), total))
        finally:
            self.team.mutex.release()

    def reduce_into(self, shared_scalar, partial, op: ReduceOp = SUM):
        """Intra-node combine + one ``MPI_Allreduce`` per node, applied to
        every node's copy — no lock-based accumulation, no barrier (§5.2.1)."""
        view = self.scalar(shared_scalar)

        def inter(merged):
            total = yield from self.team.rank_comm.allreduce(merged, op=op)
            final = op(view.raw_get(), total)
            view.raw_set(final)
            return final

        result = yield from self.team.combining(
            self._key("red"), self.local_tid, partial, op, inter)
        return result

    def reduce_into_many(self, pairs, op: ReduceOp = SUM):
        """§4.2: the partials merge into one structure-type value for the
        node's combine and a single ``MPI_Allreduce``; returns the finals."""
        merged = tuple(p if isinstance(s, SharedScalar) else tuple(p.tolist()) for s, p in pairs)

        def inter(part):
            totals = yield from self.team.rank_comm.allreduce(part, op=op)
            finals = []
            for (shared, _), total in zip(pairs, totals):
                arr = shared.array if isinstance(shared, SharedScalar) else shared
                raw = self.array(arr).raw()
                raw[:] = op(raw, total)
                finals.append(raw)
            return np.hstack(finals)  # a copy, in *pairs* order

        return (yield from self.team.combining(
            self._key("redm"), self.local_tid, merged, op, inter))

    def reduce_value(self, partial, op: ReduceOp = SUM):
        """Intra-node combine + one ``MPI_Allreduce``."""
        def inter(merged):
            total = yield from self.team.rank_comm.allreduce(merged, op=op)
            return total

        result = yield from self.team.combining(
            self._key("redv"), self.local_tid, partial, op, inter)
        return result

    def single(self, body_gen_fn: Optional[Callable[[], Any]] = None, shared_scalar=None):
        """Figure 3, right: the earliest thread of the master process runs
        the block; the result travels by ``MPI_Bcast`` (and into each node's
        copy of *shared_scalar*, if given); other threads wait on a pthread
        gate — no SDSM lock, no barrier."""
        key = self._key("sgl")
        is_first, inst = self.team.first_arriver(key)
        if not is_first:
            result = yield from self.team.wait_gate(inst, key)
            return result
        result = None
        if self.node_id == 0 and body_gen_fn is not None:
            result = yield from body_gen_fn()
        result = yield from self.team.rank_comm.bcast(result, root=0)
        if shared_scalar is not None:
            self.scalar(shared_scalar).raw_set(result)
        self.team.open_gate(inst, key, result)
        return result


class MasterCtx(_CtxBase):
    """The sequential context of the master program (node 0, outside
    parallel regions).  ``parallel`` forks a region across the cluster."""

    def __init__(self, runtime):
        super().__init__(runtime, node_id=0)

    def parallel(self, body: Callable, *args, threads_per_node: Optional[int] = None):
        """#pragma omp parallel: run generator ``body(tc, *args)`` on every
        thread of every node; returns the list of node-0 thread results.
        Includes the fork broadcast, a region-start consistency barrier,
        and the implicit region-end barrier."""
        results = yield from self.runtime.run_region(body, args, threads_per_node)
        return results

    def shared_array(self, name: str, shape, dtype=np.float64, **kw):
        return self.runtime.shared_array(name, shape, dtype=dtype, **kw)

    def shared_scalar(self, name: str, dtype=np.float64):
        return self.runtime.shared_scalar(name, dtype=dtype)
