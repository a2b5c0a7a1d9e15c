"""Thread and master contexts: the directive-level API.

:class:`ThreadCtx` is what a parallel-region body receives — the OpenMP
directives as generator methods, dispatching to either the ParADE hybrid
translation or the conventional SDSM translation depending on the runtime
mode.  :class:`MasterCtx` is the sequential (outside-region) context of the
master program.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional, Tuple

import numpy as np

from repro.mpi.ops import ReduceOp, SUM
from repro.runtime.scheduler import static_chunk, static_chunks_round_robin
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

    def compute(self, work_units: float):
        """Charge *work_units* of application computation to a CPU."""
        yield from self.runtime.cluster.node(self.node_id).compute(work_units)


class ThreadCtx(_CtxBase):
    """One OpenMP thread inside a parallel region."""

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

    def for_chunks(self, lo: int, hi: int, chunk: int) -> Iterator[Tuple[int, int]]:
        """Round-robin chunks (schedule(static, chunk))."""
        return static_chunks_round_robin(lo, hi, self.tid, self.nthreads, chunk)

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

        ParADE mode (Figure 2, right): pthread lock for intra-node
        exclusion + one ``MPI_Allreduce`` wave per encounter combining the
        current deltas of all processes; every process applies the combined
        delta to its (object-granularity) local copy — no SDSM lock, no
        twin/diff.

        SDSM mode (Figure 2, left): a distributed lock around a normal
        shared-page read-modify-write — lock round-trip, page fault, twin,
        diff at release.
        """
        view = self.scalar(shared_scalar)
        if self.runtime.mode == "parade" and shared_scalar.array.segment.object_granularity:
            yield from self.team.mutex.acquire()
            try:
                total = yield from self.team.rank_comm.allreduce(delta, op=op)
                view.raw_set(op(view.raw_get(), total))
            finally:
                self.team.mutex.release()
            return
        # conventional SDSM translation
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
    def reduce_into(self, shared_scalar, partial, op: ReduceOp = SUM):
        """The ``reduction`` clause: combine per-thread partials into the
        shared variable; returns the final value.

        ParADE mode: intra-node combine, one ``MPI_Allreduce`` per node
        team, result applied to every node's local copy — replacing the
        lock-based accumulation *and* the work-sharing barrier (§5.2.1).

        SDSM mode: each thread accumulates under the distributed lock,
        then a full barrier (the conventional translation).
        """
        view = self.scalar(shared_scalar)
        if self.runtime.mode == "parade" and shared_scalar.array.segment.object_granularity:
            def inter(merged):
                total = yield from self.team.rank_comm.allreduce(merged, op=op)
                final = op(view.raw_get(), total)
                view.raw_set(final)
                return final

            result = yield from self.team.combining(self._key("red"), partial, op, inter)
            return result
        # conventional SDSM translation: critical accumulation + barrier
        lock_id = self.runtime.lock_id_for(shared_scalar)
        yield from self.dsm_node.lock_acquire(lock_id)
        try:
            cur = yield from view.get()
            yield from view.set(op(cur, partial))
        finally:
            yield from self.dsm_node.lock_release(lock_id)
        yield from self.barrier()
        final = yield from view.get()
        # Trailing barrier: without it the unlocked read above races with
        # the next encounter's locked accumulation into the same scalar
        # (found by repro.sanitizer — a thread could observe a later
        # interval's partial sum).
        yield from self.barrier()
        return final

    def reduce_value(self, partial, op: ReduceOp = SUM):
        """Pure value reduction returning the combined value to every thread.

        ParADE mode: intra-node combine + one ``MPI_Allreduce``.

        SDSM mode: the conventional translation — a ``single`` resets a
        shared scratch variable, every thread accumulates under the
        distributed lock, and a barrier publishes the result (the pattern
        whose cost §2.2 calls "expensive ... long latency").
        """
        if self.runtime.mode == "parade":
            def inter(merged):
                total = yield from self.team.rank_comm.allreduce(merged, op=op)
                return total

            result = yield from self.team.combining(self._key("redv"), partial, op, inter)
            return result
        scratch = self.runtime.reduce_scratch()
        sview = self.scalar(scratch)

        def reset():
            yield from sview.set(0.0 if op.name == "SUM" else partial)

        yield from self.single(body_gen_fn=reset)
        lock_id = self.runtime.lock_id_for(scratch)
        yield from self.dsm_node.lock_acquire(lock_id)
        try:
            cur = yield from sview.get()
            yield from sview.set(op(float(cur), partial) if op.name != "SUM" else float(cur) + partial)
        finally:
            yield from self.dsm_node.lock_release(lock_id)
        yield from self.barrier()
        total = yield from sview.get()
        # Trailing barrier: the unlocked read above must complete on every
        # thread before any thread's *next* encounter resets the shared
        # scratch inside ``single`` (which holds the flag lock, not the
        # scratch lock — no ordering).  Without it a thread can read 0.0
        # after the reset; repro.sanitizer flagged this as a read/write
        # race on __reduce_scratch, and it surfaced as a nondeterministic
        # ZeroDivisionError in cg/sdsm.
        yield from self.barrier()
        return float(total)

    # -- single ------------------------------------------------------------------
    def single(self, body_gen_fn: Optional[Callable[[], Any]] = None, shared_scalar=None, value=None):
        """#pragma omp single.

        ParADE mode (Figure 3, right): the earliest thread of the master
        process executes the block; the result travels by ``MPI_Bcast``;
        other threads synchronise on a pthread gate — no SDSM lock, no
        barrier.  If *shared_scalar* is given, the broadcast value is
        stored to each node's local copy.

        SDSM mode (Figure 3, left): distributed lock + shared "done" flag
        page + implicit barrier.
        """
        if self.runtime.mode == "parade":
            key = self._key("sgl")
            is_first, inst = self.team.first_arriver(key)
            if not is_first:
                result = yield from self.team.wait_gate(inst, key)
                return result
            result = None
            if self.node_id == 0 and body_gen_fn is not None:
                result = yield from body_gen_fn()
                if result is None and value is not None:
                    result = value
            result = yield from self.team.rank_comm.bcast(result, root=0)
            if shared_scalar is not None:
                self.scalar(shared_scalar).raw_set(result)
            self.team.open_gate(inst, key, result)
            return result
        # conventional SDSM translation
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
            # Order the unlocked read against the next encounter's write
            # (same race shape as reduce_value's scratch read).
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
