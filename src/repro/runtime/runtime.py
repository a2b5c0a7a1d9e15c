"""ParadeRuntime: wiring + fork-join region engine.

Builds the whole stack for one program run: simulated cluster, per-node
communication threads, DSM system, MPI communicator.  The master program is
a generator ``program(master_ctx)`` running on node 0; worker nodes run
agent loops that wait on a fork broadcast, execute the region's local
threads, and synchronise at the region-end barrier — the fork-join
execution model of §4.1 realised with messages.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.sim import AllOf
from repro.sim.probe import CAT_AUDIT, PH_FORK_JOIN, bracket, waiting
from repro.cluster import Cluster, ClusterConfig
from repro.mpi import CommThread, Communicator
from repro.dsm import DsmSystem, SharedArray, SharedScalar
from repro.dsm.config import DsmConfig, PARADE_DSM, KDSM_BASELINE
from repro.runtime.exec_config import ExecConfig, TWO_THREAD_TWO_CPU
from repro.runtime.team import NodeTeam
from repro.runtime.context import MasterCtx, ParadeThreadCtx, ThreadCtx
from repro.runtime.results import RunResult

#: §5.2.1 — shared data up to this size switches to the message-passing
#: (update) protocol; larger data stays under HLRC.
HYBRID_THRESHOLD_BYTES = 256


def hybrid_row(footprint_bytes: int, analyzable: bool) -> bool:
    """Whether a directive takes the hybrid row of Figs 2–3 (pthread lock +
    collective, data under the update protocol) rather than the conventional
    one (SDSM lock, flag, barrier; data under HLRC) — the one classifier."""
    return analyzable and footprint_bytes <= HYBRID_THRESHOLD_BYTES


#: mode -> (thread-context class, default DSM preset, whether the translation
#: analyzes directives): the one place a run's translation is chosen.
_TRANSLATIONS = {
    "parade": (ParadeThreadCtx, PARADE_DSM, True),
    "sdsm": (ThreadCtx, KDSM_BASELINE, False),
}


class ParadeRuntime:
    """One program run on one simulated cluster.

    Parameters
    ----------
    n_nodes : cluster size (paper sweeps 1..8)
    exec_config : one of the §6.2 thread/CPU configurations
    mode : ``"parade"`` (hybrid translation) or ``"sdsm"`` (conventional)
    dsm_config : protocol preset; defaults to PARADE_DSM or KDSM_BASELINE
        according to *mode*
    protocol_accel : turn on the protocol accelerator — write-notice/diff
        batching and adaptive home migration with update push — on top
        of whatever *dsm_config* resolves to (see
        :meth:`DsmConfig.accelerated` and docs/PERFORMANCE.md)
    hierarchical : turn on hierarchical synchronization — fan-in-4 tree
        barrier with in-tree write-notice merging — on top of whatever
        *dsm_config* resolves to (see
        :meth:`DsmConfig.hierarchical` and docs/PERFORMANCE.md "Scaling");
        composes with *protocol_accel*
    cluster_config : hardware model override (interconnect, speeds, costs)
    sanitize : attach the happens-before sanitizer; the attached instance
        is available as :attr:`sanitizer`
    profile : attach a virtual-time :class:`~repro.profile.Profiler`;
        the attached instance is available as :attr:`profiler` (finalized
        automatically when :meth:`run` returns)
    fault_plan : a :class:`~repro.chaos.FaultPlan` to execute the run
        under; builds a :class:`~repro.chaos.ChaosEngine` (available as
        :attr:`chaos`), installs it as the cluster network's link layer,
        and reports its counters through ``RunResult.chaos_stats``
    chaos_seed : seed of the engine's per-link fault streams (one
        (plan, seed) pair reproduces every fault bit-for-bit)
    reliability : optional :class:`~repro.chaos.ReliabilityConfig`
        overriding the plan's ack/retransmit tuning
    metrics : attach a live :class:`~repro.metrics.Metrics` with the
        stock per-layer sources installed (available as :attr:`metrics`,
        finalized automatically when :meth:`run` returns)
    metrics_period : sampling grid spacing in virtual seconds
    """

    def __init__(
        self,
        n_nodes: int = 8,
        exec_config: ExecConfig = TWO_THREAD_TWO_CPU,
        mode: str = "parade",
        dsm_config: Optional[DsmConfig] = None,
        protocol_accel: bool = False,
        hierarchical: bool = False,
        cluster_config: Optional[ClusterConfig] = None,
        pool_bytes: Optional[int] = None,
        sanitize: bool = False,
        profile: bool = False,
        fault_plan=None,
        chaos_seed: int = 0,
        reliability=None,
        metrics: bool = False,
        metrics_period: float = 1e-4,
    ):
        if mode not in _TRANSLATIONS:
            raise ValueError(f"mode must be 'parade' or 'sdsm', got {mode!r}")
        self._thread_ctx, default_dc, self._analyzable = _TRANSLATIONS[mode]
        self.exec_config = exec_config

        base_cc = cluster_config or ClusterConfig()
        cc = base_cc.with_nodes(n_nodes).with_cpus(exec_config.cpus_per_node)
        self.cluster = Cluster(cc)
        self.sim = self.cluster.sim

        self.comm_threads = [CommThread(n, self.cluster.network) for n in self.cluster.nodes]
        for ct in self.comm_threads:
            ct.start()

        dc = dsm_config or default_dc
        if protocol_accel:
            dc = dc.accelerated()
        if hierarchical:
            dc = dc.hierarchical()
        if pool_bytes is not None:
            dc = dc.replace(pool_bytes=pool_bytes)
        self.dsm = DsmSystem(self.cluster, self.comm_threads, dc)
        self.comm = Communicator(self.cluster, self.comm_threads)

        self.sanitizer = None
        if sanitize:
            from repro.sanitizer import Sanitizer

            self.sanitizer = Sanitizer(
                self.sim, n_nodes=self.cluster.n_nodes, page_size=cc.page_size
            )
        self.profiler = None
        if profile:
            from repro.profile import Profiler

            self.profiler = Profiler(self.sim)
        self.chaos = None
        if fault_plan is not None:
            from repro.chaos import ChaosEngine

            self.chaos = ChaosEngine(
                self.sim, fault_plan, seed=chaos_seed, reliability=reliability
            )
            self.chaos.install(self.cluster)
        self.metrics = None
        if metrics:
            from repro.metrics import Metrics, install_default_sources

            self.metrics = Metrics(self.sim, period=metrics_period)
            install_default_sources(self.metrics, self)
        from repro.runtime.dynamic import DynamicScheduler

        self.dynamic_scheduler = DynamicScheduler(self)

        self.threads_per_node = exec_config.threads_per_node
        self.n_threads = n_nodes * self.threads_per_node

        self._region: Optional[tuple] = None
        self._region_seq = 0
        self._lock_ids: Dict[Any, int] = {}
        self._lock_seq = itertools.count(100)
        self._single_flag: Optional[SharedScalar] = None
        self.region_time = 0.0
        self._finished = False

    # ------------------------------------------------------------------
    # shared data factories (the §5.2.1 size switch lives here)
    # ------------------------------------------------------------------
    def shared_array(
        self,
        name: str,
        shape,
        dtype=np.float64,
        page_align: bool = True,
        force_object: Optional[bool] = None,
    ) -> SharedArray:
        """Allocate a shared array.  Arrays that :func:`hybrid_row` puts on
        the hybrid row go under the update protocol."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(np.atleast_1d(shape))) * dtype.itemsize
        obj = hybrid_row(nbytes, self._analyzable) if force_object is None else force_object
        return SharedArray.allocate(
            self.dsm,
            name,
            shape,
            dtype=dtype,
            page_align=page_align and not obj,
            object_granularity=obj,
        )

    def shared_scalar(self, name: str, dtype=np.float64) -> SharedScalar:
        """Allocate a shared scalar, placed by the same size rule."""
        return SharedScalar(
            self.dsm, name, dtype=dtype,
            object_granularity=hybrid_row(np.dtype(dtype).itemsize, self._analyzable),
        )

    def lock_id_for(self, key) -> int:
        """Stable distributed-lock id for a shared variable / name.

        Value-like keys (strings, ints, tuples of them) map by value;
        other objects (shared arrays/scalars) map by identity."""
        if isinstance(key, (str, int, tuple)):
            k = key
        else:
            k = id(key)
        if k not in self._lock_ids:
            self._lock_ids[k] = next(self._lock_seq)
        return self._lock_ids[k]

    def reduce_scratch(self) -> SharedScalar:
        """Shared scratch accumulator for the conventional value reduction."""
        if getattr(self, "_reduce_scratch", None) is None:
            self._reduce_scratch = SharedScalar(
                self.dsm, "__reduce_scratch", dtype=np.float64, object_granularity=False
            )
        return self._reduce_scratch

    def single_flag(self) -> SharedScalar:
        """The shared generation flag used by the conventional `single`."""
        if self._single_flag is None:
            self._single_flag = SharedScalar(
                self.dsm, "__single_flag", dtype=np.int64, object_granularity=False
            )
        return self._single_flag

    # ------------------------------------------------------------------
    # fork-join engine
    # ------------------------------------------------------------------
    def run_region(self, body: Callable, args: tuple, threads_per_node: Optional[int]):
        """Master side of a parallel region (generator)."""
        tpn = threads_per_node or self.threads_per_node
        self._region = (body, args, tpn)
        self._region_seq += 1
        t0 = self.sim.now
        # fork: broadcast the region command to the node agents
        yield from self.comm.rank(0).bcast(("region", self._region_seq), root=0)
        results = yield from self._run_region_on_node(0)
        self.region_time += self.sim.now - t0
        pb = self.sim.probe
        if pb is not None and "runtime" in pb.heard:
            pb.span("runtime", "region", t0, node=0,
                    seq=self._region_seq, threads_per_node=tpn)
        return results

    def _agent_loop(self, node_id: int):
        """Worker-node agent: wait for fork commands until shutdown."""
        while True:
            cmd = yield from self.comm.rank(node_id).bcast(None, root=0)
            if cmd[0] == "shutdown":
                return
            yield from self._run_region_on_node(node_id)

    def _run_region_on_node(self, node_id: int):
        body, args, tpn = self._region
        t0 = self.sim.now
        # region-start consistency point: master's sequential writes flush,
        # stale worker copies invalidate
        yield from self.dsm.node(node_id).barrier()
        team = NodeTeam(self, node_id, tpn, self._region_seq)
        procs = [
            self.sim.process(
                self._thread_main(self._thread_ctx(self, team, node_id, lt), body, args),
                label=f"omp[{node_id}.{lt}]r{self._region_seq}",
            )
            for lt in range(tpn)
        ]
        pb = self.sim.probe
        audited = pb is not None and CAT_AUDIT in pb.heard
        if audited:
            children = [p.label for p in procs]
            pb.instant(CAT_AUDIT, "fork", children=children)
        # master/agent waiting for the region's local threads to join
        joined = yield from bracket(
            self.sim, PH_FORK_JOIN, waiting(AllOf(self.sim, procs))
        )
        if audited:
            pb.instant(CAT_AUDIT, "join", children=children)
        if pb is not None and "runtime" in pb.heard:
            pb.span("runtime", "node-region", t0, node=node_id, seq=self._region_seq)
        return [joined[i] for i in range(len(procs))]

    def _thread_main(self, tc: ThreadCtx, body: Callable, args: tuple):
        result = yield from body(tc, *args)
        # the implicit barrier at the end of a parallel region
        yield from tc.barrier()
        return result

    # ------------------------------------------------------------------
    # top-level run
    # ------------------------------------------------------------------
    def run(self, program: Callable, *args, time_limit: Optional[float] = None) -> RunResult:
        """Execute generator ``program(master_ctx, *args)`` to completion.

        Returns a :class:`RunResult` with the program's return value and
        the virtual-time / protocol statistics.
        """
        if self._finished:
            raise RuntimeError("a ParadeRuntime instance runs exactly one program")
        agents = [
            self.sim.process(self._agent_loop(nid), label=f"agent[{nid}]")
            for nid in range(1, self.cluster.n_nodes)
        ]

        def master_main():
            ctx = MasterCtx(self)
            value = yield from program(ctx, *args)
            yield from self.comm.rank(0).bcast(("shutdown",), root=0)
            return value

        master = self.sim.process(master_main(), label="master")
        value = self.sim.run_until_complete(master, limit=time_limit)
        for ag in agents:
            if not ag.processed:
                self.sim.run_until_complete(ag, limit=time_limit)
        elapsed = self.sim.now
        for ct in self.comm_threads:
            ct.shutdown()
        self.sim.run()
        self._finished = True
        if self.profiler is not None:
            self.profiler.finalize()
        if self.metrics is not None:
            self.metrics.finalize()
        profile = []
        for n in self.cluster.nodes:
            busy = n.cpus.total_busy_time
            cap = n.cpus.capacity * max(elapsed, 1e-30)
            profile.append(
                {
                    "node": n.id,
                    "mhz": self.cluster.config.cpu_mhz[n.id],
                    "compute": n.compute_time,
                    "overhead": n.overhead_time,
                    "busy_frac": min(1.0, busy / cap),
                    "msgs_sent": n.msgs_sent,
                    "bytes_sent": n.bytes_sent,
                }
            )
        return RunResult(
            value=value,
            elapsed=elapsed,
            region_time=self.region_time,
            cluster_stats=self.cluster.stats(),
            dsm_stats=self.dsm.stats(),
            mpi_stats={
                "p2p": self.comm.n_p2p,
                "collectives": self.comm.n_collectives,
            },
            node_profile=profile,
            chaos_stats=(
                self.chaos.stats.as_dict() if self.chaos is not None else {}
            ),
        )
