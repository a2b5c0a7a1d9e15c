"""Test/benchmark support: one-line builders for common stacks.

Used by the unit tests and the figure benchmarks; also convenient in user
scripts that want a raw cluster/DSM without the full runtime.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster import Cluster, ClusterConfig
from repro.mpi import CommThread, Communicator
from repro.dsm import DsmSystem
from repro.dsm.config import DsmConfig, PARADE_DSM


def build_cluster(n_nodes: int = 4, cpus: int = 2, **kw) -> Cluster:
    """A simulated cluster with *n_nodes* SMP nodes."""
    return Cluster(ClusterConfig(n_nodes=n_nodes, cpus_per_node=cpus, **kw))


def build_comm(cluster: Cluster):
    """Started comm threads + a communicator over *cluster*."""
    cts = [CommThread(n, cluster.network) for n in cluster.nodes]
    for ct in cts:
        ct.start()
    return cts, Communicator(cluster, cts)


def build_dsm(
    n_nodes: int = 4,
    dsm_config: Optional[DsmConfig] = None,
    pool_bytes: int = 1 << 20,
    cpus: int = 2,
    **cluster_kw,
):
    """Cluster (*cluster_kw*: further ``ClusterConfig`` fields) + started
    comm threads + DSM system."""
    cluster = build_cluster(n_nodes, cpus=cpus, **cluster_kw)
    cts = [CommThread(n, cluster.network) for n in cluster.nodes]
    for ct in cts:
        ct.start()
    cfg = (dsm_config or PARADE_DSM).replace(pool_bytes=pool_bytes)
    dsm = DsmSystem(cluster, cts, cfg)
    return cluster, cts, dsm


def run_all(cluster: Cluster, generators, labels: Optional[List[str]] = None):
    """Spawn one process per generator, run to completion, return values.

    Raises if any process deadlocks or fails."""
    labels = labels or [f"p{i}" for i in range(len(generators))]
    procs = [cluster.sim.process(g, label=l) for g, l in zip(generators, labels)]
    cluster.sim.run()
    for p in procs:
        assert p.processed, f"{p.label} never finished (deadlock?)"
        if not p.ok:
            raise p.value
    return [p.value for p in procs]
