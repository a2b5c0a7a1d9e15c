"""Pure message-passing (MPI) versions of the workloads.

The paper's conclusion positions ParADE "between those of an SDSM
application and a pure MPI application"; these hand-written MPI programs
give the fast end of that bracket.  They run one rank per node directly on
the :mod:`repro.mpi` communicator — no DSM, no page traffic, explicit halo
exchanges and reductions only, exactly how an MPI programmer would write
them (and the extra effort §1 says programmers would rather avoid).
"""

from __future__ import annotations

from functools import partial
from typing import Tuple

import numpy as np

from repro.mpi.ops import SUM
from repro.apps import ep as ep_mod
from repro.apps import helmholtz as hh_mod
from repro.runtime.scheduler import static_chunk


def ep_rank_main(rc, cluster, klass: str = "T"):
    """Pure-MPI NAS EP for one rank: local tally + one Allreduce."""
    n_pairs = 1 << ep_mod.CLASSES[klass]
    lo, hi = static_chunk(0, n_pairs, rc.rank, rc.size)
    tally = partial(ep_mod.ep_segment, lo, hi - lo)
    local = yield from cluster.node(rc.rank).compute((hi - lo) * ep_mod.WORK_UNITS_PER_PAIR, tally)
    merged = (local.sx, local.sy, tuple(local.counts.tolist()))
    total = yield from rc.allreduce(merged, op=SUM)
    return ep_mod.EpResult(
        sx=total[0], sy=total[1], counts=np.asarray(total[2]), n_pairs=n_pairs
    )


def helmholtz_rank_main(
    rc,
    cluster,
    n: int = 64,
    m: int = 64,
    alpha: float = hh_mod.DEFAULT_ALPHA,
    relax: float = hh_mod.DEFAULT_RELAX,
    tol: float = hh_mod.DEFAULT_TOL,
    max_iters: int = 100,
):
    """Pure-MPI Jacobi/Helmholtz for one rank.

    Row-block decomposition with explicit halo exchange (one send/recv
    pair per neighbour per iteration) and an Allreduce for the residual —
    the classic MPI stencil structure.
    """
    f, ax, ay, b = hh_mod._setup(n, m, alpha)
    lo, hi = static_chunk(1, n - 1, rc.rank, rc.size)  # interior rows
    # local block with one halo row on each side
    block = np.zeros((hi - lo + 2, m))
    up = rc.rank - 1 if rc.rank > 0 else None
    down = rc.rank + 1 if rc.rank < rc.size - 1 else None

    error = tol + 1.0
    k = 0
    while k < max_iters and error > tol:
        # halo exchange (boundary rows of the grid are fixed zeros)
        if up is not None:
            yield from rc.send(block[1].copy(), up, tag=("halo_up", k))
        if down is not None:
            yield from rc.send(block[-2].copy(), down, tag=("halo_dn", k))
        if down is not None:
            block[-1] = yield from rc.recv(source=down, tag=("halo_up", k))
        if up is not None:
            block[0] = yield from rc.recv(source=up, tag=("halo_dn", k))

        new_rows, sq = hh_mod._sweep_rows(block, f, lo, hi, ax, ay, b, relax)
        yield from cluster.node(rc.rank).compute((hi - lo) * m * hh_mod.WORK_PER_POINT)
        block[1:-1] = new_rows
        total_sq = yield from rc.allreduce(sq, op=SUM)
        error = np.sqrt(total_sq) / (n * m)
        k += 1

    # gather the solution at rank 0
    mine = block[1:-1].copy()
    parts = yield from rc.gather((lo, hi, mine), root=0)
    if rc.rank == 0:
        u = np.zeros((n, m))
        for plo, phi, rows in parts:
            u[plo:phi] = rows
        return hh_mod.HelmholtzResult(u=u, error=error, iterations=k)
    return hh_mod.HelmholtzResult(u=np.zeros((0, 0)), error=error, iterations=k)


def run_pure_mpi(rank_main_factory, n_nodes: int, cluster_config=None) -> Tuple[object, float]:
    """Run a pure-MPI program (one rank per node); returns
    (rank-0 result, elapsed virtual seconds)."""
    from repro.cluster import Cluster, ClusterConfig
    from repro.mpi import CommThread, Communicator

    cc = (cluster_config or ClusterConfig()).with_nodes(n_nodes)
    cluster = Cluster(cc)
    cts = [CommThread(node, cluster.network) for node in cluster.nodes]
    for ct in cts:
        ct.start()
    comm = Communicator(cluster, cts)
    procs = [
        cluster.sim.process(rank_main_factory(comm.rank(r), cluster), label=f"mpi[{r}]")
        for r in range(n_nodes)
    ]
    cluster.sim.run()
    for p in procs:
        if not p.ok:
            raise p.value
    elapsed = cluster.sim.now
    for ct in cts:
        ct.shutdown()
    cluster.sim.run()
    return procs[0].value, elapsed
