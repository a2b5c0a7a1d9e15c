"""Quickstart: run an OpenMP-style program on a simulated SMP cluster.

A ParADE program is a generator taking a master context.  Parallel regions
fork threads across every node of the cluster; inside a region the thread
context exposes the OpenMP directives (for_range, barrier, critical,
reduction, single).  The runtime's ``mode`` picks their translation:
``"parade"`` (the hybrid one) or ``"sdsm"`` (the conventional one).

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.runtime import ParadeRuntime, TWO_THREAD_TWO_CPU
from repro.mpi.ops import SUM

N = 100_000


def program(ctx):
    # shared data: a big array (HLRC pages) and a small scalar (<= 256 B,
    # automatically placed under the message-passing update protocol)
    data = ctx.shared_array("data", (N,))
    total = ctx.shared_scalar("total")

    def body(tc, data, total):
        lo, hi = tc.for_range(0, N)          # omp for, schedule(static)
        view = tc.array(data)
        yield from view.set(np.sqrt(np.arange(lo, hi, dtype=np.float64)), start=lo)
        yield from tc.compute((hi - lo) * 3)  # charge virtual CPU time
        yield from tc.barrier()               # omp barrier

        mine = yield from view.get(lo, hi)    # faults fetch remote pages
        partial = float(np.sum(mine))
        # reduction(+: total) -> one MPI_Allreduce in ParADE mode
        result = yield from tc.reduce_into(total, partial, SUM)

        # omp single: earliest thread runs it, result broadcast
        def announce():
            return round(result, 3)
            yield

        got = yield from tc.single(body_gen_fn=announce)
        return got

    results = yield from ctx.parallel(body, data, total)
    final = yield from ctx.scalar(total).get()
    return float(final)


def main():
    rt = ParadeRuntime(
        n_nodes=4,                      # 4 simulated dual-CPU nodes
        exec_config=TWO_THREAD_TWO_CPU, # 2 compute threads + comm thread each
        mode="parade",                  # the hybrid translation
        pool_bytes=1 << 21,
    )
    res = rt.run(program)
    expected = float(np.sum(np.sqrt(np.arange(N, dtype=np.float64))))
    print(f"sum of sqrt(0..{N})  = {res.value:.3f} (expected {expected:.3f})")
    print(f"virtual execution    = {res.elapsed * 1e3:.3f} ms on the simulated cluster")
    print()
    print(res.summary())


if __name__ == "__main__":
    main()
