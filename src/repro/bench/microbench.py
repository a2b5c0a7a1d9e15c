"""EPCC-style synchronisation microbenchmarks (Figures 6 and 7).

Following Bull's methodology [19]: run the directive in a loop inside one
parallel region and report the mean time per encounter.  The paper compares
the ParADE translation (pthread lock + collective) against the KDSM
translation (distributed lock + page traffic + barrier) as the node count
grows.

:func:`critical` and :func:`single` are program factories (their one
keyword, ``iters``, is a JSON scalar, so a :class:`~repro.fleet.RunSpec`
can name them); :func:`sweep_directive` runs one of them over systems ×
node counts through :func:`repro.bench.figures.run_grid` and reads the
time per encounter off each record's ``region_time``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.fleet import make_entry
from repro.mpi.ops import SUM
from repro.runtime import TWO_THREAD_TWO_CPU, ExecConfig

#: encounters measured per run
DEFAULT_ITERS = 50

#: the systems the paper compares -> runtime mode
SYSTEMS = {"parade": "parade", "kdsm": "sdsm"}


def critical(iters: int = DEFAULT_ITERS):
    """Program: *iters* ``critical`` encounters per thread, each the
    paper's canonical analyzable critical section ``x = x + 1`` on a small
    shared scalar; checks the total."""

    def program(ctx):
        x = ctx.shared_scalar("mb_x")

        def body(tc, x):
            for _ in range(iters):
                yield from tc.critical_update(x, 1.0, SUM)

        yield from ctx.parallel(body, x)
        total = yield from ctx.scalar(x).get()
        expected = float(iters * ctx.runtime.n_threads)
        assert abs(total - expected) < 1e-6, (total, expected)
        return total

    return program


def single(iters: int = DEFAULT_ITERS):
    """Program: *iters* ``single`` encounters per thread (small init body);
    checks the value every thread gets back."""

    def program(ctx):
        v = ctx.shared_scalar("mb_v")

        def body(tc, v):
            for i in range(iters):
                def init(i=i):
                    return float(i)
                    yield  # pragma: no cover

                got = yield from tc.single(body_gen_fn=init, shared_scalar=v)
                assert got == float(i), (got, i)

        yield from ctx.parallel(body, v)

    return program


def sweep_directive(
    directive: str,
    systems: Sequence[str] = ("parade", "kdsm"),
    nodes: Sequence[int] = (1, 2, 4, 8),
    exec_config: ExecConfig = TWO_THREAD_TWO_CPU,
    iters: int = DEFAULT_ITERS,
) -> Dict[str, List[float]]:
    """Sweep a directive microbenchmark over systems × node counts.

    Returns {system: [seconds-per-op for each node count]}.
    """
    from repro.bench.figures import run_grid

    if directive not in ("critical", "single"):
        raise ValueError(f"unknown directive {directive!r}; use 'critical' or 'single'")
    for system in systems:
        if system not in SYSTEMS:
            raise ValueError(f"unknown system {system!r}; use 'parade' or 'kdsm'")
    entry = make_entry(("repro.bench.microbench", directive), {"iters": iters},
                       pool_bytes=1 << 20, note=f"{directive} x{iters}")
    records = run_grid(directive, entry, nodes, [exec_config],
                       modes=[SYSTEMS[s] for s in systems])
    per_op = [r["region_time"] / iters for r in records]
    return {s: per_op[i * len(nodes):(i + 1) * len(nodes)] for i, s in enumerate(systems)}
