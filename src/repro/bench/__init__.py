"""Benchmark harness: regenerates every figure of the paper's evaluation.

Every sweep is one :class:`~repro.fleet.RunSpec` grid run by
:func:`repro.fleet.run_many` (:func:`repro.bench.figures.run_grid`):

* :mod:`repro.bench.microbench` — EPCC-style directive-overhead
  programs and their sweep (Figures 6 and 7: ``critical`` and ``single``
  on ParADE vs KDSM over 1–8 nodes);
* :mod:`repro.bench.figures`    — the grid, the workload registry, the
  application execution-time series (Figures 8–11: CG, EP, Helmholtz,
  MD under the three §6.2 configurations) and the §5.1 atomic-page-update
  comparison;
* :mod:`repro.bench.autotune`   — §8's best-configuration search: the
  same grid plus ``min``;
* :mod:`repro.bench.perf`       — the virtual-time record
  ``BENCH_parade.json`` and its gate;
* :mod:`repro.bench.report`     — plain-text tables and CSV output.
"""

from repro.bench.microbench import sweep_directive
from repro.bench.figures import (
    Series,
    FigureData,
    registered_programs,
    run_grid,
    fig6_critical,
    fig7_single,
    fig8_cg,
    fig9_ep,
    fig10_helmholtz,
    fig11_md,
    atomic_update_comparison,
)
from repro.bench.report import render_table, write_csv

__all__ = [
    "sweep_directive",
    "Series",
    "FigureData",
    "registered_programs",
    "run_grid",
    "fig6_critical",
    "fig7_single",
    "fig8_cg",
    "fig9_ep",
    "fig10_helmholtz",
    "fig11_md",
    "atomic_update_comparison",
    "render_table",
    "write_csv",
]
