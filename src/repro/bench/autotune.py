"""Adaptive configuration search (§8 future work).

"As the experimental results show, more processors do not always give
better performance.  For a given problem, we want to find the best
configuration ...  We may dynamically determine a proper number of
processors and threads."  This module does that over the simulator: run
the workload across a configuration grid (one
:func:`repro.bench.figures.run_grid` sweep) and return the fastest,
together with the full measurement table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.bench.figures import run_grid
from repro.runtime import ALL_EXEC_CONFIGS, ExecConfig


@dataclass(frozen=True)
class TunePoint:
    n_nodes: int
    exec_config: ExecConfig
    elapsed: float

    @property
    def label(self) -> str:
        return f"{self.n_nodes}n/{self.exec_config.name}"


@dataclass
class TuneResult:
    best: TunePoint
    points: List[TunePoint]

    def table(self) -> str:
        lines = [f"{'configuration':>24} {'time (ms)':>12}"]
        for p in sorted(self.points, key=lambda p: p.elapsed):
            marker = "  <-- best" if p == self.best else ""
            lines.append(f"{p.label:>24} {p.elapsed * 1e3:>12.3f}{marker}")
        return "\n".join(lines)


def find_best_config(
    entry: Dict,
    nodes: Sequence[int] = (1, 2, 4, 8),
    exec_configs: Sequence[ExecConfig] = ALL_EXEC_CONFIGS,
    mode: str = "parade",
) -> TuneResult:
    """Sweep (node count × exec config) of workload-registry *entry*
    (the shape :func:`repro.bench.figures.registered_programs` returns)
    and pick the fastest run.  Deterministic: one run per point suffices.
    """
    records = run_grid(entry["note"], entry, nodes, exec_configs, modes=(mode,))
    points = [
        TunePoint(n, ec, rec["virtual_s"])
        for (ec, n), rec in zip(itertools.product(exec_configs, nodes), records)
    ]
    best = min(points, key=lambda p: p.elapsed)
    return TuneResult(best=best, points=points)
