"""Figure-by-figure series builders.

Each ``figN_*`` function regenerates the data behind one figure of the
paper's evaluation and returns a :class:`FigureData` whose series can be
printed (see :mod:`repro.bench.report`) and shape-checked by the pytest
benchmarks in ``benchmarks/``.  Every sweep is one :class:`RunSpec` grid
run by :func:`repro.fleet.run_many` (:func:`run_grid`), so its points fan
out across ``PARADE_JOBS`` worker processes (default: the CPU count).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.bench.microbench import sweep_directive
from repro.fleet import RunSpec, make_entry, run_many
from repro.runtime import ALL_EXEC_CONFIGS, ExecConfig
from repro.vm import OS_PROFILES

DEFAULT_NODES = (1, 2, 4, 8)


#: the seeded-racy workloads of :mod:`repro.apps.racy`: name -> factory
_RACY = {
    "racy-ww": "make_write_write",
    "racy-rw": "make_read_write",
    "racy-nobar": "make_missing_barrier",
}


def registered_programs(racy: bool = False) -> Dict[str, dict]:
    """Registry of runnable figure workloads, by name (with *racy*, the
    seeded-racy negative tests of :func:`repro.apps.racy.racy_programs`
    too, as fleet-dispatchable entries).

    Each entry maps to ``{"factory": () -> program, "factory_ref":
    (module, function), "factory_kwargs": dict, "pool_bytes": int,
    "figure": str, "note": str}`` with scaled-down default sizes suitable
    for interactive runs.  ``factory`` is the in-process callable;
    ``factory_ref`` + ``factory_kwargs`` are the serializable form the
    fleet executor ships to worker processes
    (:meth:`repro.fleet.RunSpec.from_entry`).  Consumed by every run verb
    of ``python -m repro`` and by the fleet; the full-size figure sweeps
    remain the ``figN_*`` functions below.
    """
    programs = {
        "helmholtz": make_entry(
            ("repro.apps.helmholtz", "make_program"),
            {"n": 48, "m": 48, "max_iters": 3},
            pool_bytes=1 << 21,
            note="Helmholtz/Jacobi 48x48, 3 iterations",
            figure="fig10",
        ),
        "ep": make_entry(
            ("repro.apps.ep", "make_program"),
            {"klass": "T"},
            pool_bytes=1 << 20,
            note="NAS EP class T",
            figure="fig9",
        ),
        "cg": make_entry(
            ("repro.apps.cg", "make_program"),
            {"klass": "S", "niter": 1},
            pool_bytes=1 << 23,
            note="NAS CG class S, 1 outer iteration",
            figure="fig8",
        ),
        "md": make_entry(
            ("repro.apps.md", "make_program"),
            {"n_particles": 48, "steps": 2},
            pool_bytes=1 << 21,
            note="MD 48 particles, 2 steps",
            figure="fig11",
        ),
    }
    if racy:
        from repro.apps.racy import racy_programs

        for name, entry in racy_programs().items():
            programs[name] = make_entry(
                ("repro.apps.racy", _RACY[name]), {}, pool_bytes=entry["pool_bytes"],
                note=entry["note"], figure=entry["figure"],
            )
    return programs


@dataclass
class Series:
    label: str
    x: List[float]
    y: List[float]


@dataclass
class FigureData:
    figure: str
    title: str
    xlabel: str
    ylabel: str
    series: List[Series] = field(default_factory=list)

    def by_label(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"no series {label!r} in {self.figure}")


# ----------------------------------------------------------------------
# the one sweep path: a RunSpec grid through the fleet
# ----------------------------------------------------------------------
def run_grid(
    workload: str,
    entry: Dict,
    nodes: Sequence[int] = DEFAULT_NODES,
    exec_configs: Sequence[ExecConfig] = ALL_EXEC_CONFIGS,
    modes: Sequence[str] = ("parade",),
) -> List[Dict]:
    """Run workload-registry *entry* at every (mode, exec config, node
    count) through :func:`repro.fleet.run_many`; returns the records in
    that order (node count varying fastest).

    Every figure, :func:`~repro.bench.microbench.sweep_directive` and
    :func:`~repro.bench.autotune.find_best_config` reads its numbers from
    these records.  A point that fails raises, naming the point and the
    error: a figure never plots a hole.
    """
    grid = list(itertools.product(modes, exec_configs, nodes))
    specs = [
        RunSpec.from_entry(workload, entry, mode=mode, exec_name=ec.name, n_nodes=n)
        for mode, ec, n in grid
    ]
    records = run_many(specs).records
    for (mode, ec, n), rec in zip(grid, records):
        if not rec["ok"]:
            raise RuntimeError(
                f"{workload} failed at {n} nodes, {ec.name}, mode={mode}: {rec['error']}"
            )
    return records


# ----------------------------------------------------------------------
# Figures 6 and 7: microbenchmarks
# ----------------------------------------------------------------------
def _directive_figure(figure: str, directive: str, nodes: Sequence[int],
                      iters: int) -> FigureData:
    data = sweep_directive(directive, nodes=list(nodes), iters=iters)
    fd = FigureData(
        figure=figure,
        title=f"{directive} directive: ParADE vs KDSM",
        xlabel="nodes",
        ylabel=f"time per {directive} (us)",
    )
    for system, ys in data.items():
        fd.series.append(Series(system, list(nodes), [y * 1e6 for y in ys]))
    return fd


def fig6_critical(nodes: Sequence[int] = DEFAULT_NODES, iters: int = 50) -> FigureData:
    return _directive_figure("fig6", "critical", nodes, iters)


def fig7_single(nodes: Sequence[int] = DEFAULT_NODES, iters: int = 50) -> FigureData:
    return _directive_figure("fig7", "single", nodes, iters)


# ----------------------------------------------------------------------
# Figures 8-11: application execution time, 3 configurations x nodes
# ----------------------------------------------------------------------
def _app_figure(
    figure: str, title: str, app: str, kwargs: Dict, nodes: Sequence[int], pool_bytes: int
) -> FigureData:
    entry = make_entry((f"repro.apps.{app}", "make_program"), kwargs,
                       pool_bytes=pool_bytes, note=title)
    records = run_grid(app, entry, nodes)
    fd = FigureData(
        figure=figure, title=title, xlabel="nodes", ylabel="execution time (ms, virtual)"
    )
    for i, ec in enumerate(ALL_EXEC_CONFIGS):
        ys = records[i * len(nodes):(i + 1) * len(nodes)]
        fd.series.append(Series(ec.name, list(nodes), [r["virtual_s"] * 1e3 for r in ys]))
    return fd


def fig8_cg(
    klass: str = "S", niter: int = 3, nodes: Sequence[int] = DEFAULT_NODES
) -> FigureData:
    return _app_figure("fig8", f"NAS CG class {klass} on cLAN", "cg",
                       {"klass": klass, "niter": niter}, nodes, pool_bytes=1 << 23)


def fig9_ep(klass: str = "T", nodes: Sequence[int] = DEFAULT_NODES) -> FigureData:
    return _app_figure("fig9", f"NAS EP class {klass} on cLAN", "ep",
                       {"klass": klass}, nodes, pool_bytes=1 << 20)


def fig10_helmholtz(
    n: int = 256, m: int = 256, max_iters: int = 25, nodes: Sequence[int] = DEFAULT_NODES
) -> FigureData:
    return _app_figure("fig10", f"Helmholtz {n}x{m} on cLAN", "helmholtz",
                       {"n": n, "m": m, "max_iters": max_iters}, nodes, pool_bytes=1 << 22)


def fig11_md(
    n_particles: int = 256, steps: int = 5, nodes: Sequence[int] = DEFAULT_NODES
) -> FigureData:
    return _app_figure("fig11", f"MD n={n_particles} on cLAN", "md",
                       {"n_particles": n_particles, "steps": steps}, nodes, pool_bytes=1 << 21)


# ----------------------------------------------------------------------
# §5.1: atomic page update strategies
# ----------------------------------------------------------------------
def atomic_update_comparison(
    n_updates: int = 200, os_profiles: Sequence[str] = tuple(OS_PROFILES)
) -> FigureData:
    """Mean page-update cost per strategy per OS profile (§5.1's finding:
    all comparable on Linux; file mapping poor on AIX)."""
    unknown = [p for p in os_profiles if p not in OS_PROFILES]
    if unknown:
        raise ValueError(f"os_profiles must be in {tuple(OS_PROFILES)}, got {unknown!r}")
    from repro.sim import Simulator
    from repro.vm import (
        PhysicalMemory,
        AddressSpace,
        PROT_NONE,
        PROT_READ,
        strategy_by_name,
        STRATEGY_NAMES,
    )
    from repro.vm.strategies import SimpleExecutor

    fd = FigureData(
        figure="sec5.1",
        title="atomic page update strategies",
        xlabel="strategy",
        ylabel="us per page update",
    )
    page = bytes(range(256)) * 16  # 4096 bytes
    for prof_name in os_profiles:
        xs, ys = [], []
        for i, name in enumerate(STRATEGY_NAMES):
            sim = Simulator()
            phys = PhysicalMemory(1, 4096)
            space = AddressSpace(phys)
            space.map_identity(1, prot=PROT_NONE)
            strat = strategy_by_name(name, profile=OS_PROFILES[prof_name])
            ex = SimpleExecutor(sim)

            def run():
                for _ in range(n_updates):
                    space.protect(0, PROT_NONE)
                    yield from strat.update_page(ex, space, 0, page, PROT_READ)

            proc = sim.process(run())
            sim.run_until_complete(proc)
            xs.append(i)
            ys.append(sim.now / n_updates * 1e6)
        fd.series.append(Series(prof_name, xs, ys))
    fd.xlabel = " / ".join(STRATEGY_NAMES)
    return fd
