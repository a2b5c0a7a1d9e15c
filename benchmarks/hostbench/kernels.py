"""Per-layer microkernels: direct calls into each layer's public functions.

Workload-independent: every kernel builds the smallest stack that
exercises one mechanism (through the ``repro.testing`` builders), loops
it for at least ``min_s`` host seconds, and reports host microseconds per
operation — or a rate where the name says so.  Stack construction is
outside the timed region; for simulated kernels the timed region is the
event loop draining the operations.

``seed`` fills the page contents the diff kernels work on.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, Tuple

HERE = Path(__file__).resolve().parent
PAGE = 4096
DOUBLES_PER_PAGE = PAGE // 8


def _loop(once: Callable[[], Tuple[float, int]], min_s: float) -> Tuple[float, int]:
    """Repeat ``once() -> (timed seconds, operations)`` until *min_s* of
    timed work has accumulated; returns the totals."""
    total_s, total_ops = 0.0, 0
    while total_s < min_s:
        s, ops = once()
        total_s += s
        total_ops += ops
    return total_s, total_ops


def _us_per_op(once, min_s: float) -> float:
    s, ops = _loop(once, min_s)
    return s / ops * 1e6


def _expect(actual: int, wanted: int, what: str) -> None:
    """A kernel that did not do the work it is named for measured
    something else: fail it instead of reporting the number."""
    if actual != wanted:
        raise RuntimeError(f"kernel did {actual} {what}, expected {wanted}")


def _timed(fn: Callable[[], object]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# ---------------------------------------------------------------- sim
def _sim_timeout(n: int):
    from repro.sim import Simulator

    def once():
        sim = Simulator()

        def proc():
            for _ in range(n):
                yield sim.timeout(1e-6)

        for _ in range(4):
            sim.process(proc())
        return _timed(sim.run), sim.events_processed

    return once


def _sim_handoff(n: int):
    from repro.sim import Simulator

    def once():
        sim = Simulator()
        ev = {"a": sim.event(), "b": sim.event()}

        def a():
            for _ in range(n):
                ev["b"].succeed()
                yield ev["a"]
                ev["a"] = sim.event()

        def b():
            for _ in range(n):
                yield ev["b"]
                ev["b"] = sim.event()
                ev["a"].succeed()

        sim.process(a())
        sim.process(b())
        return _timed(sim.run), sim.events_processed

    return once


# ------------------------------------------------------------ cluster
def _cluster_send(n: int):
    from repro.testing import build_cluster, run_all

    def once():
        cluster = build_cluster(2)

        def sender():
            for i in range(n):
                yield from cluster.network.send(0, 1, 64, i, tag=("hb",))

        def receiver():
            for _ in range(n):
                yield cluster.nodes[1].inbox.get()

        return _timed(lambda: run_all(cluster, [sender(), receiver()])), n

    return once


# ----------------------------------------------------------------- vm
def _vm_space():
    from repro.vm import PROT_READ, PROT_RW, AddressSpace, PhysicalMemory

    space = AddressSpace(PhysicalMemory(1024, PAGE))
    space.map_identity(1024, prot=PROT_READ)
    for p in range(0, 1024, 3):
        space.protect(p, PROT_RW)
    return space


def _vm_check_range(n: int):
    space = _vm_space()

    def once():
        def body():
            for _ in range(n):
                space.check_range(PAGE - 32, 64, write=False)  # straddles 2 pages

        return _timed(body), n

    return once


def _vm_view(n: int):
    space = _vm_space()

    def once():
        def body():
            for _ in range(n):
                space.view(5 * PAGE, 4 * PAGE)

        return _timed(body), n

    return once


# ---------------------------------------------------------------- dsm
def _float_update_page(seed: int):
    """A page of doubles after a Jacobi-style update: every value nudged,
    high bytes mostly unchanged -> many short runs (the distribution the
    CG/Helmholtz updates produce)."""
    import numpy as np

    from repro.dsm.diffs import make_twin

    rng = np.random.default_rng(seed)
    vals = rng.random(DOUBLES_PER_PAGE)
    twin = make_twin(vals.view(np.uint8))
    vals += rng.random(DOUBLES_PER_PAGE) * 1e-3
    return twin, vals.view(np.uint8).copy()


def _dsm_compute_diff(n: int, seed: int):
    from repro.dsm.diffs import compute_diff

    twin, current = _float_update_page(seed)

    def once():
        def body():
            for _ in range(n):
                compute_diff(twin, current)

        return _timed(body), n

    return once


def _dsm_apply_diff(n: int, seed: int):
    from repro.dsm.diffs import apply_diff, compute_diff, make_twin

    twin, current = _float_update_page(seed)
    diff = compute_diff(twin, current)
    target = make_twin(twin)

    def once():
        def body():
            for _ in range(n):
                apply_diff(target, diff)

        return _timed(body), n

    return once


def _dsm_pages(n_pages: int):
    """2-node DSM with an *n_pages* array homed on node 0."""
    from repro.dsm import SharedArray
    from repro.testing import build_dsm

    cluster, _cts, dsm = build_dsm(2, pool_bytes=(n_pages + 16) * PAGE)
    arr = SharedArray.allocate(dsm, "hb", (n_pages * DOUBLES_PER_PAGE,))
    return cluster, dsm, arr


def _touch_pages(arr, node: int, n_pages: int, write: bool):
    view = arr.on(node)
    for p in range(n_pages):
        i = p * DOUBLES_PER_PAGE
        if write:
            yield from view.set_scalar(i, float(p + 1))
        else:
            yield from view.get_scalar(i)


def _dsm_read_fault(n_pages: int):
    from repro.testing import run_all

    def once():
        cluster, dsm, arr = _dsm_pages(n_pages)
        s = _timed(lambda: run_all(cluster, [_touch_pages(arr, 1, n_pages, False)]))
        _expect(dsm.node(1).stats.pages_fetched, n_pages, "page fetches")
        return s, n_pages

    return once


def _dsm_write_flush(n_pages: int):
    """Per page: write fault on a valid copy (twin), then the barrier
    flush (diff to the home, ack).  The fetches happen untimed first."""
    from repro.testing import run_all

    def once():
        cluster, dsm, arr = _dsm_pages(n_pages)
        run_all(cluster, [_touch_pages(arr, 1, n_pages, False)])

        def writer():
            yield from _touch_pages(arr, 1, n_pages, True)
            yield from dsm.node(1).barrier()

        def home():
            yield from dsm.node(0).barrier()

        s = _timed(lambda: run_all(cluster, [home(), writer()]))
        _expect(dsm.node(1).stats.diffs_sent, n_pages, "diffs sent")
        return s, n_pages

    return once


def _dsm_lock_remote(n: int):
    from repro.testing import build_dsm, run_all

    def once():
        cluster, _cts, dsm = build_dsm(2)
        node = dsm.node(1)

        def client():
            for _ in range(n):
                yield from node.lock_acquire(0)  # lock 0 is managed by node 0
                yield from node.lock_release(0)

        s = _timed(lambda: run_all(cluster, [client()]))
        _expect(node.stats.lock_remote_acquires, n, "remote lock acquires")
        return s, n

    return once


def _dsm_barrier(n_nodes: int, n: int):
    from repro.testing import build_dsm, run_all

    def once():
        cluster, _cts, dsm = build_dsm(n_nodes)

        def member(nid):
            for _ in range(n):
                yield from dsm.node(nid).barrier()

        return _timed(lambda: run_all(cluster, [member(i) for i in range(n_nodes)])), n

    return once


# ---------------------------------------------------------------- mpi
def _mpi_collective(n_nodes: int, n: int, which: str):
    from repro.mpi.ops import SUM
    from repro.testing import build_cluster, build_comm, run_all

    def once():
        cluster = build_cluster(n_nodes)
        _cts, comm = build_comm(cluster)

        def rank(r):
            rc = comm.rank(r)
            for i in range(n):
                if which == "allreduce":
                    yield from rc.allreduce(float(r), op=SUM)
                else:
                    yield from rc.bcast(i if r == 0 else None, root=0)

        return _timed(lambda: run_all(cluster, [rank(r) for r in range(n_nodes)])), n

    return once


# ------------------------------------------------------------ runtime
def _runtime_parallel(n_nodes: int, n: int):
    from repro.runtime import ParadeRuntime

    def once():
        rt = ParadeRuntime(n_nodes=n_nodes, pool_bytes=1 << 20)

        def program(ctx):
            def body(tc):
                return None
                yield  # an empty region body is still a generator

            for _ in range(n):
                yield from ctx.parallel(body)

        return _timed(lambda: rt.run(program)), n

    return once


# --------------------------------------------------------- translator
def _translator():
    from repro.translator import translate

    sources = [p.read_text() for p in sorted((HERE / "inputs").glob("*.c"))]
    lines = sum(len(s.splitlines()) for s in sources)

    def once():
        def body():
            for src in sources:
                translate(src, "parade")
                translate(src, "sdsm")

        return _timed(body), 2 * lines

    return once


# ------------------------------------------------------------ harness
def _harness_import_s(repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps({"job": "import"})],
            check=True, capture_output=True, text=True, timeout=120,
        ).stdout
        samples.append(json.loads(out.strip().splitlines()[-1])["import_s"])
    return statistics.median(samples)


def _tiny_spec(i: int):
    from repro.fleet import RunSpec

    return RunSpec(
        workload=f"hostbench-tiny-{i}",
        factory=("repro.apps.helmholtz", "make_program"),
        factory_kwargs={"n": 32, "m": 32, "max_iters": 3},
        n_nodes=2,
        pool_bytes=1 << 20,
    )


def _harness_run_many_overhead_ms(n_specs: int) -> float:
    """What ``run_many`` adds per spec over the simulations it contains,
    with 2 spawned workers (the path the sweep/gate targets take)."""
    from repro.fleet import run_many

    jobs = 2
    report = run_many([_tiny_spec(i) for i in range(n_specs)], jobs=jobs, cache=None)
    if not report.ok:
        raise RuntimeError(f"run_many failed: {report.summary()}")
    simulated = sum(r["wall_s"] for r in report.records)
    return (report.wall_s - simulated / jobs) / n_specs * 1e3


def _harness_cache_hit(n: int, workdir: str):
    from repro.fleet import RunCache, execute

    spec = _tiny_spec(0)
    cache = RunCache(root=os.path.join(workdir, "cache"))
    cache.put(spec, execute(spec))

    def once():
        def body():
            for _ in range(n):
                if cache.get(spec) is None:
                    raise RuntimeError("run cache missed a stored spec")

        return _timed(body), n

    return once


# ---------------------------------------------------------- observers
def _observer_overheads(quick: bool) -> Dict[str, float]:
    """Attached/detached wall-clock ratio of one CG iteration, one
    observer at a time (detached is the mean of a first and a last run,
    so drift over the series cancels)."""
    from repro.apps import cg
    from repro.profile import Profiler
    from repro.runtime import ParadeRuntime
    from repro.trace import TraceRecorder

    klass = "T" if quick else "S"
    mat = cg.make_matrix(klass)

    def run(observer: str = "") -> float:
        rt = ParadeRuntime(
            n_nodes=4, pool_bytes=1 << 22,
            sanitize=observer == "sanitizer", metrics=observer == "metrics",
        )
        if observer == "trace":
            TraceRecorder(rt.sim, capacity=1 << 18, queue_stride=64)
        if observer == "profile":
            Profiler(rt.sim)
        program = cg.make_program(klass, a=mat, niter=1)
        return _timed(lambda: rt.run(program))

    first = run()
    attached = {o: run(o) for o in ("trace", "profile", "metrics", "sanitizer")}
    detached = (first + run()) / 2
    return {f"observers.{o}.overhead_x": s / detached for o, s in attached.items()}


def run_kernels(seed: int, quick: bool, workdir: str) -> Dict[str, float]:
    """Every kernel metric, by its BENCHMARK.json name."""
    min_s = 0.02 if quick else 0.2
    k = 10 if quick else 1  # loop-size divisor
    out: Dict[str, float] = {}

    for name, once in (
        ("sim.kernel.timeout_events_per_s", _sim_timeout(20000 // k)),
        ("sim.kernel.handoff_events_per_s", _sim_handoff(20000 // k)),
    ):
        s, events = _loop(once, min_s)
        out[name] = events / s

    for name, once in (
        ("cluster.send.us", _cluster_send(2000 // k)),
        ("vm.check_range.us", _vm_check_range(20000 // k)),
        ("vm.view.us", _vm_view(20000 // k)),
        ("dsm.compute_diff.us", _dsm_compute_diff(1000 // k, seed)),
        ("dsm.apply_diff.us", _dsm_apply_diff(1000 // k, seed)),
        ("dsm.read_fault.us", _dsm_read_fault(256 // k)),
        ("dsm.write_flush.us", _dsm_write_flush(256 // k)),
        ("dsm.lock_remote.us", _dsm_lock_remote(500 // k)),
        ("dsm.barrier_8n.us", _dsm_barrier(8, 100 // k)),
        ("dsm.barrier_32n.us", _dsm_barrier(32, 30 // k)),
        ("mpi.allreduce_8n.us", _mpi_collective(8, 300 // k, "allreduce")),
        ("mpi.bcast_8n.us", _mpi_collective(8, 300 // k, "bcast")),
        ("runtime.parallel_4n.us", _runtime_parallel(4, 100 // k)),
    ):
        out[name] = _us_per_op(once, min_s)

    s, lines = _loop(_translator(), min_s)
    out["translator.lines_per_s"] = lines / s

    out["harness.import_s"] = _harness_import_s(1 if quick else 3)
    out["harness.run_many_overhead_ms_per_spec"] = _harness_run_many_overhead_ms(
        2 if quick else 4
    )
    scratch = tempfile.mkdtemp(prefix="kernels-", dir=workdir)
    try:
        out["harness.cache_hit.ms"] = (
            _us_per_op(_harness_cache_hit(200 // k, scratch), min_s) / 1e3
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    out.update(_observer_overheads(quick))
    return out
