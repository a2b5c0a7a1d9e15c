"""Micro-benchmarks for the hot-path kernels of the DSM engine.

Times ``compute_diff`` / ``apply_diff`` / ``check_range`` (the three
kernels the hot-path PR vectorised) on realistic inputs: float-update
pages with scattered multi-byte runs — the distribution Jacobi/CG updates
actually produce — plus dense and sparse extremes; one ``CHUNK_PAIRS``
chunk of the NAS EP kernel (stream fill + tally); and one
``Metrics.sample()`` with the stock sources over node counts and pool
sizes (its cost must follow the series count, never the pool); the
DSM write-upgrade fault path per page over range lengths (a longer range
must cost less per page, not more); one ``Node.busy_cpu`` burst
detached and under each observer set (an attached profiler or recorder
adds its own handlers' cost to a burst, not a second process resume);
one quiet 1 000-slice ``Node.spin_cpu`` busy-wait (four kernel
events, asserted — not a thousand); one NAS CG matrix build
(``make_matrix``, NPB ``makea``) at classes S and A, with its traced
memory peak; one remote MPI message on the 8-node Fig 6/7 sync
program, in Python calls (deterministic, ratcheted) and host µs per
8-node allreduce; and the Python calls per processed event of a class-T
CG run, detached and added by the four observers (deterministic,
ratcheted).
Run directly for a table of wall-clock timings::

    PYTHONPATH=src python benchmarks/bench_microkernels.py

or through pytest, where each case asserts a generous per-call ceiling so
a catastrophic regression (e.g. an accidental per-byte Python loop) fails
tier-1 without making the suite flaky on slow hosts.
"""

from __future__ import annotations

import sys
import time
import timeit
import tracemalloc

import numpy as np

from repro.dsm.diffs import apply_diff, compute_diff, make_twin
from repro.vm import AddressSpace, PhysicalMemory, PROT_READ, PROT_RW

PAGE = 4096

#: generous ceilings (seconds per call) — catch order-of-magnitude
#: regressions only, not host noise.  The diff ceilings sit ~15x above the
#: mask kernels on a float-update page and barely above the per-run Python
#: loop they replaced (~0.1 ms); the EP ceiling sits ~3x above a one-pass
#: chunk and below the ten-pass one it replaced (~4.7 ms)
CEILING_COMPUTE_DIFF = 2e-4
CEILING_APPLY_DIFF = 2e-4
CEILING_EP_CHUNK = 4e-3
CEILING_CHECK_RANGE = 5e-4
CEILING_METRICS_SAMPLE = 5e-3
CEILING_RANGE_FAULT = 5e-4  # per page
CEILING_OBSERVED_BURST = 5e-5  # per burst, all four observers attached
CEILING_SPIN_WAIT = 6e-4  # per 1 000-slice wait (~0.15 ms); slice by slice it was 1.4 ms
CEILING_CG_BUILD = 2.5e-2  # per class-S matrix (~9 ms); the per-entry loop took ~50 ms
CEILING_ALLREDUCE_8N = 5e-3  # per 8-node allreduce (~0.32 ms: 14 remote messages)
#: Python calls (frames entered, generator resumes included) per remote
#: message on the 8-node sync program, as measured (111.8 before the
#: message path shed its spare frames) — a count, not a time, so the
#: ceiling sits only 5 % above it
CALLS_PER_MESSAGE = 89.34
CEILING_CALLS_PER_MESSAGE = CALLS_PER_MESSAGE * 1.05
#: Python calls per processed event of a 1-iteration class-T CG on 4
#: nodes: of the detached run, and those the four observers (recorder,
#: profiler, metrics, sanitizer) add to it, as measured (19.95 added
#: before a trace row became one packed record, a phase fact one call
#: and a metrics sample one ``extend`` per source) — counts, so each
#: ceiling sits only 5 % above.  The detached one keeps the observed
#: run's savings from being paid for on the run nobody observes.
DETACHED_CALLS_PER_EVENT = 16.70
CEILING_DETACHED_CALLS_PER_EVENT = DETACHED_CALLS_PER_EVENT * 1.05
OBSERVER_CALLS_PER_EVENT = 9.06
CEILING_OBSERVER_CALLS_PER_EVENT = OBSERVER_CALLS_PER_EVENT * 1.05
#: kernel events of one quiet busy-wait, however many slices it spans: the
#: grant timer, the grant event, the spin's first slice (on the schedule)
#: and the slice the grant's processing puts back on it
SPIN_WAIT_EVENTS = 4


def _float_update_page(seed: int = 0):
    """A page of float64s after a Jacobi-style update: every value nudged,
    but high bytes often unchanged -> many short runs."""
    rng = np.random.default_rng(seed)
    vals = rng.random(PAGE // 8)
    twin = make_twin(vals.view(np.uint8))
    vals += rng.random(PAGE // 8) * 1e-3
    return twin, vals.view(np.uint8).copy()


def _sparse_page(seed: int = 1):
    rng = np.random.default_rng(seed)
    current = rng.integers(0, 256, PAGE).astype(np.uint8)
    twin = make_twin(current)
    current = current.copy()
    current[rng.integers(0, PAGE, 16)] += 1
    return twin, current


def _dense_page():
    twin = np.zeros(PAGE, dtype=np.uint8)
    return twin, np.ones(PAGE, dtype=np.uint8)


CASES = {
    "float-update": _float_update_page,
    "sparse-16": _sparse_page,
    "dense-full": _dense_page,
}


def _per_call(fn, number: int = 200) -> float:
    return timeit.timeit(fn, number=number) / number


def bench_compute_diff() -> dict:
    out = {}
    for name, make in CASES.items():
        twin, current = make()
        out[name] = _per_call(lambda: compute_diff(twin, current))
    return out


def bench_apply_diff() -> dict:
    out = {}
    for name, make in CASES.items():
        twin, current = make()
        diff = compute_diff(twin, current)
        target = make_twin(twin)
        out[name] = _per_call(lambda: apply_diff(target, diff))
    return out


def bench_ep_chunk() -> dict:
    """Host seconds per ``CHUNK_PAIRS`` chunk of ``ep_segment`` — stream
    fill plus tally — averaged over an eight-chunk segment, the scratch
    workspace's allocation included."""
    from repro.apps.ep import CHUNK_PAIRS, ep_segment

    return {f"{CHUNK_PAIRS}-pairs": _per_call(lambda: ep_segment(0, 8 * CHUNK_PAIRS), number=3) / 8}


def _make_space(n_pages: int = 1024) -> AddressSpace:
    space = AddressSpace(PhysicalMemory(n_pages, PAGE))
    space.map_identity(n_pages, prot=PROT_READ)
    for p in range(0, n_pages, 3):
        space.protect(p, PROT_RW)
    return space


def bench_check_range() -> dict:
    space = _make_space()
    cases = {
        "1-page": (100, 64),
        "2-page": (PAGE - 32, 64),
        "64-page": (0, 64 * PAGE),
    }
    out = {}
    for name, (addr, size) in cases.items():
        out[name] = _per_call(lambda: space.check_range(addr, size, write=False))
    return out


def bench_metrics_sample() -> dict:
    """Host seconds per ``Metrics.sample()`` with the stock sources, after
    a CG class T run has populated every series (the per-link in-flight
    gauges exist only for links that carried a frame).  The 64 MiB column
    must read like the 8 MiB one — the page census is a maintained count,
    not a scan — and the 16-node row grows with the series count."""
    from repro.apps import cg
    from repro.runtime import ParadeRuntime

    out = {}
    for n_nodes in (4, 16):
        for pool_mib in (8, 64):
            rt = ParadeRuntime(n_nodes=n_nodes, pool_bytes=pool_mib << 20, metrics=True)
            rt.run(cg.make_program("T", niter=1))
            mx, now = rt.metrics, rt.sim.now
            case = f"{n_nodes}n-{pool_mib}MiB ({len(mx.series)} series)"
            out[case] = _per_call(lambda: mx.sample(now), number=50)
    return out


def _range_fault_per_page(n_pages: int) -> float:
    from repro.dsm import SharedArray
    from repro.testing import build_dsm, run_all

    cluster, _cts, dsm = build_dsm(2)
    arr = SharedArray.allocate(dsm, "a", (n_pages * PAGE // 8,))
    view, dn = arr.on(1), dsm.node(1)
    rounds = max(4, 256 // n_pages)
    best = []

    def prog():
        yield from view.get()  # fetch once: valid and clean from here on
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(rounds):
                yield from view.writable()
                dn._close_interval(list(dn.dirty))
            best.append(time.perf_counter() - t0)

    run_all(cluster, [prog()])
    assert dn.stats.write_faults == 5 * rounds * n_pages
    return min(best) / (rounds * n_pages)


def bench_range_fault() -> dict:
    """Host seconds per *page* of a write over 1/8/32/128 valid clean
    pages on the non-home node of a 2-node cluster: access check, the
    two protocol CPU bursts through the simulator, twin and mprotect per
    page.  Only the faulting access is timed; the pages are put back
    between rounds by closing the interval without a flush."""
    return {f"{n}-page": _range_fault_per_page(n) for n in (1, 8, 32, 128)}


def _burst_seconds(observers: tuple, n: int = 4000) -> float:
    from repro.metrics import Metrics
    from repro.profile import Profiler
    from repro.sanitizer import Sanitizer
    from repro.testing import build_cluster, run_all
    from repro.trace import TraceRecorder

    attach = {
        "profiler": Profiler,
        "recorder": TraceRecorder,
        "metrics": Metrics,
        "sanitizer": lambda sim: Sanitizer(sim, n_nodes=1, page_size=PAGE),
    }
    best = []
    for _ in range(5):
        cluster = build_cluster(1)
        for name in observers:
            attach[name](cluster.sim)
        node = cluster.nodes[0]

        def prog():
            for _ in range(n):
                yield from node.busy_cpu(1e-6)

        t0 = time.perf_counter()
        run_all(cluster, [prog()])
        best.append(time.perf_counter() - t0)
        assert node.cpus.n_grants == n
    return min(best) / n


def bench_observed_burst() -> dict:
    """Host seconds per ``Node.busy_cpu`` burst (submit, grant, ONE
    kernel event at the end of the occupancy, ONE process resume) on an
    idle one-node cluster: detached,
    under a profiler (three phase facts per burst), under a recorder (an
    exact step count per event), and under all four observers."""
    return {
        "detached": _burst_seconds(()),
        "profiler": _burst_seconds(("profiler",)),
        "recorder": _burst_seconds(("recorder",)),
        "all four": _burst_seconds(("recorder", "sanitizer", "profiler", "metrics")),
    }


def _spin_wait_seconds(observers: tuple, slices: int = 1000, n: int = 200) -> float:
    from repro.profile import Profiler
    from repro.testing import build_cluster, run_all

    best = []
    for _ in range(5):
        cluster = build_cluster(1)
        sim, node = cluster.sim, cluster.nodes[0]
        if observers:
            Profiler(sim)
        slice_s = 5e-6 * node.speed_factor  # 5 us once scaled

        def prog():
            for _ in range(n):
                granted = sim.event()
                sim.timeout((slices - 0.5) * 5e-6).add_callback(
                    lambda _ev, granted=granted: granted.succeed())
                yield from node.spin_cpu(slice_s, granted)

        t0 = time.perf_counter()
        run_all(cluster, [prog()])
        best.append(time.perf_counter() - t0)
        assert node.cpus.n_grants == n * slices
        # the process's init and end, and the ceiling per wait — exactly
        assert sim.events_processed == 2 + n * SPIN_WAIT_EVENTS
    return min(best) / n


def bench_spin_wait() -> dict:
    """Host seconds per quiet 1 000-slice ``Node.spin_cpu`` busy-wait on
    an otherwise idle node (the KDSM lock client between two protocol
    messages): the wait parks, so its cost is :data:`SPIN_WAIT_EVENTS`
    kernel events — asserted — plus booking the skipped slices."""
    return {
        "detached": _spin_wait_seconds(()),
        "profiler": _spin_wait_seconds(("profiler",)),
    }


def bench_cg_build(classes: tuple = ("S", "A")) -> dict:
    """Host seconds per ``repro.apps.cg.make_matrix`` call — NPB
    ``makea``: the stream walk, the outer products into keyed triplets,
    one in-place sort and NPB ``sparse``'s arrival-order sum of the
    duplicates into the numpy CSR — with the build's tracemalloc peak in
    the case name (a count: the per-entry loop peaked at 11.3 MiB at
    class S and 271 MiB at class A)."""
    from repro.apps import cg

    out = {}
    for klass in classes:
        tracemalloc.start()
        try:
            cg.make_matrix(klass)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sec = _per_call(lambda: cg.make_matrix(klass), number=20 if klass == "S" else 3)
        out[f"class {klass} (peak {peak / 2**20:.1f} MiB)"] = sec
    return out


def _sync_program(iters: int):
    """The Fig 6/7 ``critical`` and ``single`` loops (the hostbench
    ``sync_8n`` shape): one ``MPI_Allreduce`` per ``critical`` and one
    ``MPI_Bcast`` per ``single``."""
    from repro.mpi.ops import SUM

    def program(ctx):
        x = ctx.shared_scalar("x")
        v = ctx.shared_scalar("v")

        def critical_loop(tc, x):
            for _ in range(iters):
                yield from tc.critical_update(x, 1.0, SUM)

        def single_loop(tc, v):
            for i in range(iters):
                def init(i=i):
                    return float(i)
                    yield  # makes init a generator, as `single` requires

                yield from tc.single(body_gen_fn=init, shared_scalar=v)

        yield from ctx.parallel(critical_loop, x)
        yield from ctx.parallel(single_loop, v)

    return program


def _python_calls(fn, *args) -> int:
    """Python calls (frames entered, generator resumes included) made by
    ``fn(*args)``, counted with ``sys.setprofile``."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def _calls_per_message(iters: int = 60) -> float:
    """Python calls per remote message of one run of the sync program on
    8 nodes, counted after a warm-up run (so no lazy import is counted)."""
    from repro.runtime import ParadeRuntime

    ParadeRuntime(n_nodes=8, pool_bytes=1 << 20).run(_sync_program(2))
    rt = ParadeRuntime(n_nodes=8, pool_bytes=1 << 20)
    calls = _python_calls(rt.run, _sync_program(iters))
    return calls / rt.cluster.network.total_messages


def _cg_calls(observe: bool):
    """``(Python calls, processed events)`` of one 1-iteration class-T CG
    run on 4 nodes, with trace, profiler, metrics and sanitizer attached
    (the hostbench ``cg_4n_observed`` set) or none."""
    from repro.apps import cg
    from repro.runtime import ParadeRuntime
    from repro.trace import TraceRecorder

    rt = ParadeRuntime(n_nodes=4, pool_bytes=1 << 22, sanitize=observe,
                       profile=observe, metrics=observe)
    if observe:
        TraceRecorder(rt.sim, capacity=1 << 18, queue_stride=64)
    return _python_calls(rt.run, cg.make_program("T", niter=1)), rt.sim.events_processed


def _calls_per_event() -> dict:
    """Python calls per processed event of the CG run detached, and those
    the four observers add, counted after an observed warm-up run."""
    _cg_calls(True)
    detached, events = _cg_calls(False)
    observed, observed_events = _cg_calls(True)
    assert observed_events == events  # observers never perturb the run
    return {"detached": detached / events, "observers": (observed - detached) / events}


def _allreduce_seconds(n: int = 100) -> float:
    from repro.mpi.ops import SUM
    from repro.testing import build_cluster, build_comm, run_all

    best = []
    for _ in range(5):
        cluster = build_cluster(8)
        _cts, comm = build_comm(cluster)

        def rank(r):
            rc = comm.rank(r)
            for _ in range(n):
                yield from rc.allreduce(float(r), op=SUM)

        t0 = time.perf_counter()
        run_all(cluster, [rank(r) for r in range(8)])
        best.append(time.perf_counter() - t0)
        assert comm.n_collectives == 2 * 8 * n
    return min(best) / n


def bench_mpi_message() -> dict:
    """One remote MPI message: Python calls per message on the 8-node
    sync program (the case name carries the count), and host seconds per
    8-node allreduce (reduce + bcast trees, 14 remote messages)."""
    return {
        f"8n sync ({_calls_per_message():.2f} calls/msg)": _allreduce_seconds()
    }


# -- pytest entry points -------------------------------------------------
def test_compute_diff_speed():
    assert max(bench_compute_diff().values()) < CEILING_COMPUTE_DIFF


def test_apply_diff_speed():
    assert max(bench_apply_diff().values()) < CEILING_APPLY_DIFF


def test_ep_chunk_speed():
    assert max(bench_ep_chunk().values()) < CEILING_EP_CHUNK


def test_check_range_speed():
    assert max(bench_check_range().values()) < CEILING_CHECK_RANGE


def test_metrics_sample_speed():
    assert max(bench_metrics_sample().values()) < CEILING_METRICS_SAMPLE


def test_range_fault_speed():
    assert max(bench_range_fault().values()) < CEILING_RANGE_FAULT


def test_observed_burst_speed():
    assert max(bench_observed_burst().values()) < CEILING_OBSERVED_BURST


def test_spin_wait_speed_and_event_ceiling():
    assert max(bench_spin_wait().values()) < CEILING_SPIN_WAIT


def test_cg_build_speed():
    assert max(bench_cg_build(("S",)).values()) < CEILING_CG_BUILD


def test_mpi_message_calls_and_speed():
    assert _calls_per_message() <= CEILING_CALLS_PER_MESSAGE
    assert _allreduce_seconds() < CEILING_ALLREDUCE_8N


def test_observer_calls_per_event():
    got = _calls_per_event()
    assert got["detached"] <= CEILING_DETACHED_CALLS_PER_EVENT, got
    assert got["observers"] <= CEILING_OBSERVER_CALLS_PER_EVENT, got


def main() -> None:
    for title, fn in (
        ("compute_diff", bench_compute_diff),
        ("apply_diff", bench_apply_diff),
        ("ep_chunk", bench_ep_chunk),
        ("check_range", bench_check_range),
        ("metrics_sample", bench_metrics_sample),
        ("range_fault (per page)", bench_range_fault),
        ("observed_burst (per busy_cpu burst)", bench_observed_burst),
        ("spin_wait (per quiet 1000-slice wait)", bench_spin_wait),
        ("cg_build (per make_matrix call)", bench_cg_build),
        ("mpi_message (per 8-node allreduce)", bench_mpi_message),
    ):
        print(f"{title}:")
        for case, sec in fn().items():
            print(f"  {case:<28} {sec * 1e6:9.2f} us/call")
    print("cg_calls (Python calls per event, class T, 4 nodes):")
    for case, calls in _calls_per_event().items():
        print(f"  {case:<28} {calls:9.2f}")


if __name__ == "__main__":
    main()
