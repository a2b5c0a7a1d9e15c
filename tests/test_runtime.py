"""Tests for the ParADE runtime: scheduler, fork-join, directives, configs."""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime import (
    ParadeRuntime,
    static_chunk,
    ONE_THREAD_ONE_CPU,
    ONE_THREAD_TWO_CPU,
    TWO_THREAD_TWO_CPU,
    HYBRID_THRESHOLD_BYTES,
)
from repro.mpi.ops import SUM, MAX


# ------------------------------------------------------------- scheduler
@settings(max_examples=100, deadline=None)
@given(
    lo=st.integers(-100, 100),
    n=st.integers(0, 1000),
    nthreads=st.integers(1, 17),
)
def test_static_chunk_partition_property(lo, n, nthreads):
    """Chunks are disjoint, ordered, cover [lo, hi), and balanced within 1."""
    hi = lo + n
    chunks = [static_chunk(lo, hi, t, nthreads) for t in range(nthreads)]
    covered = []
    for s, e in chunks:
        assert lo <= s <= e <= hi
        covered.extend(range(s, e))
    assert covered == list(range(lo, hi))
    sizes = [e - s for s, e in chunks]
    assert max(sizes) - min(sizes) <= 1


def test_static_chunk_validation():
    with pytest.raises(ValueError):
        static_chunk(0, 10, 0, 0)
    with pytest.raises(ValueError):
        static_chunk(0, 10, 5, 3)


# ------------------------------------------------------------- runtime basics
def _sum_program(n):
    def program(ctx):
        total = ctx.shared_scalar("t")

        def body(tc, total):
            lo, hi = tc.for_range(0, n)
            part = float(sum(range(lo, hi)))
            yield from tc.reduce_into(total, part, SUM)

        yield from ctx.parallel(body, total)
        v = yield from ctx.scalar(total).get()
        return float(v)

    return program


@pytest.mark.parametrize("mode", ["parade", "sdsm"])
@pytest.mark.parametrize("n_nodes", [1, 2, 4])
def test_reduction_correct_across_modes_and_sizes(mode, n_nodes):
    rt = ParadeRuntime(n_nodes=n_nodes, mode=mode, pool_bytes=1 << 20)
    res = rt.run(_sum_program(1000))
    assert res.value == 499500.0


def test_runtime_rejects_unknown_mode():
    with pytest.raises(ValueError):
        ParadeRuntime(mode="hybrid3000")


def test_runtime_single_use():
    rt = ParadeRuntime(n_nodes=2, pool_bytes=1 << 20)
    rt.run(_sum_program(10))
    with pytest.raises(RuntimeError):
        rt.run(_sum_program(10))


def test_exec_config_thread_counts():
    for cfg, total in ((ONE_THREAD_ONE_CPU, 4), (TWO_THREAD_TWO_CPU, 8)):
        rt = ParadeRuntime(n_nodes=4, exec_config=cfg, pool_bytes=1 << 20)
        seen = []

        def program(ctx):
            def body(tc):
                seen.append((tc.tid, tc.node_id, tc.local_tid))
                return
                yield

            yield from ctx.parallel(body)

        rt.run(program)
        assert len(seen) == total
        assert sorted(t for t, _, _ in seen) == list(range(total))


def test_hybrid_threshold_placement():
    rt = ParadeRuntime(n_nodes=2, mode="parade", pool_bytes=1 << 20)
    small = rt.shared_array("small", (32,))         # 256 B -> object
    large = rt.shared_array("large", (33,))         # 264 B -> HLRC
    assert small.segment.object_granularity
    assert not large.segment.object_granularity
    assert 32 * 8 == HYBRID_THRESHOLD_BYTES


def test_sdsm_mode_places_everything_in_hlrc():
    rt = ParadeRuntime(n_nodes=2, mode="sdsm", pool_bytes=1 << 20)
    small = rt.shared_array("small", (4,))
    assert not small.segment.object_granularity
    sc = rt.shared_scalar("s")
    assert not sc.array.segment.object_granularity



# One encounter of each row of Figs 2–3.  Each directive body gets a shared
# scalar and a small shared array (both object-granular under parade).
_ROWS = {
    "critical_update": lambda tc, x, q: tc.critical_update(x, 1.0),
    "atomic_update": lambda tc, x, q: tc.atomic_update(x, 1.0),
    "reduce_into": lambda tc, x, q: tc.reduce_into(x, 1.0),
    "reduce_value": lambda tc, x, q: tc.reduce_value(1.0),
    "single": lambda tc, x, q: tc.single(body_gen_fn=_one, shared_scalar=x),
    "reduce_into_many": lambda tc, x, q: tc.reduce_into_many(((x, 1.0), (q, np.ones(3)))),
}


def _one():
    return 1.0
    yield  # makes _one a generator, as `single` requires


@pytest.mark.parametrize("mode", ["parade", "sdsm"])
@pytest.mark.parametrize("row", sorted(_ROWS))
def test_each_directive_takes_its_figure_column(row, mode):
    """Fig 2/3 right (parade): collectives only, no distributed lock.
    Fig 2/3 left (sdsm): the distributed lock."""
    rt = ParadeRuntime(n_nodes=2, mode=mode, pool_bytes=1 << 20)

    def program(ctx):
        x = ctx.shared_scalar("x")
        q = ctx.shared_array("q", (3,))

        def body(tc, x, q):
            yield from _ROWS[row](tc, x, q)

        yield from ctx.parallel(body, x, q)

    res = rt.run(program)
    locks = res.dsm_stats["lock_acquires"]
    if mode == "parade":
        assert locks == 0 and res.mpi_stats["collectives"] > 0, (locks, res.mpi_stats)
    else:
        assert locks > 0


def test_only_the_runtime_constructor_knows_the_mode():
    """The translation is chosen once, by ``ParadeRuntime.__init__``, from
    its *mode* argument; no runtime, app or bench module reads a ``.mode``
    attribute to choose it again."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    offences = [
        f"{path.relative_to(src)}:{node.lineno}"
        for pkg in ("runtime", "apps", "bench")
        for path in sorted((src / pkg).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "mode"
    ]
    assert offences == []

def test_critical_update_serialises_and_sums():
    rt = ParadeRuntime(n_nodes=4, exec_config=TWO_THREAD_TWO_CPU, pool_bytes=1 << 20)

    def program(ctx):
        x = ctx.shared_scalar("x")

        def body(tc, x):
            for _ in range(3):
                yield from tc.critical_update(x, float(tc.tid + 1), SUM)

        yield from ctx.parallel(body, x)
        v = yield from ctx.scalar(x).get()
        return float(v)

    res = rt.run(program)
    assert res.value == 3 * sum(range(1, 9))


def test_atomic_is_critical_special_case():
    rt = ParadeRuntime(n_nodes=2, pool_bytes=1 << 20)

    def program(ctx):
        x = ctx.shared_scalar("x")

        def body(tc, x):
            yield from tc.atomic_update(x, 1.0)

        yield from ctx.parallel(body, x)
        v = yield from ctx.scalar(x).get()
        return float(v)

    assert rt.run(program).value == 4.0  # 2 nodes x 2 threads


def test_reduce_value_max():
    rt = ParadeRuntime(n_nodes=4, pool_bytes=1 << 20)
    out = []

    def program(ctx):
        def body(tc):
            m = yield from tc.reduce_value(float(tc.tid), MAX)
            out.append(m)

        yield from ctx.parallel(body)

    rt.run(program)
    assert all(v == 7.0 for v in out)
    assert len(out) == 8


def test_master_runs_once():
    rt = ParadeRuntime(n_nodes=4, pool_bytes=1 << 20)
    ran = []

    def program(ctx):
        def body(tc):
            def mb():
                ran.append(tc.tid)
                return None
                yield

            yield from tc.master(mb)

        yield from ctx.parallel(body)

    rt.run(program)
    assert ran == [0]


def test_single_runs_once_globally_parade():
    rt = ParadeRuntime(n_nodes=4, pool_bytes=1 << 20)
    executions = []

    def program(ctx):
        v = ctx.shared_scalar("v")

        def body(tc, v):
            def sb():
                executions.append(tc.tid)
                return 3.14
                yield

            got = yield from tc.single(body_gen_fn=sb, shared_scalar=v)
            assert got == 3.14

        yield from ctx.parallel(body, v)
        out = yield from ctx.scalar(v).get()
        return float(out)

    res = rt.run(program)
    assert len(executions) == 1
    assert res.value == 3.14


def test_single_runs_once_globally_sdsm():
    rt = ParadeRuntime(n_nodes=3, mode="sdsm", pool_bytes=1 << 20)
    executions = []

    def program(ctx):
        v = ctx.shared_scalar("v")

        def body(tc, v):
            def sb():
                executions.append(tc.tid)
                return 2.71
                yield

            got = yield from tc.single(body_gen_fn=sb, shared_scalar=v)
            assert got == 2.71

        yield from ctx.parallel(body, v)

    rt.run(program)
    assert len(executions) == 1


def test_critical_region_fallback_uses_lock():
    rt = ParadeRuntime(n_nodes=2, pool_bytes=1 << 20)

    def program(ctx):
        log = []

        def body(tc):
            def crit():
                log.append(tc.tid)
                yield tc.sim.timeout(1e-6)
                return None

            yield from tc.critical_region(crit, name="mysec")

        yield from ctx.parallel(body)
        return log

    res = rt.run(program)
    assert sorted(res.value) == [0, 1, 2, 3]
    assert res.dsm_stats["lock_acquires"] == 4


def test_sequential_master_writes_visible_in_region():
    rt = ParadeRuntime(n_nodes=4, pool_bytes=1 << 20)

    def program(ctx):
        x = ctx.shared_array("x", (256,))
        yield from ctx.array(x).set(np.full(256, 5.0))
        checks = []

        def body(tc, x):
            v = yield from tc.array(x).get()
            checks.append(bool(np.all(np.asarray(v) == 5.0)))

        yield from ctx.parallel(body, x)
        return checks

    res = rt.run(program)
    assert res.value == [True] * 8


def test_region_results_from_node0_threads():
    rt = ParadeRuntime(n_nodes=2, exec_config=TWO_THREAD_TWO_CPU, pool_bytes=1 << 20)

    def program(ctx):
        def body(tc):
            return tc.tid * 100
            yield

        results = yield from ctx.parallel(body)
        return results

    res = rt.run(program)
    assert res.value == [0, 100]  # node 0's two threads


def test_multiple_regions_sequential():
    rt = ParadeRuntime(n_nodes=2, pool_bytes=1 << 20)

    def program(ctx):
        x = ctx.shared_scalar("x")
        for _ in range(3):
            def body(tc, x):
                yield from tc.critical_update(x, 1.0, SUM)

            yield from ctx.parallel(body, x)
        v = yield from ctx.scalar(x).get()
        return float(v)

    assert rt.run(program).value == 12.0  # 3 regions x 4 threads


def test_barrier_aligns_thread_progress():
    rt = ParadeRuntime(n_nodes=3, pool_bytes=1 << 20)
    phase_times = {}

    def program(ctx):
        def body(tc):
            yield tc.sim.timeout(tc.tid * 1e-4)  # stagger
            yield from tc.barrier()
            phase_times[tc.tid] = tc.now

        yield from ctx.parallel(body)

    rt.run(program)
    slowest = max(phase_times.values())
    assert all(t >= 5 * 1e-4 for t in phase_times.values())
    assert max(phase_times.values()) - min(phase_times.values()) < 1e-3


def test_exec_config_validation():
    from repro.runtime.exec_config import ExecConfig

    with pytest.raises(ValueError):
        ExecConfig("bad", 0, 1)


def test_run_result_summary_renders():
    rt = ParadeRuntime(n_nodes=2, pool_bytes=1 << 20)
    res = rt.run(_sum_program(100))
    text = res.summary()
    assert "elapsed" in text and "messages" in text
