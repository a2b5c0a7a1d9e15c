"""Full-stack integration tests: every directive in one program, plus
the determinism guarantee the whole methodology rests on."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.runtime import (
    ParadeRuntime,
    TWO_THREAD_TWO_CPU,
    ONE_THREAD_ONE_CPU,
)
from repro.cluster import ClusterConfig, FAST_ETHERNET_TCP
from repro.mpi.ops import SUM, MAX
from repro.apps import ep


def _kitchen_sink_program(n):
    """Uses parallel, for (static + dynamic), barrier, critical, atomic,
    reduction, single, master, sections, explicit locks, shared arrays and
    scalars — all in one region."""

    def program(ctx):
        data = ctx.shared_array("data", (n,))
        total = ctx.shared_scalar("total")
        peak = ctx.shared_scalar("peak")
        marker = ctx.shared_scalar("marker")
        counter = ctx.shared_array("counter", (1,), force_object=False)

        def body(tc, data, total, peak, marker, counter):
            # static for + write
            lo, hi = tc.for_range(0, n)
            v = tc.array(data)
            yield from v.set(np.arange(lo, hi, dtype=np.float64), start=lo)
            yield from tc.barrier()

            # dynamic for + read
            part = 0.0
            loop = tc.dynamic_loop(0, n, chunk=max(1, n // 16))
            while True:
                rng = yield from loop.next_chunk()
                if rng is None:
                    break
                chunk = yield from v.get(rng[0], rng[1])
                part += float(np.sum(chunk))

            # reduction + max-reduction
            yield from tc.reduce_into(total, part, SUM)
            m = yield from tc.reduce_value(float(tc.tid), MAX)
            assert m == float(tc.nthreads - 1)

            # critical + atomic on a small scalar
            yield from tc.critical_update(peak, 1.0, SUM)
            yield from tc.atomic_update(peak, 1.0, SUM)

            # single (+ broadcast) and master
            def sbody():
                return 123.0
                yield

            got = yield from tc.single(body_gen_fn=sbody, shared_scalar=marker)
            assert got == 123.0

            def mbody():
                return "master-only"
                yield

            mres = yield from tc.master(mbody)
            if tc.tid == 0:
                assert mres == "master-only"

            # sections
            def make(k):
                def sec():
                    return k
                    yield

                return sec

            yield from tc.sections([make(k) for k in range(3)])

            # explicit OpenMP lock guarding an HLRC counter
            cv = tc.array(counter)
            yield from tc.set_lock("guard")
            cur = yield from cv.get_scalar(0)
            yield from cv.set_scalar(0, float(cur) + 1.0)
            yield from tc.unset_lock("guard")
            yield from tc.barrier()

        yield from ctx.parallel(body, data, total, peak, marker, counter)
        t = yield from ctx.scalar(total).get()
        p = yield from ctx.scalar(peak).get()
        c = yield from ctx.array(counter).get_scalar(0)
        return float(t), float(p), float(c)

    return program


@pytest.mark.parametrize("mode", ["parade", "sdsm"])
def test_kitchen_sink_all_directives(mode):
    n = 4000
    rt = ParadeRuntime(
        n_nodes=4, exec_config=TWO_THREAD_TWO_CPU, mode=mode, pool_bytes=1 << 21
    )
    total, peak, counter = rt.run(_kitchen_sink_program(n)).value
    nthreads = 8
    assert total == n * (n - 1) / 2
    assert peak == 2.0 * nthreads
    assert counter == nthreads


def test_simulation_is_deterministic():
    """Two identical runs produce bit-identical virtual times and protocol
    statistics — the property the whole evaluation methodology rests on."""
    def once():
        rt = ParadeRuntime(n_nodes=4, pool_bytes=1 << 21)
        res = rt.run(_kitchen_sink_program(2000))
        return res.elapsed, res.value, res.dsm_stats, res.cluster_stats["total_messages"]

    a = once()
    b = once()
    assert a == b


def test_ethernet_slower_than_via_end_to_end():
    cfg_tcp = ClusterConfig(interconnect=FAST_ETHERNET_TCP)

    def run(cluster_config=None):
        rt = ParadeRuntime(
            n_nodes=4, pool_bytes=1 << 21, cluster_config=cluster_config
        )
        return rt.run(_kitchen_sink_program(2000)).elapsed

    assert run(cfg_tcp) > run(None)  # default = cLAN VIA


def test_heterogeneous_cluster_slower_than_uniform_fast():
    uniform = ClusterConfig(cpu_mhz=(600,) * 8)

    def run(cc):
        rt = ParadeRuntime(n_nodes=4, pool_bytes=1 << 21, cluster_config=cc)
        return rt.run(_kitchen_sink_program(2000)).elapsed

    t_paper = run(None)          # 550/600 mix (paper testbed)
    t_uniform = run(uniform)
    assert t_uniform < t_paper   # the 550 MHz nodes drag the barriers


def test_ep_identical_results_across_node_counts():
    """Work partitioning must not change EP's result (up to floating-point
    summation order: counts are exact, sums agree to ~1e-9)."""
    baseline = None
    for p in (1, 2, 4, 8):
        rt = ParadeRuntime(n_nodes=p, pool_bytes=1 << 20)
        res = rt.run(ep.make_program("T"))
        if baseline is None:
            baseline = res.value
        else:
            assert res.value.sx == pytest.approx(baseline.sx, abs=1e-9)
            assert res.value.sy == pytest.approx(baseline.sy, abs=1e-9)
            assert np.array_equal(res.value.counts, baseline.counts)


def test_1t1c_uses_single_cpu_per_node():
    rt = ParadeRuntime(n_nodes=2, exec_config=ONE_THREAD_ONE_CPU, pool_bytes=1 << 20)
    assert all(n.cpus.capacity == 1 for n in rt.cluster.nodes)
    rt2 = ParadeRuntime(n_nodes=2, exec_config=TWO_THREAD_TWO_CPU, pool_bytes=1 << 20)
    assert all(n.cpus.capacity == 2 for n in rt2.cluster.nodes)


# what a run that needs neither must not import: scipy.sparse costs more
# than the rest of the package together, the translator a third of it
_IMPORT_HYGIENE = """
import sys
def heavy():
    return {m for m in ("scipy", "repro.translator") if m in sys.modules}
import repro.runtime
from repro.apps import ep, helmholtz
import repro.apps
repro.apps.md
assert not heavy(), heavy()
from repro import translate
assert heavy() == {"repro.translator"}, heavy()
repro.apps.cg
assert heavy() == {"repro.translator", "scipy"}, heavy()
import repro
assert all(hasattr(repro, n) for n in repro.__all__)
assert all(hasattr(repro.apps, n) for n in repro.apps.__all__)
"""


def test_runs_import_only_the_layers_they_use():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_HYGIENE],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
