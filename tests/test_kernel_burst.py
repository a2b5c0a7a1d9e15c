"""A compute burst that carries its kernel (``Node.compute(work, kernel)``):
the kernel runs on a host thread while the simulator goes on, and the
simulated thread takes its result when the burst ends.  Against the
inline oracle (``conftest.InlineKernels``: the kernel called at submit,
on the simulator's thread) nothing a run reports may differ."""

import threading

import pytest

import repro.cluster.node as node_mod
from repro.apps import ep
from repro.apps.mpi_versions import ep_rank_main, run_pure_mpi
from repro.runtime import ParadeRuntime
from repro.sim.core import UnhandledProcessError
from repro.trace import TraceRecorder

from conftest import InlineKernels
from test_determinism_golden import _trace_digest


def _ep_run(mode, n_nodes):
    rt = ParadeRuntime(n_nodes=n_nodes, mode=mode, pool_bytes=1 << 20)
    rec = TraceRecorder(rt.sim, capacity=1 << 16)
    res = rt.run(ep.make_program("T"))
    v = res.value
    return (v.sx.hex(), v.sy.hex(), v.counts.tobytes(), res.elapsed,
            int(res.cluster_stats["events_processed"]), rec.n_emitted,
            _trace_digest(rec.events))


def _mpi_ep_run():
    clusters = []

    def rank_main(rc, cluster):
        clusters.append(cluster)
        return ep_rank_main(rc, cluster, "T")

    v, elapsed = run_pure_mpi(rank_main, n_nodes=4)
    return (v.sx.hex(), v.sy.hex(), v.counts.tobytes(), elapsed,
            clusters[0].sim.events_processed)


@pytest.mark.parametrize("mode", ["parade", "sdsm"])
@pytest.mark.parametrize("n_nodes", [1, 3, 4])
def test_ep_on_the_pool_equals_the_inline_oracle(monkeypatch, mode, n_nodes):
    pooled = _ep_run(mode, n_nodes)
    monkeypatch.setattr(node_mod, "kernel_pool", InlineKernels)
    assert pooled == _ep_run(mode, n_nodes)


def test_mpi_ep_on_the_pool_equals_the_inline_oracle(monkeypatch):
    pooled = _mpi_ep_run()
    monkeypatch.setattr(node_mod, "kernel_pool", InlineKernels)
    assert pooled == _mpi_ep_run()


def _program(kernel, tid=1, results=None):
    def program(ctx):
        def body(tc):
            got = yield from tc.compute(1000.0, kernel if tc.tid == tid else None)
            if results is not None:
                results.append(got)
            yield from tc.barrier()

        yield from ctx.parallel(body)
        return "done"

    return program


def test_the_kernel_runs_off_the_simulators_thread():
    ran_on = []

    def kernel():
        ran_on.append(threading.get_ident())
        return 42

    results = []
    rt = ParadeRuntime(n_nodes=2, pool_bytes=1 << 20)
    assert rt.run(_program(kernel, results=results)).value == "done"
    assert sorted(results, key=str) == [42, None, None, None]
    assert ran_on and ran_on[0] != threading.get_ident()


@pytest.mark.parametrize("tid", [1, 3])
def test_a_raising_kernel_fails_the_run_with_its_exception(tid):
    """The exception surfaces in the simulated thread at the burst's end
    and the run stops with it, whether the thread is on the master's
    node (the exception itself) or not (the process that failed names
    it as its cause); its siblings, left at the barrier, hang nothing."""
    boom = ZeroDivisionError("kernel failed")

    def kernel():
        raise boom

    rt = ParadeRuntime(n_nodes=2, pool_bytes=1 << 20)
    with pytest.raises(Exception) as info:
        rt.run(_program(kernel, tid))
    got = info.value
    if tid >= 2:
        assert isinstance(got, UnhandledProcessError)
        got = got.__cause__
    assert got is boom
