"""Sampler + wiring tests: the bit-identity contract and the hooks.

The whole subsystem stands on two promises: (1) a run with metrics
attached produces *exactly* the virtual times, event counts, and
application values of an unobserved run — sampling reads state, never
perturbs the schedule; (2) a run without metrics pays one attribute load
and one compare per hook site and nothing else.
"""

from __future__ import annotations

import pytest

from repro.apps import helmholtz
from repro.dsm import PageState
from repro.metrics import (
    BARRIER_EPOCH,
    LOCK_HOLD,
    LOCK_WAIT,
    NET_LATENCY,
    Metrics,
)
from repro.metrics.sampler import Metrics as SamplerMetrics
from repro.metrics.scorecard import dump_percentiles
from repro.runtime import ParadeRuntime

from conftest import TraversalCountingList


def _factory():
    return helmholtz.make_program(n=16, m=16, max_iters=2)


def _run(metrics: bool, n_nodes: int = 2):
    rt = ParadeRuntime(n_nodes=n_nodes, pool_bytes=1 << 20, metrics=metrics)
    res = rt.run(_factory())
    return rt, res


def test_metered_run_is_bit_identical_to_unmetered():
    import numpy as np

    rt0, plain = _run(metrics=False)
    rt1, metered = _run(metrics=True)
    assert plain.elapsed == metered.elapsed
    assert np.array_equal(plain.value.u, metered.value.u)
    assert plain.value.error == metered.value.error
    assert rt0.sim.events_processed == rt1.sim.events_processed
    assert plain.cluster_stats == metered.cluster_stats
    assert plain.dsm_stats == metered.dsm_stats


def test_metered_runs_are_deterministic_across_repeats():
    rt1, _ = _run(metrics=True)
    rt2, _ = _run(metrics=True)
    d1, d2 = rt1.metrics.dump(), rt2.metrics.dump()
    assert d1 == d2


def test_runtime_wiring_and_finalize():
    rt, res = _run(metrics=True)
    mx = rt.metrics
    assert mx in rt.sim.probe.subscribers
    assert mx.finalized_at == res.elapsed
    assert mx.n_samples > 0
    # stock sources produced their series
    for name in (
        "sim/queue_depth", "sim/events_total", "cluster/msgs_total",
        "cluster/node0/cpu_busy", "dsm/read_faults", "mpi/p2p_total",
        "runtime/regions_total", "net/inflight_msgs",
    ):
        assert name in mx.series, f"missing series {name}"
    # cumulative sources are monotone
    for name in ("sim/events_total", "cluster/msgs_total", "dsm/read_faults"):
        _, v = mx.series[name]
        assert list(v) == sorted(v), f"{name} not monotone"
    # final sample records the end-of-run totals
    t, v = mx.series["sim/events_total"]
    assert t[-1] == res.elapsed
    assert v[-1] == rt.sim.events_processed


def test_hooks_populate_latency_histograms():
    rt, _ = _run(metrics=True)
    reg = rt.metrics.registry
    net = reg.find(NET_LATENCY)
    assert net and sum(h.count for h in net) > 0
    bars = reg.find(BARRIER_EPOCH)
    assert bars, "no barrier epochs recorded"
    total_epochs = sum(h.count for h in bars)
    assert total_epochs > 0
    ps = dump_percentiles(rt.metrics.dump(), BARRIER_EPOCH)
    assert 0.0 < ps["p50"] <= ps["max"]
    # in-flight gauge is balanced: every send was delivered
    assert rt.metrics._inflight_msgs == 0
    assert rt.metrics._inflight_bytes == 0


def test_lock_hooks_record_wait_and_hold():
    """A critical-section workload must feed both lock histograms.

    SDSM mode: in parade mode an analyzable critical compiles to an
    allreduce wave (Figure 2) and never touches a distributed lock."""
    from repro.mpi.ops import SUM

    def program(ctx):
        total = ctx.shared_scalar("total")

        def body(tc, total):
            for _ in range(3):
                yield from tc.critical_update(total, 1.0, SUM)

        yield from ctx.parallel(body, total)
        v = yield from ctx.scalar(total).get()
        return float(v)

    rt = ParadeRuntime(n_nodes=2, pool_bytes=1 << 20, mode="sdsm", metrics=True)
    rt.run(program)
    reg = rt.metrics.registry
    waits = reg.find(LOCK_WAIT)
    holds = reg.find(LOCK_HOLD)
    assert waits and sum(h.count for h in waits) > 0
    assert holds and sum(h.count for h in holds) > 0
    # every grant was released: hold count matches wait count
    assert sum(h.count for h in holds) == sum(h.count for h in waits)
    for h in holds:
        assert h.min >= 0.0


def test_metrics_argument_attaches_metrics():
    rt = ParadeRuntime(n_nodes=1, pool_bytes=1 << 20, metrics=True)
    assert rt.metrics is not None and rt.metrics in rt.sim.probe.subscribers
    rt = ParadeRuntime(n_nodes=1, pool_bytes=1 << 20)
    assert rt.metrics is None and rt.sim.probe is None


def test_sampling_grid_and_max_samples():
    class FakeSim:
        now = 0.0
        probe = None

    mx = Metrics(FakeSim(), period=1.0, max_samples=3)
    for t in (0.25, 0.5):  # below the first grid point: no samples
        mx.on_step(t, queue_depth=1)
    assert mx.n_samples == 0
    mx.on_step(1.5, queue_depth=2)   # crossed 1.0
    mx.on_step(1.7, queue_depth=2)   # still before 2.0: skipped
    mx.on_step(4.0, queue_depth=3)   # crossed 2.0 (one sample, not three)
    assert mx.n_samples == 2
    t, v = mx.series["sim/queue_depth"]
    assert list(t) == [1.5, 4.0] and list(v) == [2.0, 3.0]
    # max_samples bounds every series; drops are counted
    mx.on_step(5.0, queue_depth=4)
    mx.on_step(6.0, queue_depth=5)
    assert len(mx.series["sim/queue_depth"][0]) == 3
    assert mx.n_dropped > 0


def test_constructor_validation_and_detach():
    class FakeSim:
        now = 0.0
        probe = None

    with pytest.raises(ValueError):
        Metrics(FakeSim(), period=0.0)
    with pytest.raises(ValueError):
        Metrics(FakeSim(), max_samples=0)
    sim = FakeSim()
    mx = Metrics(sim)
    assert mx in sim.probe.subscribers
    mx.detach()
    assert sim.probe is None


def test_metrics_import_surface():
    assert SamplerMetrics is Metrics


# ------------------------------------------------- pool-size independence
def test_sample_never_walks_a_page_table():
    """A sample costs O(series): the census is read from the nodes'
    maintained counts, not rescanned from their page tables."""
    rt, _res = _run(metrics=True, n_nodes=4)
    for dn in rt.dsm.nodes:
        dn.state = TraversalCountingList(dn.state)
    before = rt.metrics.n_samples
    rt.metrics.sample(rt.sim.now)
    assert rt.metrics.n_samples == before + 1
    assert [dn.state.traversals for dn in rt.dsm.nodes] == [0, 0, 0, 0]
    # the list does count, when somebody walks it
    assert PageState.DIRTY not in rt.dsm.node(0).state
    assert rt.dsm.node(0).state.traversals == 1


def test_dsm_series_do_not_depend_on_pool_size():
    """32x the pool: the same ``dsm/*`` series, sample for sample, except
    that the unused pages sit in the census as a constant — INVALID, or
    READ_ONLY on the master."""
    n_nodes = 4
    small = ParadeRuntime(n_nodes=n_nodes, pool_bytes=1 << 20, metrics=True)
    big = ParadeRuntime(n_nodes=n_nodes, pool_bytes=32 << 20, metrics=True)
    assert small.run(_factory()).elapsed == big.run(_factory()).elapsed
    extra = big.dsm.n_pages - small.dsm.n_pages
    assert extra == 31 * 256
    offsets = {
        "dsm/pages_read_only": extra,
        "dsm/pages_invalid": extra * (n_nodes - 1),
    }
    s_small = {k: v for k, v in small.metrics.series.items() if k.startswith("dsm/")}
    s_big = {k: v for k, v in big.metrics.series.items() if k.startswith("dsm/")}
    assert list(s_small) == list(s_big)
    assert {f"dsm/pages_{st.name.lower()}" for st in PageState} <= set(s_small)
    for name, (t, v) in s_small.items():
        t_big, v_big = s_big[name]
        assert t_big == t, name
        assert list(v_big) == [x + offsets.get(name, 0) for x in v], name
