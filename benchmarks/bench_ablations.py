"""Ablation benchmarks for the design choices DESIGN.md calls out.

* migratory home vs fixed home (§5.2.2) on an iterative stencil-style
  workload — migration should eliminate steady-state diff traffic;
* the hybrid message-passing switch (§5.2.1) — critical on a small scalar
  with the switch on (parade) vs off (sdsm translation);
* interconnect sensitivity — the same microbenchmark on cLAN VIA vs Fast
  Ethernet TCP (the paper ran both networks);
* the two protocol-accelerator mechanisms, alone and together, on the
  perf basket — the rows docs/PERFORMANCE.md "Flag ledger" cites.
"""

import numpy as np

from repro.cluster import ClusterConfig, FAST_ETHERNET_TCP, GIGANET_VIA
from repro.dsm import SharedArray
from repro.dsm.config import PARADE_DSM
from repro.mpi import CommThread
from repro.bench.microbench import critical, sweep_directive
from repro.runtime import ParadeRuntime
from conftest import run_once

from repro.testing import build_dsm, run_all


def _stencil_run(home_migration: bool, iters: int = 6):
    """Two nodes repeatedly rewrite their own rows + one barrier per iter."""
    cfg = PARADE_DSM.replace(home_migration=home_migration)
    cluster, _cts, dsm = build_dsm(2, dsm_config=cfg)
    arr = SharedArray.allocate(dsm, "x", (2048,))

    def worker(nid):
        v = arr.on(nid)
        lo = nid * 1024
        for it in range(iters):
            yield from v.set(np.full(1024, float(it + 1)), start=lo)
            yield from dsm.node(nid).barrier()

    run_all(cluster, [worker(0), worker(1)])
    return cluster.sim.now, dsm.stats()


def test_ablation_home_migration(benchmark):
    def run():
        t_mig, s_mig = _stencil_run(True)
        t_fix, s_fix = _stencil_run(False)
        return t_mig, s_mig, t_fix, s_fix

    t_mig, s_mig, t_fix, s_fix = run_once(benchmark, run)
    print(f"\nmigratory home: {t_mig*1e3:.3f} ms, diffs={s_mig['diffs_sent']}, "
          f"migrations={s_mig['home_migrations']}")
    print(f"fixed home    : {t_fix*1e3:.3f} ms, diffs={s_fix['diffs_sent']}")
    # migration eliminates steady-state diffs and saves time
    assert s_mig["diffs_sent"] < s_fix["diffs_sent"]
    assert s_mig["home_migrations"] >= 1
    assert t_mig < t_fix


def test_ablation_hybrid_switch(benchmark):
    data = run_once(benchmark, lambda: sweep_directive("critical", nodes=[4], iters=30))
    [hybrid], [lockpath] = data["parade"], data["kdsm"]
    print(f"\nhybrid critical : {hybrid*1e6:8.2f} us/op")
    print(f"lock critical   : {lockpath*1e6:8.2f} us/op")
    assert hybrid < lockpath / 3


def test_ablation_interconnect(benchmark):
    via_cfg = ClusterConfig(interconnect=GIGANET_VIA)
    tcp_cfg = ClusterConfig(interconnect=FAST_ETHERNET_TCP)

    def per_op(cluster_config, iters=30):
        rt = ParadeRuntime(n_nodes=4, pool_bytes=1 << 20, cluster_config=cluster_config)
        rt.run(critical(iters))
        return rt.region_time / iters

    def run():
        return per_op(via_cfg), per_op(tcp_cfg)

    via, tcp = run_once(benchmark, run)
    print(f"\ncLAN VIA          : {via*1e6:8.2f} us/op")
    print(f"Fast Ethernet TCP : {tcp*1e6:8.2f} us/op")
    # user-level VIA beats kernel TCP by a wide margin on sync latency
    assert via < tcp / 3


def test_ablation_loop_scheduling(benchmark):
    """§8 future work: 'processes wait a long time at barrier due to
    load-imbalance in executing the for blocks since the current version of
    ParADE supports only the static loop scheduling.'  Our implemented
    extension: a master-node chunk dispenser for dynamic/guided schedules,
    measured on a triangular (maximally imbalanced) load."""
    from repro.mpi.ops import SUM

    N = 300

    def make(sched):
        def program(ctx):
            total = ctx.shared_scalar("t")

            def body(tc, total):
                part = 0.0
                if sched == "static":
                    lo, hi = tc.for_range(0, N)
                    for i in range(lo, hi):
                        yield from tc.compute(1500.0 * (i + 1))
                        part += i
                else:
                    loop = tc.dynamic_loop(0, N, chunk=4, sched=sched)
                    while True:
                        rng = yield from loop.next_chunk()
                        if rng is None:
                            break
                        for i in range(*rng):
                            yield from tc.compute(1500.0 * (i + 1))
                            part += i
                yield from tc.reduce_into(total, part, SUM)

            yield from ctx.parallel(body, total)
            v = yield from ctx.scalar(total).get()
            return float(v)

        return program

    def run():
        out = {}
        for sched in ("static", "dynamic", "guided"):
            rt = ParadeRuntime(n_nodes=4, pool_bytes=1 << 20)
            res = rt.run(make(sched))
            assert res.value == N * (N - 1) / 2
            out[sched] = (res.elapsed, rt.dynamic_scheduler.total_chunks)
        return out

    data = run_once(benchmark, run)
    print()
    for sched, (t, chunks) in data.items():
        print(f"{sched:8s}: {t*1e3:8.2f} ms  (chunks dispatched: {chunks})")
    assert data["dynamic"][0] < data["static"][0]
    assert data["guided"][0] < data["static"][0]
    # guided needs fewer dispenser round-trips than plain dynamic
    assert data["guided"][1] < data["dynamic"][1]


def test_ablation_accel_mechanisms(benchmark):
    """paper / each accelerator mechanism / both, on helmholtz + cg + md
    of the perf basket at 4 nodes and at 16 nodes hierarchical.  Asserts
    the rows docs/PERFORMANCE.md "Flag ledger" keeps the two flags for;
    virtual time is deterministic, so the thresholds cannot flake."""
    from repro.bench.perf import basket
    from repro.fleet.spec import value_digest

    apps = ("helmholtz", "cg", "md")
    configs = {
        "paper": PARADE_DSM,
        "batch": PARADE_DSM.replace(batch_notices=True),
        "adaptive": PARADE_DSM.replace(adaptive_migration=True),
        "both": PARADE_DSM.accelerated(),
    }
    points = {"4n": (4, False), "16n-hier": (16, True)}
    entries = basket()

    def run():
        out = {}
        for point, (n_nodes, hier) in points.items():
            for cname, cfg in configs.items():
                for app in apps:
                    entry = entries[app]
                    rt = ParadeRuntime(
                        n_nodes=n_nodes, pool_bytes=entry["pool_bytes"],
                        dsm_config=cfg.hierarchical() if hier else cfg,
                    )
                    res = rt.run(entry["factory"]())
                    out[point, cname, app] = (
                        res.elapsed, int(res.cluster_stats["total_messages"]),
                        value_digest(res.value),
                    )
        return out

    data = run_once(benchmark, run)
    print()
    for point in points:
        print(f"{point:9s} " + " ".join(f"{a + ' ms':>12s} {'msgs':>6s}" for a in apps))
        for cname in configs:
            cells = " ".join(
                f"{data[point, cname, a][0] * 1e3:12.3f} {data[point, cname, a][1]:6d}"
                for a in apps
            )
            print(f"{cname:>9s} {cells}")

    def delta(point, cname, app, base="paper"):
        return data[point, cname, app][0] / data[point, base, app][0] - 1.0

    # adaptive migration + update push earns its flag on its own ...
    assert delta("4n", "adaptive", "cg") <= -0.40
    assert delta("16n-hier", "adaptive", "helmholtz") <= -0.40
    # ... batching earns it on top of adaptive, at scale
    assert delta("16n-hier", "both", "md", base="adaptive") <= -0.05
    # and no combination changes a computed value
    for (point, cname, app), (_t, _msgs, digest) in data.items():
        assert digest == data[point, "paper", app][2], (point, cname, app)
