"""Fault-injection + reliability-layer tests (repro.chaos).

The contract under test (docs/RELIABILITY.md):

* **Graceful degradation** — under every stock fault plan the program
  completes and its numerical result is bit-identical to the fault-free
  run's; only virtual time and traffic change.
* **Determinism** — one (plan, seed) pair fully determines every injected
  fault: same seed => identical elapsed time, stats, and trace stream;
  a different seed perturbs the run.
* **Ordering** — retransmission, duplicate suppression, and the
  resequencing buffer restore the exact per-link FIFO order the perfect
  network guarantees, so the happens-before sanitizer stays green.
* **Bounded recovery** — no frame exceeds ``max_retries + 1`` attempts.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.apps import helmholtz
from repro.chaos import (
    ChaosDeliveryError,
    ChaosEngine,
    CommStall,
    FaultPlan,
    LinkFault,
    LinkFlap,
    NodeSlowdown,
    PLANS,
    ReliabilityConfig,
    plan_by_name,
)
from repro.cluster import Cluster, ClusterConfig
from repro.runtime import ParadeRuntime
from repro.trace import TraceRecorder

N_NODES = 4
POOL_BYTES = 1 << 21


def _program():
    return helmholtz.make_program(n=48, m=48, max_iters=3)


def _run(plan=None, seed=0, traced=False, sanitize=False, n_nodes=N_NODES,
         reliability=None):
    rt = ParadeRuntime(
        n_nodes=n_nodes, pool_bytes=POOL_BYTES, sanitize=sanitize,
        fault_plan=plan, chaos_seed=seed, reliability=reliability,
    )
    rec = TraceRecorder(rt.sim, capacity=1 << 18) if traced else None
    res = rt.run(_program())
    return rt, res, rec


def _value_digest(res) -> str:
    return hashlib.sha256(
        json.dumps(res.value, sort_keys=True, default=repr).encode()
    ).hexdigest()


def _trace_digest(events) -> str:
    h = hashlib.sha256()
    for ev in events:
        h.update(json.dumps(ev.as_dict(), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


# ----------------------------------------------------------------------
# graceful degradation: every stock plan recovers bit-identically
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def baseline():
    _, res, _ = _run()
    return res


@pytest.mark.parametrize("plan_name", sorted(PLANS))
def test_every_stock_plan_recovers_bit_identically(plan_name, baseline):
    plan = plan_by_name(plan_name)
    _, res, _ = _run(plan, seed=7)
    assert _value_digest(res) == _value_digest(baseline)
    bound = plan.reliability.max_retries + 1
    assert res.chaos_stats["max_attempts"] <= bound


def test_injection_counters_fire_per_kind(baseline):
    """Each fault kind actually injects under its dedicated plan."""
    expectations = {
        "drop": "drops",
        "dup": "dups_injected",
        "reorder": "reorders",
        "corrupt": "corrupts",
        "latency-spike": "delays",
        "flap": "flap_drops",
        "slow-node": "slowdown_windows",
        "comm-stall": "comm_stalls",
    }
    for plan_name, counter in expectations.items():
        _, res, _ = _run(plan_by_name(plan_name), seed=7)
        assert res.chaos_stats[counter] > 0, (plan_name, counter)


def test_losses_are_recovered_by_retransmits(baseline):
    _, res, _ = _run(plan_by_name("drop"), seed=7)
    cs = res.chaos_stats
    assert cs["drops"] > 0
    assert cs["retransmits"] >= cs["drops"]
    assert res.elapsed > baseline.elapsed  # recovery costs virtual time


def test_clean_plan_matches_no_chaos_run_exactly(baseline):
    """The reliability layer alone (acks, timers, sequence numbers) is
    invisible to the protocol: a clean-plan run has the same elapsed
    virtual time, value, and protocol stats as a chaos-free run."""
    _, res, _ = _run(plan_by_name("clean"), seed=7)
    assert res.elapsed == baseline.elapsed
    assert _value_digest(res) == _value_digest(baseline)
    assert res.dsm_stats == baseline.dsm_stats
    assert int(res.cluster_stats["total_messages"]) == int(
        baseline.cluster_stats["total_messages"]
    )
    assert res.chaos_stats["frames"] > 0
    assert res.chaos_stats["retransmits"] == 0


# ----------------------------------------------------------------------
# reductions under sdsm fold in thread order, whatever the lock-grant order
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def cg_sdsm_fault_free():
    return _cg_sdsm_record(None, 0)


def _cg_sdsm_record(plan, seed):
    """The record ``python -m repro chaos cg --mode sdsm`` compares."""
    from repro.__main__ import build_parser, run_specs
    from repro.fleet import run_many

    argv = ["chaos", "cg", "--mode", "sdsm", "--plan", plan or "", "--seed", str(seed)]
    (spec,) = run_specs(build_parser().parse_args(argv), {})
    (rec,) = run_many([spec], jobs=1).records
    assert rec["ok"], rec.get("error")
    return rec


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_cg_sdsm_under_lossy_mix_keeps_the_fault_free_value(seed, cg_sdsm_fault_free):
    rec = _cg_sdsm_record("lossy-mix", seed)
    assert rec["value_digest"] == cg_sdsm_fault_free["value_digest"]


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_same_seed_is_bit_identical():
    _, res_a, rec_a = _run(plan_by_name("lossy-mix"), seed=5, traced=True)
    _, res_b, rec_b = _run(plan_by_name("lossy-mix"), seed=5, traced=True)
    assert res_a.elapsed == res_b.elapsed
    assert res_a.chaos_stats == res_b.chaos_stats
    assert res_a.dsm_stats == res_b.dsm_stats
    assert _value_digest(res_a) == _value_digest(res_b)
    assert _trace_digest(rec_a.events) == _trace_digest(rec_b.events)


def test_different_seed_perturbs_the_run():
    _, res_a, _ = _run(plan_by_name("lossy-mix"), seed=5)
    _, res_b, _ = _run(plan_by_name("lossy-mix"), seed=6)
    assert res_a.chaos_stats != res_b.chaos_stats
    # ... but both recover the same numbers
    assert _value_digest(res_a) == _value_digest(res_b)


# ----------------------------------------------------------------------
# ordering: the sanitizer's FIFO happens-before edges survive chaos
# ----------------------------------------------------------------------
def test_sanitizer_stays_green_under_lossy_mix():
    rt, _, _ = _run(plan_by_name("lossy-mix"), seed=7, sanitize=True)
    assert rt.sanitizer is not None
    assert rt.sanitizer.ok, rt.sanitizer.summary()


def test_sanitizer_stays_green_under_reorder():
    rt, _, _ = _run(plan_by_name("reorder"), seed=11, sanitize=True)
    assert rt.sanitizer.ok, rt.sanitizer.summary()


# ----------------------------------------------------------------------
# RunResult / stats plumbing
# ----------------------------------------------------------------------
def test_chaos_stats_keys_are_the_documented_set(baseline):
    _, res, _ = _run(plan_by_name("drop"), seed=7)
    documented = {
        "frames", "drops", "flap_drops", "corrupts", "delays", "reorders",
        "dups_injected", "retransmits", "max_attempts", "acks_sent",
        "ack_drops", "dup_suppressed", "reorder_buffered", "dsm_reissues",
        "comm_stalls", "slowdown_windows",
    }
    assert set(res.chaos_stats) == documented
    assert baseline.chaos_stats == {}  # chaos-free runs report nothing
    assert "retransmits (recovered)" in res.summary()


def test_dsm_stats_gain_reliability_counters(baseline):
    assert baseline.dsm_stats["dsm_reissues"] == 0
    assert baseline.dsm_stats["stale_replies"] == 0


# ----------------------------------------------------------------------
# engine-level behaviour on a bare cluster
# ----------------------------------------------------------------------
def _bare_cluster(n=2):
    return Cluster(ClusterConfig(n_nodes=n))


def test_dead_link_raises_after_retry_budget():
    """A plan that drops everything forever exhausts max_retries and
    raises ChaosDeliveryError instead of hanging."""
    cluster = _bare_cluster()
    plan = FaultPlan(
        "dead", faults=(LinkFault(drop=1.0),),
        reliability=ReliabilityConfig(max_retries=3),
    )
    engine = ChaosEngine(cluster.sim, plan, seed=1)
    engine.install(cluster)

    def sender():
        yield from cluster.network.send(0, 1, 64, "x", tag=("t",))

    cluster.sim.process(sender(), label="sender")
    with pytest.raises(ChaosDeliveryError) as exc:
        cluster.sim.run()
    assert exc.value.attempts == 4  # 1 first try + 3 retries
    assert engine.stats.max_attempts == 4


def test_reliability_restores_fifo_order_across_a_link():
    """Heavy reorder + drop on one link: the inbox still sees frames in
    send order (the invariant MPI matching and the sanitizer rely on)."""
    cluster = _bare_cluster()
    plan = FaultPlan(
        "scramble", faults=(LinkFault(drop=0.3, reorder=0.5, reorder_s=300e-6),),
    )
    ChaosEngine(cluster.sim, plan, seed=3).install(cluster)
    got = []

    def sender():
        for i in range(30):
            yield from cluster.network.send(0, 1, 64, i, tag=("t", i))

    def receiver():
        for _ in range(30):
            msg = yield cluster.nodes[1].inbox.get()
            got.append(msg.payload)

    cluster.sim.process(sender(), label="sender")
    cluster.sim.process(receiver(), label="receiver")
    cluster.sim.run()
    assert got == list(range(30))


def test_flap_window_blocks_then_recovers():
    cluster = _bare_cluster()
    plan = FaultPlan("flap", flaps=(LinkFlap(t0=0.0, t1=1e-3),))
    engine = ChaosEngine(cluster.sim, plan, seed=1).install(cluster)
    times = []

    def sender():
        yield from cluster.network.send(0, 1, 64, "x", tag=("t",))

    def receiver():
        yield cluster.nodes[1].inbox.get()
        times.append(cluster.sim.now)

    cluster.sim.process(sender(), label="sender")
    cluster.sim.process(receiver(), label="receiver")
    cluster.sim.run()
    assert times and times[0] >= 1e-3  # nothing crosses during the outage
    assert engine.stats.flap_drops > 0
    assert engine.outstanding_frames == 0  # everything acked eventually


def test_slowdown_window_slows_compute():
    def elapsed_with(plan):
        cluster = _bare_cluster()
        if plan is not None:
            ChaosEngine(cluster.sim, plan, seed=1).install(cluster)

        def worker():
            yield from cluster.nodes[1].compute(100_000)

        cluster.sim.process(worker(), label="worker")
        cluster.sim.run()
        return cluster.sim.now

    base = elapsed_with(None)
    slow = elapsed_with(
        FaultPlan("slow", slowdowns=(NodeSlowdown(node=1, factor=4.0),))
    )
    assert slow > base * 3.5


def test_comm_stall_charges_virtual_time():
    plan = FaultPlan("stall", stalls=(CommStall(prob=1.0, stall_s=100e-6),))
    _, base, _ = _run()
    _, res, _ = _run(plan, seed=2)
    assert res.chaos_stats["comm_stalls"] > 0
    assert res.elapsed > base.elapsed


def test_slowdown_node_out_of_range_is_rejected():
    cluster = _bare_cluster(2)
    plan = FaultPlan("bad", slowdowns=(NodeSlowdown(node=9),))
    with pytest.raises(ValueError, match="node 9"):
        ChaosEngine(cluster.sim, plan, seed=0).install(cluster)


def test_plan_lookup_and_channel_selector():
    with pytest.raises(KeyError, match="unknown fault plan"):
        plan_by_name("nope")
    plan = FaultPlan("dsm-only", faults=(LinkFault(channel="dsm", drop=0.5),))
    assert plan.fault_for(0, 1, "dsm") is not None
    assert plan.fault_for(0, 1, "bar") is None
    assert not plan.is_clean
    assert plan_by_name("clean").is_clean


# ----------------------------------------------------------------------
# loopback delivery accounting (the hook-gap fix)
# ----------------------------------------------------------------------
def test_loopback_send_emits_deliver_and_counts_receive():
    cluster = _bare_cluster()
    rec = TraceRecorder(cluster.sim, capacity=1 << 10)

    def sender():
        yield from cluster.network.send(0, 0, 64, "self", tag=("t",))
        yield cluster.nodes[0].inbox.get()

    cluster.sim.process(sender(), label="sender")
    cluster.sim.run()
    node = cluster.nodes[0]
    assert node.msgs_received == 1
    assert node.bytes_received == node.bytes_sent
    delivers = [ev for ev in rec.events if ev.name == "msg-deliver"]
    assert len(delivers) == 1
    assert delivers[0].args["src"] == 0
