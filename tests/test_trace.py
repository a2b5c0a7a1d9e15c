"""Tests for repro.trace: recorder, exporters, checker, integration."""

from __future__ import annotations

import json

import pytest

from repro.sim import Simulator
from repro.trace import (
    TraceRecorder,
    TraceEvent,
    CAT_PAGE,
    CAT_BARRIER,
    CAT_SIM,
    ALL_CATEGORIES,
    DEFAULT_CATEGORIES,
    to_chrome,
    write_chrome_json,
    write_csv_events,
    check_trace,
)
from repro.runtime import ParadeRuntime, TWO_THREAD_TWO_CPU
from repro.bench.figures import registered_programs


# ------------------------------------------------------------ recorder
def test_ring_bounds_and_eviction(sim):
    rec = TraceRecorder(sim, capacity=8)
    for i in range(20):
        rec.instant(CAT_PAGE, "twin", node=0, page=i)
    assert len(rec) == 8
    assert rec.n_emitted == 20
    assert rec.n_dropped == 12
    # the oldest events were evicted; the tail survives
    assert [e.args["page"] for e in rec.events] == list(range(12, 20))


def test_recorder_rejects_nonpositive_capacity(sim):
    with pytest.raises(ValueError):
        TraceRecorder(sim, capacity=0)


def test_disabled_recorder_records_nothing(sim):
    rec = TraceRecorder(sim, capacity=64)
    rec.enabled = False
    for i in range(10_000):
        rec.instant(CAT_PAGE, "twin", node=0, page=i)
        rec.span(CAT_PAGE, "fetch", 0.0, node=0, page=i)
    assert len(rec) == 0
    assert rec.n_emitted == 0
    assert rec.n_dropped == 0


def test_unattached_simulator_has_no_trace(sim):
    # the zero-cost fast path: every instrumentation site guards on this
    assert sim.probe is None


def test_category_filter(sim):
    rec = TraceRecorder(sim, capacity=64, categories={CAT_BARRIER})
    rec.instant(CAT_PAGE, "twin", node=0, page=1)
    rec.instant(CAT_BARRIER, "arrive", node=0, epoch=0)
    assert len(rec) == 1
    assert rec.events[0].cat == CAT_BARRIER


def test_default_categories_exclude_sim(sim):
    rec = TraceRecorder(sim)
    assert rec.categories == DEFAULT_CATEGORIES
    assert CAT_SIM not in rec.categories
    assert CAT_SIM in ALL_CATEGORIES


def test_attach_detach(sim):
    rec = TraceRecorder(sim, capacity=4)
    assert rec in sim.probe.subscribers
    rec.detach()
    assert sim.probe is None
    rec.attach()
    assert rec in sim.probe.subscribers


def test_drain_clears_ring(sim):
    rec = TraceRecorder(sim, capacity=8)
    rec.instant(CAT_PAGE, "twin", node=0)
    assert len(rec.drain()) == 1
    assert len(rec) == 0


# ------------------------------------------------------------ exporters
def _golden_events():
    return [
        TraceEvent(ts=1e-6, cat="dsm.page", name="page-state", node=0, tid="omp[0.0]r1",
                   args={"page": 3, "src": "INVALID", "dst": "TRANSIENT", "reason": "fault"}),
        TraceEvent(ts=2e-6, cat="dsm.page", name="fetch", node=0, tid="omp[0.0]r1",
                   dur=3e-6, args={"page": 3, "home": 1, "nbytes": 4096}),
        TraceEvent(ts=6e-6, cat="sim", name="resume", node=-1, tid="comm[1]"),
    ]


def test_chrome_export_golden():
    doc = to_chrome(_golden_events(), label="golden")
    assert doc["otherData"]["label"] == "golden"
    evs = doc["traceEvents"]
    # metadata: process_name + process_sort_index per pid, thread_name per track
    meta = [e for e in evs if e["ph"] == "M"]
    names = {(e["name"], e["pid"]): e["args"] for e in meta}
    assert names[("process_name", 0)] == {"name": "node0"}
    assert names[("process_name", 999)] == {"name": "simulator"}
    assert names[("thread_name", 0)] == {"name": "omp[0.0]r1"}

    data = [e for e in evs if e["ph"] != "M"]
    assert [e["ph"] for e in data] == ["i", "X", "i"]
    instant, span, simev = data
    assert instant == {
        "name": "page-state", "cat": "dsm.page", "ts": 1.0, "pid": 0, "tid": 1,
        "args": {"page": 3, "src": "INVALID", "dst": "TRANSIENT", "reason": "fault"},
        "ph": "i", "s": "t",
    }
    assert span["ph"] == "X"
    assert span["ts"] == pytest.approx(2.0)
    assert span["dur"] == pytest.approx(3.0)
    assert span["pid"] == 0 and span["tid"] == 1
    assert simev["pid"] == 999


def test_chrome_json_file_roundtrip(tmp_path):
    path = str(tmp_path / "trace.json")
    n = write_chrome_json(_golden_events(), path)
    doc = json.load(open(path))
    assert len(doc["traceEvents"]) == n
    for e in doc["traceEvents"]:
        assert "ph" in e and "pid" in e and "name" in e


def test_csv_export(tmp_path):
    path = str(tmp_path / "trace.csv")
    n = write_csv_events(_golden_events(), path)
    lines = open(path).read().strip().splitlines()
    assert n == 3
    assert lines[0] == "ts,dur,cat,name,node,tid,args"
    assert len(lines) == 4
    assert '""page"": 3' in lines[1] or '"page": 3' in lines[1]


# ------------------------------------------------------------ checker
def _transition(ts, node, page, src, dst, reason):
    return TraceEvent(ts=ts, cat=CAT_PAGE, name="page-state", node=node,
                      args={"page": page, "src": src, "dst": dst, "reason": reason})


def test_checker_accepts_legal_chain():
    events = [
        _transition(1e-6, 1, 0, "INVALID", "TRANSIENT", "fault"),
        _transition(2e-6, 1, 0, "TRANSIENT", "READ_ONLY", "update-done"),
        _transition(3e-6, 1, 0, "READ_ONLY", "DIRTY", "write-fault"),
        _transition(4e-6, 1, 0, "DIRTY", "READ_ONLY", "flush"),
    ]
    report = check_trace(events)
    assert report.ok
    assert report.n_transitions == 4
    assert "OK" in report.summary()


def test_checker_flags_injected_illegal_transition():
    events = [
        _transition(1e-6, 1, 0, "INVALID", "TRANSIENT", "fault"),
        _transition(2e-6, 1, 0, "TRANSIENT", "READ_ONLY", "update-done"),
        # deliberately illegal: INVALID -> DIRTY is not a Figure-5 edge,
        # and it also breaks the chain (last state was READ_ONLY)
        _transition(3e-6, 1, 0, "INVALID", "DIRTY", "fault"),
    ]
    report = check_trace(events)
    assert not report.ok
    kinds = {v.kind for v in report.violations}
    assert kinds == {"illegal-transition", "broken-chain"}
    assert "VIOLATION" in report.summary()


def test_checker_flags_malformed_args():
    bad = TraceEvent(ts=0.0, cat=CAT_PAGE, name="page-state", node=2,
                     args={"page": 1, "src": "NOT_A_STATE", "dst": "DIRTY"})
    report = check_trace([bad])
    assert not report.ok
    assert report.violations[0].kind == "illegal-transition"


def _barrier(ts, node, epoch):
    return TraceEvent(ts=ts, cat=CAT_BARRIER, name="barrier", node=node,
                      dur=1e-6, args={"epoch": epoch})


def test_checker_barrier_epochs_ok():
    events = [_barrier(1e-6 * (e * 2 + n), n, e) for e in range(3) for n in range(2)]
    report = check_trace(events)
    assert report.ok
    assert report.n_barriers == 6


def test_checker_flags_epoch_gap_and_membership():
    events = [
        _barrier(1e-6, 0, 0), _barrier(1e-6, 1, 0),
        _barrier(2e-6, 0, 1),
        _barrier(3e-6, 0, 2), _barrier(3e-6, 1, 2),  # node 1 skipped epoch 1
    ]
    report = check_trace(events)
    kinds = {v.kind for v in report.violations}
    assert "epoch-order" in kinds
    assert "epoch-membership" in kinds


def test_checker_tolerates_ring_eviction_head_loss():
    # epochs starting above 0 (head of run evicted) are still consecutive
    events = [_barrier(1e-6 * e, n, e) for e in (5, 6, 7) for n in (0, 1)]
    assert check_trace(events).ok


def test_checker_tolerates_uneven_head_loss_across_nodes():
    # eviction truncates each node's prefix at a different epoch; only
    # the overlap window (epoch >= 6 here) is compared across nodes
    events = [_barrier(1e-6 * e, 0, e) for e in (6, 7)]
    events += [_barrier(1e-6 * e, 1, e) for e in (5, 6, 7)]
    assert check_trace(events).ok
    # ...but a node missing an epoch INSIDE the window is still flagged
    events = [_barrier(1e-6 * e, 0, e) for e in (5, 6, 7)]
    events += [_barrier(1e-6 * e, 1, e) for e in (5, 7)]
    kinds = {v.kind for v in check_trace(events).violations}
    assert "epoch-membership" in kinds


# ------------------------------------------------------------ integration
def _traced_run(n_nodes=2, **recorder_kw):
    entry = registered_programs()["helmholtz"]
    rt = ParadeRuntime(
        n_nodes=n_nodes, exec_config=TWO_THREAD_TWO_CPU,
        pool_bytes=entry["pool_bytes"],
    )
    rec = TraceRecorder(rt.sim, **recorder_kw)
    result = rt.run(entry["factory"]())
    return rec, result


def test_traced_run_passes_protocol_check():
    rec, _result = _traced_run()
    events = rec.events
    assert events, "traced run recorded nothing"
    report = check_trace(events)
    assert report.ok, report.summary()
    assert report.n_transitions > 0
    assert report.n_barriers > 0
    cats = {e.cat for e in events}
    assert {"dsm.page", "dsm.barrier", "mpi", "net", "runtime"} <= cats
    # spans carry durations; remote fetches take nonzero virtual time
    fetches = [e for e in events if e.name == "fetch"]
    assert fetches and all(e.dur > 0 for e in fetches)


def test_tracing_does_not_perturb_virtual_time():
    entry = registered_programs()["helmholtz"]

    def run(traced):
        rt = ParadeRuntime(n_nodes=2, exec_config=TWO_THREAD_TWO_CPU,
                           pool_bytes=entry["pool_bytes"])
        if traced:
            TraceRecorder(rt.sim, categories=ALL_CATEGORIES)
        return rt.run(entry["factory"]())

    untraced, traced = run(False), run(True)
    assert traced.elapsed == untraced.elapsed
    assert traced.cluster_stats == untraced.cluster_stats
    assert traced.dsm_stats == untraced.dsm_stats


def test_traced_run_respects_ring_bound():
    rec, _ = _traced_run(capacity=32)
    assert len(rec) <= 32
    assert rec.n_dropped == rec.n_emitted - len(rec) > 0


def test_sim_category_records_scheduler_events():
    rec, _ = _traced_run(categories=ALL_CATEGORIES)
    names = {e.name for e in rec.events if e.cat == CAT_SIM}
    assert {"resume", "block", "end"} <= names
    # scheduler events carry the emitting process label as the track
    tids = {e.tid for e in rec.events if e.cat == CAT_SIM}
    assert any(t.startswith("omp[") for t in tids)
    assert any(t.startswith("comm[") for t in tids)


def test_sim_category_shows_a_burst_as_one_block_and_one_resume():
    """A timed occupancy is kernel-resident under a recorder too: the
    grant is not a process resume (docs/TRACING.md "Categories")."""
    from repro.sim import Resource, Simulator

    sim = Simulator()
    rec = TraceRecorder(sim, categories={CAT_SIM})
    cpu = Resource(sim, capacity=1, name="cpu")

    def worker():
        yield from cpu.execute(2e-6)
        yield from cpu.execute(1e-6, again=iter([1e-6, 1e-6, None]).__next__)

    sim.process(worker(), label="w")
    sim.run()
    assert cpu.n_grants == 4
    end = 2e-6 + 1e-6 + 1e-6 + 1e-6
    assert [(e.ts, e.name, (e.args or {}).get("target")) for e in rec.events] == [
        (0.0, "resume", None), (0.0, "block", "req:cpu"),
        (2e-6, "resume", None), (2e-6, "block", "req:cpu"),  # a 3-slice chain
        (end, "resume", None), (end, "end", None),
    ]


def test_full_chrome_export_of_traced_run(tmp_path):
    rec, _ = _traced_run()
    path = str(tmp_path / "run.json")
    write_chrome_json(rec.events, path)
    doc = json.load(open(path))
    evs = doc["traceEvents"]
    assert evs
    pids = {e["pid"] for e in evs}
    assert {0, 1} <= pids  # both nodes present as processes
    for e in evs:
        assert "ph" in e and "pid" in e and "name" in e
        if e["ph"] != "M":
            assert "ts" in e and "tid" in e
