"""Counter-series tracing: queue-depth sampling, page-state census, and
the ``ph:"C"`` Chrome export (first ROADMAP trace follow-up)."""

from __future__ import annotations

import json

import pytest

from repro.sim import Simulator
from repro.trace import (
    TraceRecorder,
    CAT_COUNTER,
    ALL_CATEGORIES,
    DEFAULT_CATEGORIES,
    to_chrome,
)
from repro.runtime import ParadeRuntime
from repro.bench.figures import registered_programs

from conftest import TraversalCountingList, recount


def test_counter_category_is_default_on():
    assert CAT_COUNTER in ALL_CATEGORIES
    assert CAT_COUNTER in DEFAULT_CATEGORIES


def test_counter_event_shape(sim):
    rec = TraceRecorder(sim, capacity=16)
    rec.counter(CAT_COUNTER, "queue-depth", depth=7)
    (ev,) = rec.events
    assert ev.is_counter
    assert not ev.is_span
    assert ev.ph == "C"
    assert ev.args == {"depth": 7}
    assert ev.as_dict()["ph"] == "C"


def test_counter_respects_category_filter(sim):
    rec = TraceRecorder(sim, capacity=16, categories={"dsm.page"})
    rec.counter(CAT_COUNTER, "queue-depth", depth=1)
    assert len(rec) == 0


def test_queue_depth_sampling_stride(sim):
    rec = TraceRecorder(sim, capacity=1 << 12, queue_stride=4)
    # 10 timeouts -> 10 processed events -> samples at steps 4 and 8
    for _ in range(10):
        sim.timeout(1.0)
    sim.run()
    samples = [e for e in rec.events if e.name == "queue-depth"]
    assert len(samples) == 2
    assert all(e.is_counter for e in samples)
    # depths decrease as the schedule drains
    depths = [e.args["depth"] for e in samples]
    assert depths == sorted(depths, reverse=True)


def test_queue_stride_zero_disables_sampling(sim):
    rec = TraceRecorder(sim, capacity=64, queue_stride=0)
    for _ in range(100):
        sim.timeout(1.0)
    sim.run()
    assert not [e for e in rec.events if e.name == "queue-depth"]


def test_negative_queue_stride_rejected(sim):
    with pytest.raises(ValueError):
        TraceRecorder(sim, queue_stride=-1)


def test_chrome_export_counter_records(sim):
    rec = TraceRecorder(sim, capacity=16)
    rec.counter(CAT_COUNTER, "page-census", node=2, INVALID=3, READ_ONLY=5)
    doc = to_chrome(rec.events)
    counters = [r for r in doc["traceEvents"] if r.get("ph") == "C"]
    assert len(counters) == 1
    rec = counters[0]
    assert rec["name"] == "page-census"
    assert rec["pid"] == 2
    assert rec["args"] == {"INVALID": 3, "READ_ONLY": 5}
    json.dumps(doc)  # must be serialisable


def test_traced_run_emits_census_and_queue_counters():
    reg = registered_programs()["helmholtz"]
    rt = ParadeRuntime(n_nodes=2, pool_bytes=reg["pool_bytes"])
    rec = TraceRecorder(rt.sim, capacity=1 << 18, queue_stride=32)
    rt.run(reg["factory"]())
    events = rec.events
    census = [e for e in events if e.name == "page-census"]
    depth = [e for e in events if e.name == "queue-depth"]
    assert census and depth
    # every census sample covers all pages of the pool exactly once
    n_pages = rt.dsm.n_pages
    for ev in census:
        assert ev.node in (0, 1)
        assert sum(ev.args.values()) == n_pages
    # census fires once per node per barrier epoch
    barriers = [e for e in events if e.cat == "dsm.barrier" and e.name == "barrier"]
    assert len(census) == len(barriers)


def test_emit_census_never_walks_the_page_table():
    """The per-barrier census sample is O(states), not O(pool pages): it
    reads the node's maintained count."""
    reg = registered_programs()["helmholtz"]
    rt = ParadeRuntime(n_nodes=2, pool_bytes=reg["pool_bytes"])
    rec = TraceRecorder(rt.sim, capacity=1 << 18)
    rt.run(reg["factory"]())
    dn = rt.dsm.node(1)
    expect = dict(zip(("INVALID", "TRANSIENT", "BLOCKED", "READ_ONLY", "DIRTY"), recount(dn)))
    dn.state = TraversalCountingList(dn.state)
    n_before = len(rec.events)
    dn._emit_census(rt.sim.probe)
    assert dn.state.traversals == 0
    (ev,) = rec.events[n_before:]
    assert (ev.name, ev.node, ev.args) == ("page-census", 1, expect)
