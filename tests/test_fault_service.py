"""The range-at-a-time fault service (``DsmNode._acquire`` + the
write-upgrade burst chain) against its order oracle, its work bound, and
the sibling-downgrade case the plan's stamp exists for.

The oracle is the loop the service replaced — rescan the range after
every serviced fault, one page per burst — kept in ``conftest.py`` and
monkeypatched over ``DsmNode._acquire``: both must fault on the same
pages at the same instants from the same threads, and a recorder must
see the same events — in every category but ``sim``: the oracle's one
burst per page resumes the thread once per page, the service's burst
chain once per run.
"""

import json

import numpy as np
import pytest

from repro.apps import cg, helmholtz, md
from repro.dsm import PageState, SharedArray
from repro.dsm.config import HOMELESS_LRC, KDSM_BASELINE, PARADE_DSM
from repro.dsm.node import DsmNode
from repro.runtime import ParadeRuntime
from repro.sim.probe import CAT_AUDIT, Subscriber
from repro.trace import TraceRecorder
from conftest import build_dsm, rescan_acquire, run_all, sync_loops

PAGE = 4096
PER_PAGE = PAGE // 8  # float64 elements


class _FaultLog(Subscriber):
    """Every ``audit/fault`` as (time, thread, page, write)."""

    def __init__(self, sim):
        self.sim = sim
        self.faults = []
        self._handlers = {(CAT_AUDIT, "fault"): self._on_fault}
        self.attach()

    def _on_fault(self, a, *_):
        self.faults.append(
            (self.sim.now, self.sim.active_process.label, a["page"], a["write"]))


_APPS = {
    # 128 x 128 doubles = 32 pages: 4- to 8-page ranges per thread
    "helmholtz": lambda: helmholtz.make_program(n=128, m=128, max_iters=2),
    "cg": lambda: cg.make_program("T", niter=1),
    "md": lambda: md.make_program(n_particles=64, steps=2),
    "sync": sync_loops,
}
_PROTOCOLS = {
    "parade": {"mode": "parade"},
    "sdsm": {"mode": "sdsm"},
    "homeless": {"dsm_config": HOMELESS_LRC},
}
#: (protocol, nodes, accel, traced): the whole matrix detached, its
#: 2-node half plus one 4-node point under a recorder
_CASES = [
    (p, n, a, False) for p in sorted(_PROTOCOLS) for n in (2, 4) for a in (False, True)
] + [
    (p, 2, a, True) for p in sorted(_PROTOCOLS) for a in (False, True)
] + [("parade", 4, False, True)]


def _observe(app, protocol, n_nodes, accel, traced):
    """One run (default 2Thread-2CPU); everything that must not depend
    on how the fault loop learns its pages."""
    rt = ParadeRuntime(n_nodes=n_nodes, protocol_accel=accel,
                       pool_bytes=1 << 20, **_PROTOCOLS[protocol])
    log = _FaultLog(rt.sim)
    if traced:  # the default categories: everything but ``sim``
        rec = TraceRecorder(rt.sim, capacity=1 << 20)
    res = rt.run(_APPS[app]())
    assert log.faults or app == "sync"  # object-granularity scalars only
    out = {
        "elapsed": res.elapsed,
        "events": res.cluster_stats["events_processed"],
        "stats": [dn.stats.as_dict() for dn in rt.dsm.nodes],
        "n_faults": [dn.space.n_faults for dn in rt.dsm.nodes],
        "value": json.dumps(res.value, sort_keys=True, default=repr),
        "faults": log.faults,
    }
    if traced:
        assert rec.n_emitted <= rec.capacity
        out["trace"] = [(ev.ts, ev.dur, ev.cat, ev.name, ev.node, ev.tid, ev.args, ev.ph)
                        for ev in rec.events]
    return out


@pytest.mark.parametrize(
    "protocol,n_nodes,accel,traced", _CASES,
    ids=lambda v: {False: "off", True: "on"}.get(v, str(v)))
def test_service_order_equals_the_rescan_oracle(
        monkeypatch, protocol, n_nodes, accel, traced):
    """Same fault sequence (page, write, time, thread), stats, value and
    trace as rescanning after every fault."""
    # traced CG under sdsm is 300 k spin-slice events; its traced
    # coverage is the parade and homeless rows
    if protocol == "homeless" and accel:
        # the accelerator is home-based: this corner of the matrix is a
        # configuration error, not a run
        with pytest.raises(ValueError, match="homeless=True does not combine"):
            _observe("sync", protocol, n_nodes, accel, traced)
        return
    apps = [a for a in _APPS if not (traced and protocol == "sdsm" and a == "cg")]
    new = {app: _observe(app, protocol, n_nodes, accel, traced) for app in apps}
    monkeypatch.setattr(DsmNode, "_acquire", rescan_acquire)
    for app in apps:
        assert _observe(app, protocol, n_nodes, accel, traced) == new[app], app


# ------------------------------------------------------ sibling downgrades
def _sibling_scenario(dsm_config, notice_page):
    """Node 1, thread A write-faults through 8 valid clean pages homed on
    node 0.  Meanwhile its sibling B releases a lock under which it wrote
    page 1 (flush: RW -> R, after A planned around that page) and then
    acquires one whose grant carries node 0's notice for *notice_page*
    (invalidate: a page A already upgraded, is bursting on, or has yet to
    reach).  Returns what the run looked like."""
    # a SIGSEGV burst of 200 us: a lock round-trip fits inside a few
    # pages of the write-upgrade run
    cluster, _cts, dsm = build_dsm(2, dsm_config, fault_overhead=200e-6)
    sim = cluster.sim
    arr = SharedArray.allocate(dsm, "a", (8 * PER_PAGE,))
    first_page = arr.segment.addr // PAGE
    n0, n1 = dsm.node(0), dsm.node(1)
    log = _FaultLog(sim)
    scans, marks = [], {}
    lacking = n1.space.lacking

    def counted(addr, size, write):
        plan = lacking(addr, size, write)
        scans.append((sim.now, sim.active_process.label,
                      [p - first_page for p in plan]))
        return plan

    n1.space.lacking = counted

    def writer0():  # node 0 publishes a write to notice_page under lock 0
        yield from n0.lock_acquire(0)
        yield from arr.on(0).set_scalar(notice_page * PER_PAGE + 8, 7.0)
        yield from n0.lock_release(0)

    def thread_a():
        yield sim.timeout(2e-3)
        yield from arr.on(1).get()  # all 8 pages valid and clean
        yield sim.timeout(10e-3 - sim.now)
        marks["a0"] = sim.now
        view = yield from arr.on(1).writable()
        marks["a1"] = sim.now
        view[:] = 1.0
        return [n1.state[first_page + k].name for k in range(8)]

    def thread_b():
        yield sim.timeout(8e-3)
        yield from n1.lock_acquire(1)
        yield from arr.on(1).set_scalar(1 * PER_PAGE, 3.0)  # page 1 DIRTY
        yield sim.timeout(10.3e-3 - sim.now)
        yield from n1.lock_release(1)
        marks["released"] = sim.now
        yield sim.timeout(10.8e-3 - sim.now)  # a later page of A's run
        yield from n1.lock_acquire(0)
        marks["noticed"] = sim.now
        yield from n1.lock_release(0)

    states, *_ = run_all(cluster, [thread_a(), thread_b(), writer0()],
                         labels=["A", "B", "W0"])
    return {
        "states": states,
        "first_page": first_page,
        "faults": log.faults,
        "marks": marks,
        "elapsed": sim.now,
        "events": sim.events_processed,
        "stats": [dn.stats.as_dict() for dn in dsm.nodes],
        "plans_of_a": [plan for t, who, plan in scans
                       if who == "A" and t >= marks["a0"]],
    }


@pytest.mark.parametrize("dsm_config", [PARADE_DSM, KDSM_BASELINE],
                         ids=["parade", "kdsm"])
@pytest.mark.parametrize("notice_page", [0, 1, 6])
def test_sibling_downgrades_mid_run_rebuild_the_plan(
        monkeypatch, dsm_config, notice_page):
    new = _sibling_scenario(dsm_config, notice_page)
    m = new["marks"]
    # both downgrades landed inside A's 8-page write ...
    assert m["a0"] < m["released"] < m["noticed"] < m["a1"]
    # ... and each made A rebuild its plan (a page lost a right) rather
    # than carry on down a stale list: page 1 was writable when A first
    # planned, and the flush took pages A had already upgraded
    plans = new["plans_of_a"]
    assert len(plans) >= 3 and plans[0] == [0, 2, 3, 4, 5, 6, 7]
    assert 1 in plans[1] and all(plan == sorted(plan) for plan in plans)
    a_pages = [page - new["first_page"] for t, who, page, w in new["faults"]
               if who == "A" and w]
    assert a_pages[:2] == [0, 2] and 1 in a_pages and len(a_pages) > 8
    assert new["states"] == ["DIRTY"] * 8
    assert new["stats"][1]["invalidations"] >= 1

    monkeypatch.setattr(DsmNode, "_acquire", rescan_acquire)
    old = _sibling_scenario(dsm_config, notice_page)
    old.pop("plans_of_a"), new.pop("plans_of_a")  # the oracle never plans
    assert old == new


# ------------------------------------------------------------- work bound
class _Resumes(Subscriber):
    """Counts ``sim/resume`` per thread."""

    def __init__(self, sim):
        self.sim = sim
        self.count = {}
        self._handlers = {("sim", "resume"): self._on_resume}
        self.attach()

    def _on_resume(self, a, node, tid, *_):
        self.count[tid] = self.count.get(tid, 0) + 1


def _count_scans(space):
    """Wrap every whole-range look at the page table; returns the tally."""
    tally = {"n": 0}
    for name in ("lacking", "can_access", "check_range"):
        def counted(*args, _fn=getattr(space, name), **kw):
            tally["n"] += 1
            return _fn(*args, **kw)
        setattr(space, name, counted)
    return tally


def test_work_bound_of_a_32_page_access():
    """Write over 32 valid clean pages: <= 2 range scans (fast-path probe
    + plan), ONE thread resume, 64 CPU bursts, 32 write faults.  Read of
    32 INVALID pages: <= 2 scans, nothing having been downgraded."""
    cluster, _cts, dsm = build_dsm(2)
    arr = SharedArray.allocate(dsm, "a", (32 * PER_PAGE,))
    n0, n1 = dsm.node(0), dsm.node(1)
    resumes = _Resumes(cluster.sim)
    seen = {}

    def writer():  # node 0 is every page's home: all valid and clean
        scans = _count_scans(n0.space)
        grants, r0 = n0.node.cpus.n_grants, resumes.count.get("w", 0)
        yield from arr.on(0).set(np.ones(32 * PER_PAGE))
        seen["write"] = (scans["n"], resumes.count.get("w", 0) - r0,
                         n0.node.cpus.n_grants - grants, n0.stats.write_faults)

    def reader():
        yield cluster.sim.timeout(5e-3)
        scans, stamp = _count_scans(n1.space), n1.space.downgrades
        yield from arr.on(1).get()
        assert n1.space.downgrades == stamp
        seen["read"] = (scans["n"], n1.stats.read_faults)

    run_all(cluster, [writer(), reader()], labels=["w", "r"])
    assert seen["write"] == (2, 1, 64, 32)
    assert seen["read"] == (2, 32)
    assert all(n0.state[p] is PageState.DIRTY
               for p in n0.page_range(arr.segment.addr, arr.nbytes))


def _read_past_the_pool():
    cluster, _cts, dsm = build_dsm(2, pool_bytes=1 << 16)
    n1 = dsm.node(1)

    def prog():
        with pytest.raises(IndexError):
            yield from n1.acquire_read((n1.n_pages - 2) * PAGE, 4 * PAGE)
        return n1.stats.read_faults, cluster.sim.now

    return run_all(cluster, [prog()])[0]


def test_out_of_pool_access_fails_as_before(monkeypatch):
    """Pages below the pool's end are serviced first, then the access
    fails on the first page past it — under the oracle too."""
    new = _read_past_the_pool()
    monkeypatch.setattr(DsmNode, "_acquire", rescan_acquire)
    assert _read_past_the_pool() == new and new[0] == 2
