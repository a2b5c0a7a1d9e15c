"""Virtual-time profiler tests: attribution exactness and determinism.

The profiler's core contract mirrors the golden determinism suite
(``test_determinism_golden.py``): attaching it is purely observational —
it may not create simulation events or change virtual time — and its
own output (phase ledgers, critical path, hot tables) must be
bit-identical across repeated runs and across the fast-path on/off
switch.  Its accounting contract is exactness: per-thread phase sums
equal thread lifetimes to fp rounding, and the critical path tiles the
whole elapsed interval.
"""

from __future__ import annotations

import json

import pytest

from repro.apps import cg, helmholtz
from repro.profile import (
    GROUP_OF,
    Profiler,
    ProfileReport,
    compute_critical_path,
    percentile,
)
from repro.profile.critical_path import UNATTRIBUTED
from repro.runtime import ParadeRuntime

N_NODES = 2
POOL_BYTES = 1 << 21


def _run_profiled(mode="parade", program=None):
    rt = ParadeRuntime(n_nodes=N_NODES, mode=mode, pool_bytes=POOL_BYTES)
    prof = Profiler(rt.sim)
    res = rt.run(program() if program else helmholtz.make_program(n=48, m=48, max_iters=3))
    prof.finalize()
    return rt, res, prof


def _profile_fingerprint(prof):
    """Everything the profiler derives, as one canonical JSON string."""
    report = ProfileReport.from_profiler(prof)
    return json.dumps(report.as_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# attribution exactness
# ----------------------------------------------------------------------
def test_phase_sums_equal_thread_lifetimes():
    _, _, prof = _run_profiled()
    assert prof.ledgers()
    assert prof.max_sum_error() < 1e-9
    for tid, ledger in prof.ledgers().items():
        assert ledger, tid
        assert all(dur >= 0.0 for dur in ledger.values()), tid
        assert sum(ledger.values()) == pytest.approx(
            prof.thread_total(tid), abs=1e-9
        ), tid


def test_group_fractions_sum_to_one():
    _, _, prof = _run_profiled()
    fracs = prof.group_fractions()
    assert set(fracs) <= set(GROUP_OF.values())
    assert sum(fracs.values()) == pytest.approx(1.0, abs=1e-3)


def test_critical_path_tiles_elapsed_with_no_gaps():
    _, res, prof = _run_profiled()
    cp = compute_critical_path(
        prof.intervals + prof.net_intervals, t_end=prof.finalized_at
    )
    assert cp.elapsed == pytest.approx(res.elapsed, abs=1e-12)
    assert sum(cp.phase_time.values()) == pytest.approx(cp.elapsed, rel=1e-9)
    # the simulation is always doing *something*: every instant of the
    # run is covered by some active interval
    assert cp.phase_time.get(UNATTRIBUTED, 0.0) == pytest.approx(0.0, abs=1e-12)
    # what-if bounds: each saves a non-negative slice of the elapsed time
    assert len(cp.what_if) >= 2
    for name, bound in cp.what_if.items():
        assert 0.0 <= bound <= cp.elapsed + 1e-12, name


def test_report_check_is_clean_and_json_round_trips():
    _, _, prof = _run_profiled()
    report = ProfileReport.from_profiler(prof)
    assert report.check() == []
    clone = ProfileReport.from_dict(json.loads(json.dumps(report.as_dict())))
    assert clone.as_dict() == report.as_dict()
    assert clone.render() == report.render()


# ----------------------------------------------------------------------
# determinism (mirrors test_determinism_golden.py)
# ----------------------------------------------------------------------
def test_repeat_runs_produce_identical_profiles():
    _, res_a, prof_a = _run_profiled()
    _, res_b, prof_b = _run_profiled()
    assert res_a.elapsed == res_b.elapsed
    assert prof_a.ledgers() == prof_b.ledgers()
    assert _profile_fingerprint(prof_a) == _profile_fingerprint(prof_b)


def test_fast_path_on_off_produces_identical_profiles(slow_access):
    """The hot-path cache is invisible to the profiler: same ledgers,
    same critical path, same hot tables with it on or off."""
    _, res_on, prof_on = _run_profiled()
    slow_access()
    _, res_off, prof_off = _run_profiled()
    assert res_on.elapsed == res_off.elapsed
    assert prof_on.ledgers() == prof_off.ledgers()
    assert _profile_fingerprint(prof_on) == _profile_fingerprint(prof_off)


def test_profiler_is_observationally_pure():
    """Attaching the profiler may not change what the simulation does:
    virtual time, event count, and protocol stats are unchanged."""
    rt_plain = ParadeRuntime(n_nodes=N_NODES, pool_bytes=POOL_BYTES)
    res_plain = rt_plain.run(helmholtz.make_program(n=48, m=48, max_iters=3))
    assert rt_plain.sim.probe is None
    _, res_prof, _ = _run_profiled()
    assert res_prof.elapsed == res_plain.elapsed
    assert res_prof.dsm_stats == res_plain.dsm_stats
    assert res_prof.cluster_stats == res_plain.cluster_stats


# ----------------------------------------------------------------------
# hot tables (lock-heavy sdsm workload: the Figure-7 shape)
# ----------------------------------------------------------------------
def test_sdsm_hot_tables_and_lock_wait_dominance():
    _, _, prof = _run_profiled(
        mode="sdsm", program=lambda: cg.make_program("T", niter=1)
    )
    # hot pages: faults recorded, fetch bytes counted
    assert prof.pages
    assert sum(p.read_faults + p.write_faults for p in prof.pages.values()) > 0
    assert sum(p.fetch_bytes for p in prof.pages.values()) > 0
    # hot locks: the conventional translation reduces under a critical
    # section, so the reduction lock shows acquires, hops and waits
    assert prof.locks
    busiest = max(prof.locks.values(), key=lambda s: s.acquires)
    assert busiest.acquires > 0
    assert busiest.remote_acquires > 0
    assert busiest.hops > 0
    assert busiest.waits and all(w >= 0.0 for w in busiest.waits)
    # the KDSM busy-wait anomaly: lock/barrier waiting is a first-order
    # fraction of total thread time in the sdsm translation
    totals = prof.group_totals()
    assert totals.get("sync", 0.0) / sum(totals.values()) > 0.10


def test_runtime_profile_flag_attaches_and_finalizes():
    rt = ParadeRuntime(n_nodes=N_NODES, pool_bytes=POOL_BYTES, profile=True)
    assert rt.profiler is not None and rt.profiler in rt.sim.probe.subscribers
    rt.run(helmholtz.make_program(n=24, m=24, max_iters=2))
    assert rt.profiler.finalized_at == rt.sim.now
    assert rt.profiler.max_sum_error() < 1e-9


# ----------------------------------------------------------------------
# unit: nearest-rank percentile
# ----------------------------------------------------------------------
def test_percentile_nearest_rank():
    vals = [1.0, 2.0, 3.0, 4.0]
    assert percentile(vals, 50) == 2.0
    assert percentile(vals, 90) == 4.0
    assert percentile(vals, 99) == 4.0
    assert percentile([7.5], 50) == 7.5
