"""Smoke tests for the wall-clock perf harness (``repro.bench.perf``).

Runs the *smoke* basket (tiny workloads) end to end so a regression in
the harness itself — a workload factory drifting out of sync with an app
signature, a broken schema, a non-deterministic measurement — fails
tier-1, without the full basket's runtime.
"""

import json

from repro.bench import perf


def test_smoke_basket_runs_and_reports(tmp_path):
    out = tmp_path / "bench.json"
    rc = perf.main(["--smoke", "--baseline", "--repeat", "1", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["schema"] == perf.SCHEMA
    results = report["baseline"]["results"]
    assert set(results) == {"helmholtz", "cg", "ep", "md"}
    for name, rec in results.items():
        assert rec["events"] > 0, name
        assert rec["wall_s"] > 0, name
        assert rec["virtual_s"] > 0, name
        assert rec["events_per_s"] > 0, name


def test_current_section_computes_speedup(tmp_path):
    out = tmp_path / "bench.json"
    assert perf.main(["--smoke", "--baseline", "--repeat", "1", "--out", str(out)]) == 0
    assert perf.main(["--smoke", "--repeat", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert "baseline" in report and "current" in report
    # identical code measured twice: events must match exactly (virtual
    # results are run invariants), speedup is host noise around 1.0
    for name, cur in report["current"]["results"].items():
        assert cur["events"] == report["baseline"]["results"][name]["events"]
    agg = report["speedup"]["aggregate_events_per_s"]
    assert 0.2 < agg < 5.0


def test_measure_workload_is_deterministic_across_repeats():
    spec = perf._smoke_basket()["helmholtz"]
    rec = perf.measure_workload(spec, n_nodes=2, repeat=2)  # asserts internally
    assert rec["events"] > 0


def test_phase_breakdown_recorded_and_deterministic():
    spec = perf._smoke_basket()["cg"]
    rec = perf.measure_workload(spec, n_nodes=2, repeat=1)
    ph = rec["phases"]
    assert ph and abs(sum(ph.values()) - 1.0) < 1e-2
    assert perf.phase_breakdown(spec, n_nodes=2) == ph


def test_compute_speedup_math():
    base = {"a": {"wall_s": 2.0, "events": 100, "events_per_s": 50.0}}
    cur = {"a": {"wall_s": 1.0, "events": 100, "events_per_s": 100.0}}
    out = perf.compute_speedup(base, cur)
    assert out["per_workload"]["a"] == 2.0
    assert out["aggregate_events_per_s"] == 2.0
