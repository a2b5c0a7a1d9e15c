"""Comparator tests (what fails, what gets explained) + metrics CLI wiring."""

from __future__ import annotations

import copy

from repro.metrics import regress
from repro.metrics.__main__ import main as metrics_main


def _records() -> dict:
    """A ``{workload: record}`` group of the shape
    ``repro.bench.perf.report_record`` writes."""
    return {
        "alpha": {
            "virtual_s": 0.040, "barrier_s": 0.010, "events": 50_000,
            "msgs_sent": 4_000, "bytes_sent": 600_000,
            "phases": {"compute": 0.55, "stall": 0.2, "sync": 0.2, "comm": 0.05},
        },
        "beta": {
            "virtual_s": 0.060, "barrier_s": 0.030, "events": 70_000,
            "msgs_sent": 5_000, "bytes_sent": 800_000,
            "phases": {"compute": 0.35, "stall": 0.3, "sync": 0.3, "comm": 0.05},
        },
    }


def test_identical_sections_pass():
    verdict = regress.compare_records(_records(), _records(), "basket")
    assert verdict.ok and not verdict.problems
    assert len(verdict.lines) == 1 and "+0.00%" in verdict.lines[0]


def test_virtual_time_drift_always_fails():
    """Beyond the tolerance, in either direction: a record 8 % too
    pessimistic is as untrue as one 8 % too optimistic."""
    for factor in (1.2, 0.8):  # alpha is 40 % of the aggregate
        cur = _records()
        cur["alpha"]["virtual_s"] *= factor
        verdict = regress.compare_records(_records(), cur, "basket")
        assert not verdict.ok
        assert "aggregate virtual_s" in verdict.problems[0]
    # within the band the aggregate passes — and the move is still reported
    cur = _records()
    cur["alpha"]["virtual_s"] *= 1.001
    verdict = regress.compare_records(_records(), cur, "basket")
    assert verdict.ok
    assert any(line.strip().startswith("alpha: virtual_s moved") for line in verdict.lines)
    assert not any("beta" in line for line in verdict.lines)


def test_every_gated_metric_is_banded():
    cur = _records()
    cur["beta"]["barrier_s"] *= 1.2
    assert regress.compare_records(_records(), cur, "scale").ok
    verdict = regress.compare_records(
        _records(), cur, "scale", gated=("virtual_s", "barrier_s")
    )
    assert not verdict.ok and "barrier_s" in verdict.problems[0]


def test_phase_fraction_drift():
    """A workload whose virtual time moved is explained: every count and
    phase fraction that changed, and none that did not."""
    cur = copy.deepcopy(_records())
    cur["beta"]["virtual_s"] *= 1.01
    cur["beta"]["phases"]["compute"] -= 0.10
    cur["beta"]["phases"]["stall"] += 0.10
    cur["beta"]["msgs_sent"] += 12
    (line,) = [
        ln for ln in regress.compare_records(_records(), cur, "basket").lines
        if "virtual_s moved" in ln
    ]
    assert "phases.compute: 0.35 -> 0.25 (-0.1)" in line
    assert "phases.stall: 0.3 -> 0.4 (+0.1)" in line
    assert "msgs_sent: 5000 -> 5012 (+12)" in line
    assert "events" not in line and "phases.sync" not in line


def test_missing_workload_and_section():
    cur = _records()
    del cur["alpha"]
    verdict = regress.compare_records(_records(), cur, "basket")
    assert not verdict.ok and "alpha" in verdict.problems[0]
    assert not regress.compare_records({}, _records(), "basket").ok


# ----------------------------------------------------------------- CLI
def test_cli_run_and_export_round_trip(tmp_path, capsys):
    dump_path = tmp_path / "hh.metrics.json"
    assert metrics_main([
        "run", "helmholtz", "--nodes", "2", "--json", str(dump_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "helmholtz" in out and "vt(ms)" in out
    assert dump_path.exists()
    prom = tmp_path / "m.prom"
    csv = tmp_path / "m.csv"
    chrome = tmp_path / "m.trace.json"
    assert metrics_main([
        "export", str(dump_path), "--prom", str(prom), "--csv", str(csv),
        "--chrome", str(chrome), "--check",
    ]) == 0
    assert prom.exists() and csv.exists() and chrome.exists()
    from repro.metrics.export import parse_prometheus

    assert parse_prometheus(prom.read_text())


def test_cli_run_rejects_unknown_app(capsys):
    assert metrics_main(["run", "no-such-app"]) == 1


def test_cli_smoke_gate():
    assert metrics_main(["smoke"]) == 0
