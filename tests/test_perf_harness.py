"""The virtual-time record and its gate (``python -m repro perf``).

Runs the *smoke* grid (tiny workloads, the 16-node scale point) end to
end, so a workload factory drifting out of sync with an app signature, a
host-dependent field leaking into the record, or a gate that passes
because it measured nothing fails tier-1 — without the full grid's
runtime.  The record comparator (what fails, what gets explained) is
tested on hand-made records at the end.
"""

import copy
import json
import re

import pytest

from repro.__main__ import main
from repro.bench import perf


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One smoke record, and a run cache of its own that the gate tests
    replay from (so each of them costs milliseconds)."""
    tmp = tmp_path_factory.mktemp("perf")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PARADE_CACHE_DIR", str(tmp / "cache"))
        mp.delenv("PARADE_CACHE", raising=False)
        out = tmp / "record.json"
        assert main(["perf", "--record", "--smoke", "--jobs", "1", "--out", str(out)]) == 0
        yield out


def _edited(recorded, tmp_path, edit):
    report = json.loads(recorded.read_text())
    edit(report)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(report))
    return str(path)


def test_smoke_basket_runs_and_reports(recorded):
    report = json.loads(recorded.read_text())
    assert report["schema"] == perf.SCHEMA and report["smoke"] is True
    for section in ("paper", "accel"):
        assert set(report[section]) == {"helmholtz", "cg", "ep", "md"}
    point = report["scale"][str(perf.SCALE_GATE_NODES)]
    assert set(point) == {"flat", "hier"} and set(point["hier"]) == {"helmholtz", "cg"}
    for path, _ in perf.grid(smoke=True):
        rec = perf._dig(report, path)
        assert rec["events"] > 0 and rec["virtual_s"] > 0 and rec["msgs_sent"] > 0, path
    # the tree barrier caps the master's inflow at the fan-in
    flat, hier = point["flat"]["cg"], point["hier"]["cg"]
    assert flat["master_arrivals_rx"] / flat["epochs"] == perf.SCALE_GATE_NODES - 1
    assert hier["master_arrivals_rx"] / hier["epochs"] <= report["fanin"]


def test_record_holds_nothing_of_the_host_or_the_day(recorded):
    text = recorded.read_text()
    for word in ("wall", "per_s", "timestamp", "meta", "python", "platform", "digest"):
        assert word not in text, word
    assert not re.search(r"20\d\d-\d\d-\d\d", text)
    for gone in ("baseline", "current", "speedup", "fleet", "accel_effect"):
        assert gone not in json.loads(text)


def test_record_twice_is_byte_identical(recorded, tmp_path):
    """Simulated afresh or replayed from the run cache."""
    for name, extra in (("again.json", ["--no-cache"]), ("replayed.json", [])):
        out = tmp_path / name
        assert main(["perf", "--record", "--smoke", "--jobs", "1", "--out", str(out)]
                         + extra) == 0
        assert out.read_bytes() == recorded.read_bytes(), name


def test_phase_breakdown_recorded_and_deterministic(recorded):
    report = json.loads(recorded.read_text())
    for path, _ in perf.grid(smoke=True):
        rec = perf._dig(report, path)
        assert abs(sum(rec["phases"].values()) - 1.0) < 1e-2, path
        assert 0.0 <= rec["barrier_frac"] + rec["lock_frac"] <= 1.0, path


def test_gate_passes_on_its_own_record_having_compared_something(recorded, capsys):
    assert main(["perf", "--gate", "--smoke", "--jobs", "1", "--out", str(recorded)]) == 0
    out = capsys.readouterr().out
    executed, hits = map(int, re.search(r"executed=(\d+).*cache hits=(\d+)", out).groups())
    assert executed + hits == 6
    assert "bench-gate: OK" in out


def test_gate_fails_on_a_moved_virtual_time_and_says_what_moved(
        recorded, tmp_path, capsys):
    def edit(report):
        # cg carries the smoke accel basket: +10 % on it moves the aggregate > 5 %
        report["accel"]["cg"]["virtual_s"] *= 1.10
        report["accel"]["cg"]["msgs_sent"] += 7

    path = _edited(recorded, tmp_path, edit)
    assert main(["perf", "--gate", "--smoke", "--jobs", "1", "--out", path]) == 1
    out = capsys.readouterr().out
    assert "bench-gate: FAIL" in out and "accel: aggregate virtual_s" in out
    moved = [line for line in out.splitlines() if "virtual_s moved" in line]
    assert len(moved) == 1 and moved[0].strip().startswith("cg:")
    assert "msgs_sent" in moved[0] and "(-7)" in moved[0]


def test_gate_fails_when_there_is_nothing_to_compare(recorded, tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert main(["perf", "--gate", "--smoke", "--out", str(empty)]) == 1
    assert main(["perf", "--gate", "--smoke", "--out", str(tmp_path / "missing.json")]) == 1
    no_scale = _edited(recorded, tmp_path, lambda report: report.pop("scale"))
    assert main(["perf", "--gate", "--smoke", "--out", no_scale]) == 1
    assert "no scale/16/hier record" in capsys.readouterr().out
    # a full-size gate against a smoke record compares apples with oranges
    assert main(["perf", "--gate", "--out", str(recorded)]) == 1


def test_gate_fails_when_a_recorded_workload_is_gone(recorded, tmp_path, capsys):
    path = _edited(recorded, tmp_path, lambda report: report["accel"].pop("md"))
    assert main(["perf", "--gate", "--smoke", "--jobs", "1", "--out", path]) == 1
    assert "re-record" in capsys.readouterr().out


def test_smoke_record_needs_an_explicit_path(capsys):
    assert main(["perf", "--record", "--smoke"]) == 2
    assert "needs --out" in capsys.readouterr().err


# ------------------------------------------------------ the comparator
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
    verdict = perf.compare_records(_records(), _records(), "basket")
    assert verdict.ok and not verdict.problems
    assert len(verdict.lines) == 1 and "+0.00%" in verdict.lines[0]


def test_virtual_time_drift_always_fails():
    """Beyond the tolerance, in either direction: a record 8 % too
    pessimistic is as untrue as one 8 % too optimistic."""
    for factor in (1.2, 0.8):  # alpha is 40 % of the aggregate
        cur = _records()
        cur["alpha"]["virtual_s"] *= factor
        verdict = perf.compare_records(_records(), cur, "basket")
        assert not verdict.ok
        assert "aggregate virtual_s" in verdict.problems[0]
    # within the band the aggregate passes — and the move is still reported
    cur = _records()
    cur["alpha"]["virtual_s"] *= 1.001
    verdict = perf.compare_records(_records(), cur, "basket")
    assert verdict.ok
    assert any(line.strip().startswith("alpha: virtual_s moved") for line in verdict.lines)
    assert not any("beta" in line for line in verdict.lines)


def test_every_gated_metric_is_banded():
    cur = _records()
    cur["beta"]["barrier_s"] *= 1.2
    assert perf.compare_records(_records(), cur, "scale").ok
    verdict = perf.compare_records(
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
        ln for ln in perf.compare_records(_records(), cur, "basket").lines
        if "virtual_s moved" in ln
    ]
    assert "phases.compute: 0.35 -> 0.25 (-0.1)" in line
    assert "phases.stall: 0.3 -> 0.4 (+0.1)" in line
    assert "msgs_sent: 5000 -> 5012 (+12)" in line
    assert "events" not in line and "phases.sync" not in line


def test_missing_workload_and_section():
    cur = _records()
    del cur["alpha"]
    verdict = perf.compare_records(_records(), cur, "basket")
    assert not verdict.ok and "alpha" in verdict.problems[0]
    assert not perf.compare_records({}, _records(), "basket").ok
