"""The virtual-time record and its gate (``repro.bench.perf``).

Runs the *smoke* grid (tiny workloads, the 16-node scale point) end to
end, so a workload factory drifting out of sync with an app signature, a
host-dependent field leaking into the record, or a gate that passes
because it measured nothing fails tier-1 — without the full grid's
runtime.
"""

import json
import re

import pytest

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
        assert perf.main(["--record", "--smoke", "--jobs", "1", "--out", str(out)]) == 0
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
        assert perf.main(["--record", "--smoke", "--jobs", "1", "--out", str(out)]
                         + extra) == 0
        assert out.read_bytes() == recorded.read_bytes(), name


def test_phase_breakdown_recorded_and_deterministic(recorded):
    report = json.loads(recorded.read_text())
    for path, _ in perf.grid(smoke=True):
        rec = perf._dig(report, path)
        assert abs(sum(rec["phases"].values()) - 1.0) < 1e-2, path
        assert 0.0 <= rec["barrier_frac"] + rec["lock_frac"] <= 1.0, path


def test_gate_passes_on_its_own_record_having_compared_something(recorded, capsys):
    assert perf.main(["--gate", "--smoke", "--jobs", "1", "--out", str(recorded)]) == 0
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
    assert perf.main(["--gate", "--smoke", "--jobs", "1", "--out", path]) == 1
    out = capsys.readouterr().out
    assert "bench-gate: FAIL" in out and "accel: aggregate virtual_s" in out
    moved = [line for line in out.splitlines() if "virtual_s moved" in line]
    assert len(moved) == 1 and moved[0].strip().startswith("cg:")
    assert "msgs_sent" in moved[0] and "(-7)" in moved[0]


def test_gate_fails_when_there_is_nothing_to_compare(recorded, tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert perf.main(["--gate", "--smoke", "--out", str(empty)]) == 1
    assert perf.main(["--gate", "--smoke", "--out", str(tmp_path / "missing.json")]) == 1
    no_scale = _edited(recorded, tmp_path, lambda report: report.pop("scale"))
    assert perf.main(["--gate", "--smoke", "--out", no_scale]) == 1
    assert "no scale/16/hier record" in capsys.readouterr().out
    # a full-size gate against a smoke record compares apples with oranges
    assert perf.main(["--gate", "--out", str(recorded)]) == 1


def test_gate_fails_when_a_recorded_workload_is_gone(recorded, tmp_path, capsys):
    path = _edited(recorded, tmp_path, lambda report: report["accel"].pop("md"))
    assert perf.main(["--gate", "--smoke", "--jobs", "1", "--out", path]) == 1
    assert "re-record" in capsys.readouterr().out


def test_smoke_record_needs_an_explicit_path():
    with pytest.raises(SystemExit):
        perf.main(["--record", "--smoke"])
