"""End-to-end tests for ``python -m repro profile``."""

from __future__ import annotations

import json

from repro.__main__ import main


def test_cli_text_report_and_check(capsys):
    rc = main(["profile", "helmholtz", "--nodes", "2", "--check"])
    assert rc == 0
    out = capsys.readouterr().out
    # per-thread phase table, group rollup, critical path with what-ifs,
    # hot tables — all sections of the acceptance criteria
    assert "per-thread phases" in out
    assert "phase groups" in out
    assert "critical path" in out
    assert "what-if" in out
    assert "hot pages" in out
    assert "check: ok" in out


def test_cli_json_round_trips(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["profile", "helmholtz", "--nodes", "2", "--json", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["meta"]["app"] == "helmholtz"
    assert data["threads"]
    for tid, rec in data["threads"].items():
        total = sum(rec["phases"].values())
        assert abs(total - rec["total"]) < 1e-9, tid
    assert data["critical_path"]["what_if"]


def test_cli_chrome_export(tmp_path):
    out = tmp_path / "prof.json"
    rc = main(["profile", "helmholtz", "--nodes", "2", "--chrome", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    events = doc["traceEvents"]
    assert any(e.get("ph") == "X" and e.get("cat") == "profile" for e in events)
    assert any(e.get("ph") == "C" for e in events)


def test_cli_sdsm_lock_wait_visible(capsys):
    """Figure-7 shape on the conventional translation: the hot-lock table
    is populated and lock-wait shows up in the group rollup."""
    rc = main(["profile", "cg", "--nodes", "2", "--mode", "sdsm", "--check"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "hot locks" in out
    assert "lock-wait" in out
    assert "check: ok" in out


def test_cli_rejects_unknown_app(capsys):
    assert main(["profile", "no-such-app"]) == 1


def test_cli_rejects_a_negative_top(capsys):
    """``[:top]`` with top < 0 would drop the last |top| rows silently."""
    assert main(["profile", "helmholtz", "--nodes", "2", "--top", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.strip() == "--top must be >= 0, got -1"
    assert not captured.out
