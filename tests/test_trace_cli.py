"""Tests of ``python -m repro trace`` (in process, through the door's
``main``; ``tests/test_chaos_cli.py`` is the subprocess test of the
``__main__`` dispatch itself)."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main


def test_cli_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "usage" in out.lower()
    assert "perfetto" in out.lower() or "chrome" in out.lower()


def test_cli_tiny_traced_run(tmp_path, capsys):
    out = tmp_path / "trace.json"
    jsonl = tmp_path / "trace.jsonl"
    rc = main(["trace", "helmholtz", "--nodes", "2", "-o", str(out), "--jsonl", str(jsonl)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "elapsed" in stdout and "protocol check" not in stdout
    doc = json.load(open(out))
    evs = doc["traceEvents"]
    assert evs
    for e in evs:
        assert "ph" in e and "pid" in e and "name" in e
        if e["ph"] != "M":
            assert "ts" in e and "tid" in e
    rows = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert len(rows) == sum(1 for e in evs if e["ph"] in ("X", "i", "C"))


# flag coverage (fast; no simulation)
def test_cli_list(capsys):
    assert main(["trace", "--list"]) == 0
    out = capsys.readouterr().out
    for app in ("helmholtz", "ep", "cg", "md"):
        assert app in out


def test_cli_unknown_app(capsys):
    assert main(["trace", "nosuchapp"]) == 1
    assert "unknown app" in capsys.readouterr().err


def test_cli_unknown_exec(capsys):
    assert main(["trace", "helmholtz", "--exec", "9Thread-9CPU"]) == 1
    assert "unknown exec config" in capsys.readouterr().err


def test_cli_unknown_category(capsys):
    assert main(["trace", "helmholtz", "--cats", "dsm.page,bogus"]) == 1
    assert "unknown categories" in capsys.readouterr().err


def test_cli_in_process_run_with_category_filter(tmp_path, capsys):
    out = tmp_path / "t.json"
    rc = main(["trace", "helmholtz", "--nodes", "2", "-o", str(out),
               "--cats", "dsm.page,dsm.barrier"])
    assert rc == 0
    stdout = capsys.readouterr().out
    counted = {line.split()[0] for line in stdout.splitlines() if line.startswith("  ")}
    assert counted == {"dsm.page", "dsm.barrier"}
    doc = json.load(open(out))
    cats = {e.get("cat") for e in doc["traceEvents"] if e["ph"] != "M"}
    assert cats <= {"dsm.page", "dsm.barrier"}
