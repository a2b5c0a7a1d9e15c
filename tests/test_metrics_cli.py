"""``python -m repro metrics``: scorecards from metered fleet records and
the dump ``--json`` writes."""

from __future__ import annotations

import json

from repro.__main__ import main
from repro.fleet import spec as fleet_spec


def test_cli_run_writes_a_sampled_dump(tmp_path, capsys):
    """The dump holds what the scorecard reads: samples on more than one
    grid point, non-empty series, and the lock-wait and barrier-epoch
    histograms (a lock-using sdsm run)."""
    dump_path = tmp_path / "hh.metrics.json"
    assert main([
        "metrics", "helmholtz", "--nodes", "2", "--mode", "sdsm",
        "--json", str(dump_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "helmholtz" in out and "vt(ms)" in out
    dump = json.loads(dump_path.read_text())
    assert dump["n_samples"] > 1
    assert dump["series"] and all(s["t"] for s in dump["series"].values())
    histograms = {i["name"] for i in dump["instruments"] if i["kind"] == "histogram"}
    assert {"lock_wait_seconds", "barrier_epoch_seconds"} <= histograms


def test_cli_run_rejects_unknown_app(capsys):
    assert main(["metrics", "no-such-app"]) == 1


def test_cli_metrics_failed_run_exits_2(monkeypatch, capsys):
    """A failed record prints its error, and no scorecard."""
    def crash(spec, observe):
        raise RuntimeError("planted crash")

    monkeypatch.setattr(fleet_spec, "_single_run", crash)
    assert main(["metrics", "helmholtz", "--nodes", "2"]) == 2
    captured = capsys.readouterr()
    assert "RuntimeError: planted crash" in captured.err
    assert "vt(ms)" not in captured.out
