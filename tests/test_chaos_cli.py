"""Smoke tests of ``python -m repro chaos``, run as a subprocess the way a
user runs it: the one test of the ``__main__`` dispatch itself."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]


def _cli(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro", "chaos", *argv],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=600,
    )


def test_list_plans():
    proc = _cli("--list")
    assert proc.returncode == 0, proc.stderr
    for name in ("clean", "drop", "dup", "reorder", "lossy-mix"):
        assert name in proc.stdout


def test_list_workloads():
    proc = _cli("--list")
    assert proc.returncode == 0, proc.stderr
    assert "helmholtz" in proc.stdout


def test_single_run_recovers():
    proc = _cli("helmholtz", "--plan", "drop", "--nodes", "2", "--seed", "3")
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert "recovered bit-identically" in proc.stdout


def test_sweep_smoke():
    proc = _cli("helmholtz", "--nodes", "2", "--plan", "drop,dup")
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert "every run recovered bit-identically" in proc.stdout


def test_unknown_app_and_plan_fail_cleanly():
    proc = _cli("no-such-app")
    assert proc.returncode == 1
    assert "unknown app" in proc.stderr
    proc = _cli("helmholtz", "--plan", "no-such-plan")
    assert proc.returncode == 1
    assert "unknown fault plan" in proc.stderr
