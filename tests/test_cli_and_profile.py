"""Tests for the translator CLI and the per-node run profile."""

import io
import os
import sys

import pytest

from repro.__main__ import main
from repro.runtime import ParadeRuntime, TWO_THREAD_TWO_CPU
from repro.mpi.ops import SUM

SRC = """
void f(void)
{
    double x;
    #pragma omp parallel shared(x)
    {
        #pragma omp critical
        x = x + 1.0;
    }
}
"""


@pytest.fixture
def src_file(tmp_path):
    p = tmp_path / "in.c"
    p.write_text(SRC)
    return str(p)


def _run_cli(args, capsys):
    rc = main(["translate", *args])
    out = capsys.readouterr().out
    return rc, out


def test_cli_default_backend(src_file, capsys):
    rc, out = _run_cli([src_file], capsys)
    assert rc == 0
    assert "parade_allreduce" in out


def test_cli_sdsm_backend(src_file, capsys):
    rc, out = _run_cli([src_file, "--backend", "sdsm"], capsys)
    assert "km_lock" in out and "parade_allreduce" not in out


def test_cli_both_backends(src_file, capsys):
    rc, out = _run_cli([src_file, "--backend", "both"], capsys)
    assert "parade_allreduce" in out and "km_lock" in out
    assert "===== parade translation =====" in out


def test_cli_lint_flag(src_file, capsys):
    rc, out = _run_cli([src_file, "--lint"], capsys)
    assert "G2" in out  # the critical-should-be-atomic finding


def test_cli_threshold_flag(src_file, capsys):
    rc, out = _run_cli([src_file, "--threshold", "0"], capsys)
    # footprint 8 B > 0 threshold: falls back to the SDSM lock
    assert "parade_sdsm_lock" in out


def test_cli_output_file(src_file, tmp_path, capsys):
    out_path = str(tmp_path / "out.c")
    rc, out = _run_cli([src_file, "-o", out_path], capsys)
    assert out == ""
    assert "parade_allreduce" in open(out_path).read()


def test_cli_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(SRC))
    rc, out = _run_cli(["-"], capsys)
    assert "parade_parallel" in out


# ------------------------------------------------------------- profile
def test_node_report_contents():
    rt = ParadeRuntime(n_nodes=4, exec_config=TWO_THREAD_TWO_CPU, pool_bytes=1 << 20)

    def program(ctx):
        x = ctx.shared_scalar("x")

        def body(tc, x):
            yield from tc.compute(50_000)
            yield from tc.critical_update(x, 1.0, SUM)

        yield from ctx.parallel(body, x)

    res = rt.run(program)
    assert len(res.node_profile) == 4
    for row in res.node_profile:
        assert row["compute"] > 0
        assert 0 <= row["busy_frac"] <= 1
        assert row["msgs_sent"] > 0
    report = res.node_report()
    assert "compute ms" in report
    assert report.count("\n") >= 5  # header + rule + 4 rows
    # the paper testbed: nodes 0-3 are 550 MHz in a 4-node cluster
    assert res.node_profile[0]["mhz"] == 550


def test_node_report_empty_without_profile():
    from repro.runtime.results import RunResult

    r = RunResult(value=None, elapsed=0.0, region_time=0.0)
    assert "no per-node profile" in r.node_report()


def test_node_report_degrades_on_missing_optional_keys():
    """Profile rows from external drivers / older result files may lack
    optional keys; the report must render zeros, not raise KeyError."""
    from repro.runtime.results import RunResult

    r = RunResult(
        value=None,
        elapsed=1.0,
        region_time=0.5,
        node_profile=[
            {"node": 0},  # bare minimum
            {"node": 1, "compute": 0.25, "msgs_sent": 7},  # partial
            {},  # entirely empty row
        ],
    )
    report = r.node_report()
    assert "compute ms" in report
    assert report.count("\n") == 4  # header + rule + 3 rows
    rows = report.splitlines()[2:]
    assert rows[0].strip().startswith("0")
    assert "250.000" in rows[1] and " 7 " in rows[1]
    assert rows[2].strip().startswith("?")
