"""Self-test of hostbench (run explicitly; not part of tier-1):

    python benchmarks/hostbench/test_hostbench.py
    PYTHONPATH=src python -m pytest benchmarks/hostbench/test_hostbench.py

Runs the ``--quick`` benchmark once and checks that ``BENCHMARK.json`` and
the code agree: every workload and metric it names is produced, names and
counts stay inside the driver's limits, layer shares partition the run,
and the driver-mode output has the contracted shape.
"""

from __future__ import annotations

import functools
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
from ledger import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(HERE / "run.py")]


@functools.lru_cache(maxsize=None)
def quick_result() -> dict:
    """One ``--quick`` report, shared by the tests that read it."""
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        out = Path(tmp) / "quick.json"
        proc = subprocess.run(RUN + ["--quick", "--out", str(out)],
                              capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        return json.loads(out.read_text())


def test_benchmark_json_shape_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/hostbench"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [x["name"] for k in ("workloads", "end_to_end", "per_layer") for x in SPEC[k]]
    for section in ("workloads", "end_to_end", "per_layer"):
        in_section = [x["name"] for x in SPEC[section]]
        assert len(in_section) == len(set(in_section)), f"duplicate name in {section}"
    for name in names:
        assert NAME.fullmatch(name), name
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_benchmark_json_matches_the_code():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in measure.TIMED]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (m.name, m.unit, m.better) for m in measure.PER_LAYER]


def test_quick_run_produces_every_named_metric():
    result = quick_result()
    assert set(result["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    assert "kernel_failure" not in result
    for name, w in result["workloads"].items():
        assert w["failed"] == 0, (name, w["failures"])
        produced = measure.end_to_end_values(w)
        for m in measure.END_TO_END:
            assert m.name in produced, (name, m.name)
        layer_values = measure.per_layer_values(w, result["kernels"])
        missing = [m["name"] for m in SPEC["per_layer"] if m["name"] not in layer_values]
        assert not missing, (name, missing)


def test_layer_shares_partition_the_traced_run():
    observed = {w.name for w in WORKLOADS if w.observed}
    for name, w in quick_result()["workloads"].items():
        ledger = w["ledger"]
        assert set(ledger) == set(LAYERS)
        assert abs(sum(row["share"] for row in ledger.values()) - 1.0) <= 0.01, name
        if name not in observed:
            assert ledger["observers"]["self_s"] == 0, name
        else:
            assert ledger["observers"]["self_s"] > 0, name


def _driver_run(trace: int) -> dict:
    proc = subprocess.run(
        RUN + ["--quick", "--workload", "ep_4n", "--seed", "5", "--seconds", "1",
               "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=str(ROOT))
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_driver_mode_output_shape():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        res = _driver_run(trace)
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
        assert list(res["metrics"]) == [m["name"] for m in SPEC[section]]
        for m in SPEC[section]:
            got = res["metrics"][m["name"]]
            assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))


def test_refuses_to_run_without_the_simulator():
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "benchmarks" / "hostbench",
                        ignore=shutil.ignore_patterns("__pycache__", ".work", "tmp*"))
        proc = subprocess.run(
            [sys.executable, "benchmarks/hostbench/run.py", "--workload", "ep_4n",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=170, cwd=tmp)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items())
             if n.startswith("test_") and callable(f)]
    for test_name, fn in tests:
        fn()
        print(f"ok  {test_name}")
    print(f"{len(tests)} passed")
