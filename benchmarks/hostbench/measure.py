"""Measurement core: metric definitions, child spawning, one workload's runs.

The benchmark is a closed loop with one client: children run strictly
one at a time, each in a fresh interpreter, with BLAS/OpenMP threads
pinned to 1 and every ``PARADE_*`` switch cleared from the environment.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from ledger import LAYERS
from workloads import Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORKDIR = HERE / ".work"

RUN_TIMEOUT_S = 120
#: one compute thread, and no transparent huge pages behind numpy's big
#: buffers (whether the kernel grants them varies run to run and moves
#: peak RSS by tens of MiB)
ENV_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: share of the median by which the metric may worsen (end-to-end only)
    bound: Optional[float] = None
    #: absolute slack below which a difference never counts (setup_s)
    abs_floor: float = 0.0
    #: a run invariant: any difference is a change of behaviour
    exact: bool = False


#: what a user of the simulator sees, per workload
END_TO_END = (
    Metric("wall_s", "s", "lower", 0.25),
    Metric("virtual_s", "sim_s", "lower", 0.0, exact=True),
    Metric("setup_s", "s", "lower", 0.25, abs_floor=0.05),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
    Metric("failed_frac", "frac", "lower", 0.0, exact=True),
)
#: the host-measured ones — the only kind a run-to-run bound applies to
TIMED = tuple(m for m in END_TO_END if not m.exact)

COUNTS = (
    "sim.events", "cluster.msgs_sent", "cluster.bytes_sent",
    "dsm.faults", "dsm.pages_fetched", "dsm.diffs_sent", "dsm.diff_bytes",
    "dsm.barriers", "dsm.lock_acquires", "dsm.lock_remote_acquires",
    "mpi.p2p", "mpi.collectives",
)

KERNELS = (
    Metric("sim.kernel.timeout_events_per_s", "1/s", "higher"),
    Metric("sim.kernel.handoff_events_per_s", "1/s", "higher"),
    Metric("cluster.send.us", "us", "lower"),
    Metric("vm.check_range.us", "us", "lower"),
    Metric("vm.view.us", "us", "lower"),
    Metric("dsm.compute_diff.us", "us", "lower"),
    Metric("dsm.apply_diff.us", "us", "lower"),
    Metric("dsm.read_fault.us", "us", "lower"),
    Metric("dsm.write_flush.us", "us", "lower"),
    Metric("dsm.lock_remote.us", "us", "lower"),
    Metric("dsm.barrier_8n.us", "us", "lower"),
    Metric("dsm.barrier_32n.us", "us", "lower"),
    Metric("mpi.allreduce_8n.us", "us", "lower"),
    Metric("mpi.bcast_8n.us", "us", "lower"),
    Metric("runtime.parallel_4n.us", "us", "lower"),
    Metric("translator.lines_per_s", "1/s", "higher"),
    Metric("harness.import_s", "s", "lower"),
    Metric("harness.run_many_overhead_ms_per_spec", "ms", "lower"),
    Metric("harness.cache_hit.ms", "ms", "lower"),
    Metric("observers.trace.overhead_x", "x", "lower"),
    Metric("observers.profile.overhead_x", "x", "lower"),
    Metric("observers.metrics.overhead_x", "x", "lower"),
    Metric("observers.sanitizer.overhead_x", "x", "lower"),
)

PER_LAYER = (
    # the paper's metric: an exact run invariant, so it has no run-to-run
    # bound and lives with the other exact numbers
    (Metric("virtual_s", "sim_s", "lower"),)
    + tuple(Metric(c, "count", "lower") for c in COUNTS)
    + (
        Metric("sim.events_per_s", "1/s", "higher"),
        Metric("sim.host_us_per_event", "us", "lower"),
    )
    + tuple(
        m
        for layer in LAYERS
        for m in (
            Metric(f"{layer}.self_s", "s", "lower"),
            # more of the run in application compute = less simulator overhead
            Metric(f"{layer}.share", "frac", "higher" if layer in ("apps", "numpy") else "lower"),
            Metric(f"{layer}.calls_in", "count", "lower"),
        )
    )
    + (Metric("trace.overhead_x", "x", "lower"),)
    + KERNELS
)

#: compared across the repeats, the detached run and the traced run
INVARIANTS = ("virtual_s", "counts", "digest")


class ChildFailed(Exception):
    pass


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PARADE_")}
    env.update(ENV_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def spawn(spec: Dict) -> Dict:
    """Run one child job to completion and return its JSON result.

    The child leads its own process group so that a timeout takes its
    own children (fleet workers, import probes) down with it."""
    spec = dict(spec, launch=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=child_env(), cwd=str(ROOT), start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"timeout after {RUN_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        tail = " | ".join(err.strip().splitlines()[-3:])
        raise ChildFailed(f"exit {proc.returncode}: {tail}")
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise ChildFailed(f"no JSON result on stdout: {out[-200:]!r}") from None


def summary(samples: List[float]) -> Dict[str, float]:
    """``min`` is the point estimate every comparison uses.
    The program is deterministic and host noise only ever adds time (and
    resident pages), so the quietest run is the closest to the code's own
    cost; on the seed host its run-to-run spread is 2-3x smaller than the
    median's.  Median and max stay in the report to show the noise."""
    return {
        "n": len(samples),
        "min": min(samples),
        "median": statistics.median(samples),
        "max": max(samples),
    }


def measure_workload(wl: Workload, seed: int, quick: bool, trace: bool,
                     repeats: Optional[int] = None,
                     seconds: Optional[float] = None) -> Dict:
    """All runs of one workload: unmeasured warm-up, the untraced repeats
    (a fixed count, or as many as fit in *seconds*, at least 3), the
    detached twin of an observed workload, and the traced run.

    A run fails on a child error or timeout, a wrong value, or a run
    invariant that differs from the first good run's; a failed run adds
    to ``failed`` and contributes no timing.
    """
    expected = wl.expected(seed, quick) if wl.expected else None
    base = {"workload": wl.name, "seed": seed, "quick": quick, "expected": expected}
    out: Dict = {
        "name": wl.name, "seed_changes_inputs": wl.uses_seed,
        "attempted": 0, "failed": 0, "failures": [],
        "samples": {m.name: [] for m in TIMED},
    }
    reference: Dict = {}

    def attempt(label: str, **extra) -> Optional[Dict]:
        out["attempted"] += 1
        try:
            res = spawn(dict(base, job="run", **extra))
            if not res["value_ok"]:
                raise ChildFailed("value check failed")
            if not reference:
                reference.update({k: res[k] for k in INVARIANTS})
            for k in INVARIANTS:
                if res[k] != reference[k]:
                    raise ChildFailed(f"{k} differs from the first run: "
                                      f"{res[k]!r} vs {reference[k]!r}")
        except ChildFailed as exc:
            out["failed"] += 1
            out["failures"].append(f"{label}: {exc}")
            return None
        return res

    if not quick:
        try:
            spawn(dict(base, job="warm"))
        except ChildFailed:
            pass  # the measured runs will fail the same way, and be counted

    t_start = time.monotonic()
    n = 0
    while True:
        n += 1
        res = attempt(f"repeat {n}")
        if res is not None:
            for m in TIMED:
                out["samples"][m.name].append(res[m.name])
        if repeats is not None:
            if n >= repeats:
                break
        else:
            # stop when the next repeat would overshoot by more than it adds
            spent = time.monotonic() - t_start
            if n >= 3 and spent + 0.5 * spent / n > seconds:
                break

    if wl.observed:
        # zero-perturbation: same spec, observers off, same simulated run
        attempt("detached twin", detached=True)
    traced = attempt("traced run", cprofile=True) if trace else None

    out.update(reference)
    if traced is not None:
        out["ledger"] = traced["ledger"]
        out["traced_wall_s"] = traced["wall_s"]
    return out


def measure_kernels(seed: int, quick: bool) -> Dict[str, float]:
    WORKDIR.mkdir(exist_ok=True)
    return spawn({"job": "kernels", "seed": seed, "quick": quick, "workdir": str(WORKDIR)})


def end_to_end_values(w: Dict) -> Dict[str, Dict]:
    """``{metric: summary}`` of one measured workload; the exact metrics
    are single values repeated identically by every good run."""
    vals = {name: summary(s) for name, s in w["samples"].items() if s}
    good = w["attempted"] - w["failed"]
    if "virtual_s" in w:
        v = w["virtual_s"]
        vals["virtual_s"] = dict(summary([v]), n=good)
    vals["failed_frac"] = dict(summary([w["failed"] / w["attempted"]]), n=w["attempted"])
    return vals


def per_layer_values(w: Dict, kernels: Optional[Dict[str, float]]) -> Dict[str, float]:
    """Every per-layer metric this measurement can state, by name."""
    vals: Dict[str, float] = {}
    if "virtual_s" in w:
        vals["virtual_s"] = w["virtual_s"]
        vals.update(w["counts"])
        walls = w["samples"]["wall_s"]
        if walls:
            wall = min(walls)
            events = w["counts"]["sim.events"]
            vals["sim.events_per_s"] = events / wall
            vals["sim.host_us_per_event"] = wall / events * 1e6
            if "traced_wall_s" in w:
                vals["trace.overhead_x"] = w["traced_wall_s"] / wall
    for layer, row in w.get("ledger", {}).items():
        for key, value in row.items():
            vals[f"{layer}.{key}"] = value
    vals.update(kernels or {})
    return vals
