"""hostbench: the repeatable host-time benchmark of the ParADE simulator.

Three ways in (see README.md next to this file):

``python benchmarks/hostbench/run.py``
    The full report: every workload (5 untraced repeats + one traced run
    each), the microkernels, every metric by name with unit, sample count
    and min/median/max, the layer-share table and the differentiation
    check.  ``--quick`` is the < 30 s smoke version.

``python benchmarks/hostbench/run.py --agree``
    Two full sets back to back; the per-(metric, workload) agreement
    table goes to ``results/agreement.json``; exit 1 unless they agree.

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    One measured run for an outside driver (``BENCHMARK.json``): the last
    stdout line is one JSON object with ``correct``, ``attempted``,
    ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
from ledger import LAYERS  # noqa: E402
from workloads import BY_NAME, WORKLOADS  # noqa: E402

DEFAULT_REPEATS = 5
RESULTS = HERE / "results"


# ---------------------------------------------------------------- driver mode
def contract_run(args) -> int:
    """One run under the outside driver's contract."""
    if len(args.workload) != 1:
        print("--seconds/--trace measure exactly one --workload", file=sys.stderr)
        return 2
    wl = BY_NAME[args.workload[0]]
    traced = args.trace == 1
    w = measure.measure_workload(
        wl, args.seed, args.quick, trace=traced,
        # the traced run needs one untraced wall for its ratios, not a sample
        repeats=1 if traced else None, seconds=args.seconds,
    )
    attempted, failed = w["attempted"], w["failed"]
    if traced:
        attempted += 1
        try:
            kernels = measure.measure_kernels(args.seed, args.quick)
        except measure.ChildFailed as exc:
            failed += 1
            w["failures"].append(f"kernels: {exc}")
            kernels = {}
        values = measure.per_layer_values(w, kernels)
        wanted = measure.PER_LAYER
    else:
        values = {k: v["min"] for k, v in measure.end_to_end_values(w).items()}
        wanted = measure.TIMED
    for line in w["failures"]:
        print(f"hostbench: {wl.name}: {line}", file=sys.stderr)
    missing = [m.name for m in wanted if m.name not in values]
    if missing:
        print(f"hostbench: nothing measured for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in wanted},
    }))
    return 0


# ---------------------------------------------------------------- report mode
def host_info() -> Dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "env_pins": measure.ENV_PINS,
        "platform": platform.platform(),
    }


def measure_all(args, kernels: bool) -> Dict:
    """One full set: every selected workload, then the microkernels."""
    result: Dict = {"workloads": {}, "kernels": None}
    for name in args.workload:
        print(f"hostbench: measuring {name} ...", file=sys.stderr)
        result["workloads"][name] = measure.measure_workload(
            BY_NAME[name], args.seed, args.quick, trace=not args.no_trace,
            repeats=args.repeats,
        )
    if kernels:
        print("hostbench: measuring microkernels ...", file=sys.stderr)
        try:
            result["kernels"] = measure.measure_kernels(args.seed, args.quick)
        except measure.ChildFailed as exc:
            result["kernel_failure"] = str(exc)
    return result


def differentiation(workloads: Dict[str, Dict]) -> List[Dict]:
    """Does each workload still isolate the layer it exists for?  The
    expectations are the seed ones from README.md; a miss is a warning
    that the benchmark lost a mechanism/bypass pair, not a failed run."""

    def share(workload: str, *layers: str) -> Optional[float]:
        ledger = workloads.get(workload, {}).get("ledger")
        return sum(ledger[layer]["share"] for layer in layers) if ledger else None

    checks = []

    def check(what: str, values: List[Optional[float]], holds) -> None:
        if None in values:
            checks.append({"check": what, "status": "skipped (workload not traced)"})
        else:
            checks.append({"check": what, "values": values,
                           "status": "ok" if holds(*values) else "WARNING"})

    check("apps+numpy share on ep_4n >= 0.9",
          [share("ep_4n", "apps", "numpy")], lambda s: s >= 0.9)
    sdsm = workloads.get("sync_8n_sdsm", {}).get("ledger")
    check("sim is the largest layer on sync_8n_sdsm, and over half of it",
          [share("sync_8n_sdsm", "sim")],
          lambda s: s > 0.5 and s == max(row["share"] for row in sdsm.values()))
    check("dsm+vm share on helmholtz_8n >= 3x dsm+vm share on sync_8n",
          [share("helmholtz_8n", "dsm", "vm"), share("sync_8n", "dsm", "vm")],
          lambda a, b: a >= 3 * b)
    check("vm share on helmholtz_8n >= 3x vm share on sync_8n_sdsm",
          [share("helmholtz_8n", "vm"), share("sync_8n_sdsm", "vm")],
          lambda a, b: a >= 3 * b)
    check("mpi share on sync_8n >= 3x mpi share on cg_4n",
          [share("sync_8n", "mpi"), share("cg_4n", "mpi")],
          lambda a, b: a >= 3 * b)
    check("observers share: > 0.2 on cg_4n_observed, 0 on cg_4n",
          [share("cg_4n_observed", "observers"), share("cg_4n", "observers")],
          lambda a, b: a > 0.2 and b == 0.0)
    return checks


def print_report(result: Dict, repeats: int) -> None:
    units = {m.name: m.unit for m in measure.END_TO_END + measure.PER_LAYER}
    row = "{:<40} {:>7} {:>3} {:>14} {:>14} {:>14}".format

    def fmt(v: float) -> str:
        return f"{v:.6g}"

    print(f"\nEvery timing is shown as min/median/max of n runs (n={repeats} by default): "
          "too few for a tail\npercentile.  Comparisons use the min (the quietest run).")
    for name, w in result["workloads"].items():
        print(f"\n== {name}: {BY_NAME[name].why}")
        if not w["seed_changes_inputs"]:
            print("   (inputs fixed by NPB / the paper: --seed is ignored here)")
        for line in w["failures"]:
            print(f"   FAILED {line}")
        print(row("metric", "unit", "n", "min", "median", "max"))
        for metric, s in measure.end_to_end_values(w).items():
            print(row(metric, units[metric], s["n"], fmt(s["min"]), fmt(s["median"]),
                      fmt(s["max"])))
        for metric, v in measure.per_layer_values(w, None).items():
            if metric != "virtual_s":
                print(row(metric, units[metric], 1, "", fmt(v), ""))

    traced = {n: w for n, w in result["workloads"].items() if "ledger" in w}
    if traced:
        print("\n== layer shares of host self-time (traced run; cProfile inflates "
              "call-heavy layers)")
        print("{:<20}".format("workload") + "".join(f"{layer:>11}" for layer in LAYERS))
        for name, w in traced.items():
            print(f"{name:<20}" + "".join(
                f"{w['ledger'][layer]['share']:>11.3f}" for layer in LAYERS))
            total = sum(row_["share"] for row_ in w["ledger"].values())
            if abs(total - 1.0) > 0.01:
                print(f"   WARNING shares sum to {total:.4f}")
            if not BY_NAME[name].observed and w["ledger"]["observers"]["self_s"] != 0:
                print("   WARNING observers ran on a detached workload")
        print("\n== differentiation check"
              + ("" if result["differentiation"] else
                 " skipped: the --quick sizes are too small to isolate a layer"))
        for c in result["differentiation"]:
            values = ", ".join(fmt(v) for v in c.get("values", []))
            print(f"{c['status']:<8} {c['check']}" + (f"   [{values}]" if values else ""))

    if result.get("kernels"):
        print("\n== microkernels (workload-independent)")
        print(row("metric", "unit", "n", "", "value", ""))
        for m in measure.KERNELS:
            print(row(m.name, m.unit, 1, "", fmt(result["kernels"][m.name]), ""))
    if "kernel_failure" in result:
        print(f"\nFAILED microkernels: {result['kernel_failure']}")


def report(args) -> int:
    result = measure_all(args, kernels=not args.no_trace)
    result["host"] = host_info()
    result["args"] = {"seed": args.seed, "repeats": args.repeats, "quick": args.quick}
    result["differentiation"] = [] if args.quick else differentiation(result["workloads"])
    print_report(result, args.repeats)
    print(f"\nhost: {json.dumps(result['host'])}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    failed = sum(w["failed"] for w in result["workloads"].values())
    return 1 if failed or "kernel_failure" in result else 0


# ----------------------------------------------------------------- agreement
def agreement_rows(first: Dict, second: Dict) -> List[Dict]:
    """Per (end-to-end metric, workload): both sets' min and median, the
    relative difference of the mins, the bound, the verdict.  The two
    sets ran the same code, so a timed difference beyond the bound is
    noise this host cannot resolve at this repeat count: ``unresolved``,
    never "changed".
    """
    rows = []
    for name in first["workloads"]:
        a, b = first["workloads"][name], second["workloads"][name]
        va, vb = measure.end_to_end_values(a), measure.end_to_end_values(b)
        for m in measure.END_TO_END:
            if m.name not in va or m.name not in vb:
                rows.append({"workload": name, "metric": m.name, "status": "missing"})
                continue
            x, y = va[m.name]["min"], vb[m.name]["min"]
            rel = (y - x) / x if x else None
            if m.exact:
                status = "agree" if x == y else "differs"
            else:
                within = abs(y - x) <= max(m.bound * x, m.abs_floor)
                status = "agree" if within else "unresolved"
            rows.append({"workload": name, "metric": m.name, "unit": m.unit,
                         "first": x, "second": y, "rel_diff": rel,
                         "first_median": va[m.name]["median"],
                         "second_median": vb[m.name]["median"],
                         "bound": m.bound, "status": status})
        same = all(a.get(k) == b.get(k) for k in measure.INVARIANTS)
        rows.append({"workload": name, "metric": "exact counts + value digest",
                     "status": "agree" if same else "differs"})
    return rows


def agree(args) -> int:
    sets = []
    for i in (1, 2):
        print(f"hostbench: agreement set {i} of 2", file=sys.stderr)
        sets.append(measure_all(args, kernels=False))
    rows = agreement_rows(*sets)
    print("{:<20} {:<28} {:>12} {:>12} {:>9} {:>6}  {}".format(
        "workload", "metric", "first", "second", "rel diff", "bound", "status"))
    for r in rows:
        if "first" in r:
            rel = "" if r["rel_diff"] is None else f"{r['rel_diff']:+.2%}"
            print("{:<20} {:<28} {:>12.6g} {:>12.6g} {:>9} {:>6.2f}  {}".format(
                r["workload"], r["metric"], r["first"], r["second"], rel,
                r["bound"], r["status"]))
        else:
            print("{:<20} {:<28} {:>12} {:>12} {:>9} {:>6}  {}".format(
                r["workload"], r["metric"], "", "", "", "", r["status"]))
    ok = all(r["status"] == "agree" for r in rows)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / ("agreement-quick.json" if args.quick else "agreement.json")
    path.write_text(json.dumps({
        "agree": ok, "host": host_info(),
        "args": {"seed": args.seed, "repeats": args.repeats, "quick": args.quick,
                 "traced": not args.no_trace},
        "rows": rows,
    }, indent=1) + "\n")
    print(f"wrote {path}; the two sets {'agree' if ok else 'DO NOT agree'}")
    return 0 if ok else 1


# ----------------------------------------------------------------------- main
def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", nargs="+", default=[w.name for w in WORKLOADS],
                    choices=[w.name for w in WORKLOADS], metavar="NAME")
    ap.add_argument("--seed", type=int, default=0,
                    help="EP LCG stream and microkernel page contents (0 = NPB's own)")
    ap.add_argument("--repeats", type=int, default=None,
                    help=f"untraced runs per workload (default {DEFAULT_REPEATS}; 1 with --quick)")
    ap.add_argument("--quick", action="store_true", help="shrunken sizes, 1 repeat, < 30 s")
    ap.add_argument("--no-trace", action="store_true",
                    help="skip the traced runs and the microkernels")
    ap.add_argument("--agree", action="store_true",
                    help="run two sets and write results/agreement.json")
    ap.add_argument("--out", default=str(RESULTS / "latest.json"))
    ap.add_argument("--seconds", type=float, default=None,
                    help="driver mode: measure one workload for about this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="driver mode: 0 = end-to-end metrics, 1 = per-layer metrics")
    args = ap.parse_args(argv)

    if not (measure.SRC / "repro").is_dir():
        print(f"hostbench: no simulator to measure: {measure.SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    # pins before anything imports numpy, in this process and every child
    os.environ.update(measure.ENV_PINS)
    sys.path.insert(0, str(measure.SRC))
    if args.repeats is None:
        args.repeats = 1 if args.quick else DEFAULT_REPEATS
    try:
        if args.seconds is not None or args.trace is not None:
            if args.seconds is None or args.trace is None:
                ap.error("driver mode needs both --seconds and --trace")
            return contract_run(args)
        return agree(args) if args.agree else report(args)
    finally:
        shutil.rmtree(measure.WORKDIR, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
