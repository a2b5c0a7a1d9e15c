"""Metrics CLI: scorecards and exposition formats.

Usage::

    python -m repro.metrics run                      # helmholtz scorecard
    python -m repro.metrics run helmholtz cg --nodes 2
    python -m repro.metrics run cg --json cg.metrics.json
    python -m repro.metrics export cg.metrics.json               # Prometheus
    python -m repro.metrics export cg.metrics.json --csv cg.csv --chrome cg.trace.json
    python -m repro.metrics smoke                    # CI gate (see below)

``run`` meters registered workloads and prints one scorecard row each;
``export`` re-emits a JSON dump as Prometheus text / CSV / Chrome
counters; ``smoke`` is the CI gate — metered-vs-unmetered bit-identity
and an export round-trip on a tiny workload, exit 2 on any failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.metrics import export as mexport
from repro.metrics.scorecard import build_scorecard, meter_workload, render_scorecards


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.metrics",
        description="live metrics: per-workload scorecards and Prometheus/JSON/"
        "CSV/Chrome exposition",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="meter registered workloads, print scorecards")
    p_run.add_argument("apps", nargs="*", default=[], help="workload names (default: helmholtz)")
    p_run.add_argument("--list", action="store_true", help="list registered workloads and exit")
    p_run.add_argument("--nodes", type=int, default=4, help="cluster size (default 4)")
    p_run.add_argument(
        "--mode", choices=("parade", "sdsm"), default="parade",
        help="hybrid ParADE translation or conventional SDSM (default parade)",
    )
    p_run.add_argument(
        "--period", type=float, default=1e-4,
        help="sampling grid spacing in virtual seconds (default 1e-4)",
    )
    p_run.add_argument(
        "--json", default=None,
        help="write the metrics dump (time-series + instruments) as JSON; "
        "single workload only",
    )

    p_exp = sub.add_parser("export", help="re-emit a JSON metrics dump")
    p_exp.add_argument("dump", help="metrics dump written by `run --json`")
    p_exp.add_argument("--prom", default=None, help="write Prometheus text here (default: stdout)")
    p_exp.add_argument("--csv", default=None, help="write series,time,value CSV")
    p_exp.add_argument("--chrome", default=None, help='write ph:"C" counter Chrome trace')
    p_exp.add_argument(
        "--check", action="store_true",
        help="verify the Prometheus output parses and the dump round-trips; exit 2 on failure",
    )

    p_smoke = sub.add_parser("smoke", help="CI gate: metered bit-identity + export round-trip")
    p_smoke.add_argument("--nodes", type=int, default=2, help="cluster size (default 2)")
    p_smoke.add_argument(
        "--jobs", type=int, default=None,
        help="fleet worker processes for the bit-identity runs (default: PARADE_JOBS "
        "env or cpu count); the verdict is bit-identical for any value",
    )
    return parser


def _cmd_run(args) -> int:
    from repro.bench.figures import registered_programs

    registry = registered_programs()
    if args.list:
        for name, entry in sorted(registry.items()):
            print(f"{name:<12} {entry['figure']:<6} {entry['note']}")
        return 0
    apps = args.apps or ["helmholtz"]
    unknown = [a for a in apps if a not in registry]
    if unknown:
        print(f"unknown app(s) {', '.join(unknown)}; registered: "
              f"{', '.join(sorted(registry))}", file=sys.stderr)
        return 1
    if args.json and len(apps) != 1:
        print("--json needs exactly one workload", file=sys.stderr)
        return 1

    import time

    cards = []
    for app in apps:
        entry = registry[app]
        t0 = time.perf_counter()
        result, mx = meter_workload(
            entry["factory"], entry["pool_bytes"],
            n_nodes=args.nodes, period=args.period, mode=args.mode,
        )
        wall = time.perf_counter() - t0
        cards.append(build_scorecard(app, result, mx, wall_s=wall))
        if args.json:
            dump = mx.dump(meta={"app": app, "nodes": args.nodes,
                                 "mode": args.mode, "wall_s": wall})
            mexport.write_dump(dump, args.json)
            print(f"json : {len(dump['series'])} series -> {args.json}")
    print(render_scorecards(cards), end="")
    return 0


def _cmd_export(args) -> int:
    try:
        dump = mexport.load_dump(args.dump)
    except (OSError, ValueError) as exc:
        print(f"cannot read metrics dump {args.dump!r}: {exc}", file=sys.stderr)
        return 1
    prom = mexport.to_prometheus(dump)
    if args.prom:
        with open(args.prom, "w") as fh:
            fh.write(prom)
        print(f"prom  : {len(prom.splitlines())} lines -> {args.prom}")
    if args.csv:
        csv = mexport.to_csv(dump)
        with open(args.csv, "w") as fh:
            fh.write(csv)
        print(f"csv   : {len(csv.splitlines()) - 1} rows -> {args.csv}")
    if args.chrome:
        n = mexport.write_chrome(dump, args.chrome)
        print(f"chrome: {n} records -> {args.chrome}")
    if args.check:
        problems = []
        try:
            parsed = mexport.parse_prometheus(prom)
            if not parsed:
                problems.append("Prometheus output parsed to zero samples")
        except ValueError as exc:
            problems.append(f"Prometheus output does not parse: {exc}")
        if json.loads(json.dumps(dump)) != dump:
            problems.append("dump does not round-trip through JSON")
        if problems:
            for p in problems:
                print(f"CHECK FAILED: {p}", file=sys.stderr)
            return 2
        print(f"check : ok ({len(parsed)} exposition samples)")
    if not (args.prom or args.csv or args.chrome or args.check):
        print(prom, end="")
    return 0


def _cmd_smoke(args) -> int:
    """The CI gate, in two acts (exit 2 on the first failure):

    1. bit-identity — the tiny workload metered and unmetered must agree
       on virtual time and every deterministic run statistic (the two
       runs are independent, so they fan out across ``--jobs`` fleet
       worker processes);
    2. export round-trip — the metered dump survives JSON write/load,
       its Prometheus rendering parses, CSV and Chrome are non-empty.
    """
    import os
    import tempfile

    from repro.fleet import RunSpec, run_many

    def fail(msg: str) -> int:
        print(f"SMOKE FAILED: {msg}", file=sys.stderr)
        return 2

    common = dict(
        factory=("repro.apps.helmholtz", "make_program"),
        factory_kwargs={"n": 24, "m": 24, "max_iters": 2},
        n_nodes=args.nodes,
        pool_bytes=1 << 21,
    )
    specs = [
        RunSpec(workload="helmholtz-plain", **common),
        # observe_timed: the metered run IS the measurement — its stats
        # must come from the run with the sampler attached, or the
        # comparison below would check an unmetered run against itself
        RunSpec(workload="helmholtz-metered", metrics=True, observe_timed=True,
                **common),
    ]
    fleet = run_many(specs, jobs=args.jobs)
    for rec in fleet.failures():
        return fail(f"{rec['workload']} crashed: {rec.get('error')}")
    plain, metered = fleet.records
    if plain["virtual_s"] != metered["virtual_s"]:
        return fail(f"virtual time moved under metering: "
                    f"{plain['virtual_s']!r} != {metered['virtual_s']!r}")
    for group in ("cluster_stats", "dsm_stats"):
        a, b = plain[group], metered[group]
        diff = {k for k in set(a) | set(b) if a.get(k) != b.get(k)}
        if diff:
            return fail(f"{group} moved under metering: {sorted(diff)}")
    n_samples = metered["metrics"]["n_samples"]
    if n_samples == 0:
        return fail("sampler took no samples on the smoke workload")
    print(f"smoke 1/2: bit-identity ok (vt {metered['virtual_s'] * 1e3:.3f} ms, "
          f"{n_samples} samples)")

    dump = dict(metered["metrics"]["dump"])
    dump["meta"] = {"app": "helmholtz-smoke", "nodes": args.nodes}
    prom = mexport.to_prometheus(dump)
    parsed = mexport.parse_prometheus(prom)
    if not parsed:
        return fail("Prometheus exposition parsed to zero samples")
    with tempfile.TemporaryDirectory(prefix="metrics-smoke-") as tmp:
        path = os.path.join(tmp, "dump.json")
        mexport.write_dump(dump, path)
        if mexport.load_dump(path) != json.loads(json.dumps(dump)):
            return fail("dump does not round-trip through write_dump/load_dump")
        chrome = os.path.join(tmp, "trace.json")
        n_chrome = mexport.write_chrome(dump, chrome)
    n_csv = len(mexport.to_csv(dump).splitlines()) - 1
    if n_chrome == 0 or n_csv == 0:
        return fail(f"empty export (chrome={n_chrome}, csv={n_csv})")
    print(f"smoke 2/2: export round-trip ok ({len(parsed)} prom samples, "
          f"{n_csv} csv rows, {n_chrome} chrome records)")
    print("metrics smoke: all gates passed")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return {
        "run": _cmd_run,
        "export": _cmd_export,
        "smoke": _cmd_smoke,
    }[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
