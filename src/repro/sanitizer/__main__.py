"""Sanitizer CLI: run a registered app under the happens-before sanitizer.

Usage::

    python -m repro.sanitizer                       # helmholtz, 4 nodes
    python -m repro.sanitizer cg --nodes 8 --mode sdsm
    python -m repro.sanitizer --all                 # every clean app
    python -m repro.sanitizer racy-ww               # seeded-racy negative test
    python -m repro.sanitizer --list                # show workloads

Exit codes: 0 — clean; 2 — data races or invariant violations reported
(for the seeded ``racy-*`` workloads that is the expected outcome; pass
``--expect-races`` to invert the exit code for them).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sanitizer",
        description="run a registered ParADE app under the vector-clock "
        "happens-before sanitizer and report data races / protocol "
        "invariant violations",
    )
    parser.add_argument(
        "app", nargs="?", default="helmholtz",
        help="registered workload name (see --list); default: helmholtz",
    )
    parser.add_argument("--list", action="store_true", help="list workloads and exit")
    parser.add_argument(
        "--all", action="store_true",
        help="run every registered clean app instead of a single one",
    )
    parser.add_argument("--nodes", type=int, default=4, help="cluster size (default 4)")
    parser.add_argument(
        "--mode", choices=("parade", "sdsm"), default="parade",
        help="hybrid ParADE translation or conventional SDSM (default parade)",
    )
    parser.add_argument(
        "--exec", dest="exec_name", default="2Thread-2CPU",
        help="execution configuration: 1Thread-1CPU, 1Thread-2CPU or "
        "2Thread-2CPU (default)",
    )
    parser.add_argument(
        "--accel", action="store_true",
        help="run with the protocol accelerator on — the sanitizer must "
        "stay green with batched notices, page handoffs and update "
        "pushes in flight",
    )
    parser.add_argument(
        "--hier", action="store_true",
        help="run with hierarchical synchronization on — the sanitizer "
        "must stay green with tree-barrier aggregate frames in flight "
        "(composes with --accel)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="fleet worker processes for --all (default: PARADE_JOBS env "
        "or cpu count); findings are bit-identical for any value",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the fleet run cache for --all (PARADE_CACHE=0 does "
        "the same)",
    )
    parser.add_argument(
        "--expect-races", action="store_true",
        help="invert the exit code: fail if NO race is found (for the "
        "seeded racy-* workloads)",
    )
    parser.add_argument(
        "--verbose", "-v", action="store_true",
        help="print the full finding list even when long",
    )
    return parser


def _run_one(name: str, entry: dict, nodes: int, mode: str, exec_config,
             accel: bool = False, hier: bool = False) -> "object":
    from repro.runtime import ParadeRuntime

    rt = ParadeRuntime(
        n_nodes=nodes,
        exec_config=exec_config,
        mode=mode,
        pool_bytes=entry["pool_bytes"],
        protocol_accel=accel,
        hierarchical=hier,
        sanitize=True,
    )
    result = rt.run(entry["factory"]())
    san = rt.sanitizer
    label = f"{name}/{mode}/{nodes}n/{exec_config.name}"
    print(f"{label}: elapsed {result.elapsed * 1e3:.3f} ms (virtual)")
    print(san.summary())
    return san


def _run_all(args, clean: dict, exec_config) -> int:
    """The ``--all`` sweep, fleet-dispatched: every clean app is an
    independent deterministic run, so the sweep fans out across
    ``--jobs`` worker processes and memoises in the run cache.  The
    sanitizer verdict (summary + findings) rides inside each run record,
    so the output — and the exit code — is bit-identical for any job
    count.  Records cap the reported finding list at 50; re-run a single
    app for the full list."""
    from repro.fleet import RunSpec, default_cache, run_many

    targets = sorted(clean)
    specs = [
        RunSpec.from_entry(
            name,
            clean[name],
            n_nodes=args.nodes,
            mode=args.mode,
            exec_name=exec_config.name,
            accel=args.accel,
            hier=args.hier,
            sanitize=True,
        )
        for name in targets
    ]
    fleet = run_many(specs, jobs=args.jobs, cache=default_cache(args.no_cache))
    print(fleet.summary())
    for rec in fleet.failures():
        print(f"FAIL: {rec['workload']} crashed: {rec.get('error')}",
              file=sys.stderr)
    if fleet.failures():
        return 2

    any_findings = False
    for name, rec in zip(targets, fleet.records):
        san = rec["sanitizer"]
        label = f"{name}/{args.mode}/{args.nodes}n/{exec_config.name}"
        print(f"{label}: elapsed {rec['virtual_s'] * 1e3:.3f} ms (virtual)")
        print(san["summary"])
        if not san["ok"]:
            any_findings = True
            findings = san["findings"] if args.verbose else san["findings"][:10]
            for line in findings:
                print(f"  {line}")
            if san["n_findings"] > len(findings):
                print(f"  ... and {san['n_findings'] - len(findings)} more (use -v)")

    if args.expect_races:
        if any_findings:
            print("expected races: found — OK")
            return 0
        print("expected races but the run came back clean", file=sys.stderr)
        return 2
    return 2 if any_findings else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    from repro.apps.racy import racy_programs
    from repro.bench.figures import registered_programs
    from repro.runtime import ALL_EXEC_CONFIGS

    clean = registered_programs()
    racy = racy_programs()
    registry = {**clean, **racy}
    if args.list:
        for name, entry in sorted(registry.items()):
            kind = "racy " if name in racy else "clean"
            print(f"{name:<12} {kind} {entry['note']}")
        return 0

    exec_config = next((ec for ec in ALL_EXEC_CONFIGS if ec.name == args.exec_name), None)
    if exec_config is None:
        names = ", ".join(ec.name for ec in ALL_EXEC_CONFIGS)
        print(f"unknown exec config {args.exec_name!r}; use one of: {names}", file=sys.stderr)
        return 1
    if args.nodes < 1:
        print(f"--nodes must be >= 1, got {args.nodes}", file=sys.stderr)
        return 1

    if args.all:
        return _run_all(args, clean, exec_config)
    if args.app not in registry:
        print(
            f"unknown app {args.app!r}; registered: {', '.join(sorted(registry))}",
            file=sys.stderr,
        )
        return 1

    any_findings = False
    for name in [args.app]:
        san = _run_one(name, registry[name], args.nodes, args.mode, exec_config,
                       accel=args.accel, hier=args.hier)
        if not san.ok:
            any_findings = True
            findings = san.findings if args.verbose else san.findings[:10]
            for f in findings:
                print(f"  [{f.kind} @t={f.time:.6g}] {f.message}")
            if len(san.findings) > len(findings):
                print(f"  ... and {len(san.findings) - len(findings)} more (use -v)")

    if args.expect_races:
        if any_findings:
            print("expected races: found — OK")
            return 0
        print("expected races but the run came back clean", file=sys.stderr)
        return 2
    return 2 if any_findings else 0


if __name__ == "__main__":
    sys.exit(main())
