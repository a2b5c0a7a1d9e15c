"""Chaos CLI: run registered apps under injected faults, verify recovery.

Usage::

    python -m repro.chaos                        # helmholtz under lossy-mix
    python -m repro.chaos cg --plan drop --nodes 8 --seed 3
    python -m repro.chaos --sweep                # the reliability gate
    python -m repro.chaos --sweep --apps helmholtz,ep --plans drop,dup
    python -m repro.chaos --list                 # show workloads
    python -m repro.chaos --list-plans           # show stock fault plans

``--sweep`` is the acceptance gate of docs/RELIABILITY.md: every selected
app runs fault-free once, then once per fault plan, asserting that

* the numerical result is **bit-identical** to the fault-free run's,
* every lost frame was recovered within the retransmit bound,
* the reliability layer left no frame unacknowledged, and
* (with ``--sanitize``) the happens-before sanitizer stays green —
  retransmission and resequencing preserve the FIFO channel order its
  edges rely on.

Exit codes: 0 — all runs recovered; 2 — a guarantee was violated.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="run registered ParADE apps under seeded fault injection "
        "and verify the reliability layer recovers them bit-identically",
    )
    parser.add_argument(
        "app", nargs="?", default="helmholtz",
        help="registered workload name (see --list); default: helmholtz",
    )
    parser.add_argument("--list", action="store_true", help="list workloads and exit")
    parser.add_argument(
        "--list-plans", action="store_true", help="list stock fault plans and exit",
    )
    parser.add_argument(
        "--plan", default="lossy-mix",
        help="fault plan for a single-app run (see --list-plans); "
        "default: lossy-mix",
    )
    parser.add_argument(
        "--sweep", action="store_true",
        help="run every selected app under the fault-plan matrix and assert "
        "bit-identical recovery (the reliability acceptance gate)",
    )
    parser.add_argument(
        "--apps", default="",
        help="comma list of workloads for --sweep (default: all registered)",
    )
    parser.add_argument(
        "--plans", default="",
        help="comma list of plans for --sweep (default: the stock sweep "
        "matrix: drop, dup, reorder, latency-spike)",
    )
    parser.add_argument("--nodes", type=int, default=4, help="cluster size (default 4)")
    parser.add_argument(
        "--seed", type=int, default=0,
        help="chaos seed; one (plan, seed) pair reproduces every fault "
        "bit-for-bit (default 0)",
    )
    parser.add_argument(
        "--mode", choices=("parade", "sdsm"), default="parade",
        help="hybrid ParADE translation or conventional SDSM (default parade)",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="also attach the happens-before sanitizer to every chaos run "
        "and require it to stay green",
    )
    parser.add_argument(
        "--accel", action="store_true",
        help="run with the protocol accelerator on (batched notices, "
        "adaptive migration + update push) — fault-free baseline and "
        "chaos runs alike, so recovery must stay bit-identical with "
        "every optimisation message kind in flight",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="fleet worker processes for --sweep (default: PARADE_JOBS env "
        "or cpu count); results are bit-identical for any value",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the fleet run cache for --sweep (PARADE_CACHE=0 does "
        "the same)",
    )
    parser.add_argument(
        "--hier", action="store_true",
        help="run with hierarchical synchronization on (tree barrier) — "
        "recovery must stay bit-identical with relayed aggregate frames "
        "in flight; composes with --accel",
    )
    return parser


def _value_digest(value) -> str:
    """Canonical digest of a program's numerical result (bit-exact)."""
    return json.dumps(value, sort_keys=True, default=repr)


def _run(entry: dict, nodes: int, mode: str, plan=None, seed: int = 0,
         sanitize: bool = False, accel: bool = False, hier: bool = False):
    from repro.runtime import ParadeRuntime

    rt = ParadeRuntime(
        n_nodes=nodes,
        mode=mode,
        pool_bytes=entry["pool_bytes"],
        protocol_accel=accel,
        hierarchical=hier,
        sanitize=True if sanitize else None,
        fault_plan=plan,
        chaos_seed=seed,
    )
    result = rt.run(entry["factory"]())
    return result, rt.sanitizer


def _check_run(result, sanitizer, base_digest: str, max_retries: int) -> List[str]:
    """Verify one chaos run's guarantees; returns failure descriptions."""
    failures = []
    if _value_digest(result.value) != base_digest:
        failures.append("numerical result differs from the fault-free run")
    cs = result.chaos_stats
    lost = cs.get("drops", 0) + cs.get("flap_drops", 0) + cs.get("corrupts", 0)
    if lost and not cs.get("retransmits", 0):
        failures.append(f"{lost} frames lost but zero retransmits recorded")
    if cs.get("max_attempts", 0) > max_retries + 1:
        failures.append(
            f"a frame took {cs['max_attempts']} attempts "
            f"(bound is {max_retries + 1})"
        )
    if sanitizer is not None and not sanitizer.ok:
        failures.append(
            f"sanitizer reported {len(sanitizer.findings)} finding(s) "
            f"under injected faults"
        )
    return failures


def _single(args, registry) -> int:
    from repro.chaos.plan import plan_by_name

    entry = registry[args.app]
    plan = plan_by_name(args.plan)
    base, _ = _run(entry, args.nodes, args.mode, accel=args.accel,
                   hier=args.hier)
    res, san = _run(entry, args.nodes, args.mode, plan=plan, seed=args.seed,
                    sanitize=args.sanitize, accel=args.accel, hier=args.hier)
    label = f"{args.app}/{args.mode}/{args.nodes}n"
    print(f"{label}: fault-free {base.elapsed * 1e3:.3f} ms -> "
          f"under {plan.name!r} {res.elapsed * 1e3:.3f} ms (virtual)")
    hot = {k: v for k, v in res.chaos_stats.items() if v}
    print(f"  chaos: {hot}")
    failures = _check_run(res, san, _value_digest(base.value),
                          plan.reliability.max_retries)
    if failures:
        for f in failures:
            print(f"  FAIL: {f}", file=sys.stderr)
        return 2
    print("  recovered bit-identically")
    return 0


def _check_record(record: dict, base_record: dict, max_retries: int) -> List[str]:
    """:func:`_check_run` over fleet records: same guarantees, checked on
    the serialized run records the sweep executor returns (the value
    comparison uses the records' SHA-256 value digests — equality of
    digests is equality of the canonical values)."""
    failures = []
    if record["value_digest"] != base_record["value_digest"]:
        failures.append("numerical result differs from the fault-free run")
    cs = record["chaos_stats"]
    lost = cs.get("drops", 0) + cs.get("flap_drops", 0) + cs.get("corrupts", 0)
    if lost and not cs.get("retransmits", 0):
        failures.append(f"{lost} frames lost but zero retransmits recorded")
    if cs.get("max_attempts", 0) > max_retries + 1:
        failures.append(
            f"a frame took {cs['max_attempts']} attempts "
            f"(bound is {max_retries + 1})"
        )
    san = record.get("sanitizer")
    if san is not None and not san["ok"]:
        failures.append(
            f"sanitizer reported {san['n_findings']} finding(s) "
            f"under injected faults"
        )
    return failures


def _sweep(args, registry) -> int:
    """The reliability gate, fleet-dispatched: the (app x plan) matrix —
    plus each app's fault-free baseline — is a basket of independent
    deterministic runs, so it fans out across ``--jobs`` worker
    processes and memoises in the run cache; results and verdicts are
    bit-identical for any job count."""
    from repro.chaos.plan import SWEEP_PLAN_NAMES, plan_by_name
    from repro.fleet import RunSpec, default_cache, run_many

    apps = [a for a in args.apps.split(",") if a] or sorted(registry)
    plan_names = [p for p in args.plans.split(",") if p] or list(SWEEP_PLAN_NAMES)
    for a in apps:
        if a not in registry:
            print(f"unknown app {a!r}; registered: {', '.join(sorted(registry))}",
                  file=sys.stderr)
            return 1
    plans = [plan_by_name(p) for p in plan_names]

    def spec(app: str, plan_name=None) -> RunSpec:
        return RunSpec.from_entry(
            app,
            registry[app],
            n_nodes=args.nodes,
            mode=args.mode,
            accel=args.accel,
            hier=args.hier,
            fault_plan=plan_name,
            chaos_seed=args.seed if plan_name else 0,
            sanitize=args.sanitize and plan_name is not None,
        )

    grid = [(app, None) for app in apps] + [
        (app, plan.name) for app in apps for plan in plans
    ]
    fleet = run_many(
        [spec(app, plan_name) for app, plan_name in grid],
        jobs=args.jobs,
        cache=default_cache(args.no_cache),
    )
    print(fleet.summary())
    records = dict(zip(grid, fleet.records))
    for rec in fleet.failures():
        print(f"FAIL: {rec['workload']} crashed: {rec.get('error')}",
              file=sys.stderr)
    if fleet.failures():
        return 2

    width = max(len(a) for a in apps)
    ok = True
    for app in apps:
        base = records[(app, None)]
        print(f"{app:<{width}}  fault-free: {base['virtual_s'] * 1e3:9.3f} ms  "
              f"({base['msgs_sent']} msgs)")
        for plan in plans:
            rec = records[(app, plan.name)]
            failures = _check_record(rec, base, plan.reliability.max_retries)
            cs = rec["chaos_stats"]
            lost = (cs.get("drops", 0) + cs.get("flap_drops", 0)
                    + cs.get("corrupts", 0))
            status = "ok" if not failures else "FAIL"
            print(f"{'':<{width}}  {plan.name:<14} {rec['virtual_s'] * 1e3:9.3f} ms  "
                  f"lost={lost:<3} retx={cs.get('retransmits', 0):<3} "
                  f"dup={cs.get('dup_suppressed', 0):<3} "
                  f"reseq={cs.get('reorder_buffered', 0):<3} {status}")
            for f in failures:
                ok = False
                print(f"{'':<{width}}    FAIL: {f}", file=sys.stderr)
    if ok:
        print("sweep: every run recovered bit-identically within the "
              "retransmit bound")
        return 0
    print("sweep: reliability guarantees violated", file=sys.stderr)
    return 2


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    from repro.chaos.plan import PLANS
    from repro.bench.figures import registered_programs

    registry = registered_programs()
    if args.list:
        for name, entry in sorted(registry.items()):
            print(f"{name:<12} {entry['note']}")
        return 0
    if args.list_plans:
        for name, plan in sorted(PLANS.items()):
            print(f"{name:<14} {plan.description}")
        return 0
    if args.nodes < 1:
        print(f"--nodes must be >= 1, got {args.nodes}", file=sys.stderr)
        return 1

    if args.sweep:
        return _sweep(args, registry)
    if args.app not in registry:
        print(f"unknown app {args.app!r}; registered: {', '.join(sorted(registry))}",
              file=sys.stderr)
        return 1
    try:
        return _single(args, registry)
    except KeyError as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
