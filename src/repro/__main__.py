"""``python -m repro <verb>`` — the command line of the environment.

Every verb that runs workloads (``trace``, ``profile``, ``sanitize``,
``chaos``, ``metrics``) takes the same app list and run options,
derived from the tagged fields of :class:`repro.fleet.spec.RunSpec`, and
its runs are built as specs in one place (:func:`run_specs`, the one
check of app names, exec config, node count, fault plans and sampling
period).  A verb's body is imported only when it is dispatched to.

Usage::

    python -m repro trace cg --nodes 8 --mode sdsm -o cg.json
    python -m repro sanitize all --nodes 2
    python -m repro chaos all --plan sweep
    python -m repro <verb> --help
"""

from __future__ import annotations

import argparse
import importlib
import sys
from dataclasses import fields
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.fleet.spec import RunSpec


class Verb(NamedTuple):
    body: str  #: ``module:function``, imported on dispatch
    help: str
    options: Tuple[str, ...] = ()  #: keys of OPTIONS or tagged RunSpec fields
    #: "one" / "many": runs the app list under the RunSpec options, and
    #: the body is called as ``body(spec or specs, args)``
    runs: str = ""
    fixed: Dict[str, object] = {}  #: RunSpec fields the verb always sets
    defaults: Dict[str, object] = {}  #: defaults that differ for this verb


#: every option of a verb that is not a RunSpec field, declared once;
#: the key is the flag(s) as given to ``add_argument``
OPTIONS: Dict[str, dict] = {
    "apps": dict(
        nargs="*", default=["helmholtz"], metavar="app",
        help="registered workloads, or 'all' for every clean one (see --list); "
        "default: helmholtz",
    ),
    "--list": dict(action="store_true", help="list workloads and fault plans, then exit"),
    "-o --out": dict(default=None, help="output path"),
    "--jsonl": dict(
        default=None, help="also write one JSON object per event (input of trace-diff)"
    ),
    "--json": dict(default=None, help="write the full report / metrics dump as JSON"),
    "--chrome": dict(default=None, help="write a Chrome trace JSON (Perfetto-loadable)"),
    "--check": dict(
        action="store_true", help="assert the output's invariants; exit 2 on violation"
    ),
    "--ring": dict(
        type=int, default=1 << 18,
        help="trace ring capacity in events (default 262144); oldest evicted",
    ),
    "--cats": dict(
        default=None,
        help="comma-separated categories to record (default: all except 'sim')",
    ),
    "--top": dict(type=int, default=10, help="rows in the hot-page / hot-lock tables"),
    "--no-critical-path": dict(action="store_true", help="skip the critical-path sweep"),
    "--jobs": dict(
        type=int, default=None,
        help="fleet worker processes (default: PARADE_JOBS env or cpu count); "
        "results are bit-identical for any value",
    ),
    "--no-cache": dict(
        action="store_true", help="bypass the fleet run cache (PARADE_CACHE=0 does the same)"
    ),
    "--expect-races": dict(
        action="store_true",
        help="invert the exit code: fail if NO race is found (seeded racy-* workloads)",
    ),
    "-v --verbose": dict(action="store_true", help="print every finding"),
    "traces": dict(nargs=2, metavar="JSONL", help="two traces written with --jsonl"),
    "input": dict(help="C source file with OpenMP pragmas ('-' for stdin)"),
    "--backend": dict(
        choices=("parade", "sdsm", "both"), default="parade",
        help="translation to emit (default: parade)",
    ),
    "--lint": dict(action="store_true", help="print the §7 guideline report"),
    "--threshold": dict(
        type=int, default=None,
        help="hybrid message-passing threshold in bytes (default: the runtime's, 256)",
    ),
    "--record": dict(action="store_true", help="write the record to --out"),
    "--gate": dict(
        action="store_true",
        help="re-run the gated groups; exit 1 if an aggregate is more than 5%% off "
        "the record at --out",
    ),
    "--smoke": dict(
        action="store_true", help="tiny baskets and the 16-node scale point only"
    ),
}

VERBS: Dict[str, Verb] = {
    "trace": Verb(
        "repro.trace.export:trace_cli",
        "run an app with event tracing; write a Chrome trace (Perfetto-loadable)",
        ("-o --out", "--jsonl", "--ring", "--cats"),
        runs="one", defaults={"out": "trace.json"},
    ),
    "trace-diff": Verb(
        "repro.trace.diff:diff_cli",
        "align two JSONL traces: first divergence and per-event-type deltas "
        "(exit 1 if they differ)",
        ("traces",),
    ),
    "profile": Verb(
        "repro.profile.report:profile_cli",
        "run an app under the virtual-time profiler: per-thread phases, "
        "critical path, hot pages/locks",
        ("--json", "--chrome", "--top", "--no-critical-path", "--check"),
        runs="one",
    ),
    "sanitize": Verb(
        "repro.sanitizer.core:sanitize_cli",
        "run apps under the happens-before sanitizer (exit 2 on races or "
        "invariant violations)",
        ("--jobs", "--no-cache", "--expect-races", "-v --verbose"),
        runs="many", fixed={"sanitize": True},
    ),
    "chaos": Verb(
        "repro.chaos.plan:chaos_cli",
        "run apps fault-free and under each fault plan; assert bit-identical "
        "recovery (exit 2 if a guarantee is violated)",
        ("--jobs", "--no-cache"),
        runs="many", defaults={"fault_plan": "lossy-mix"},
    ),
    "metrics": Verb(
        "repro.metrics.scorecard:metrics_cli",
        "meter apps through the fleet and print one scorecard row each from "
        "their records (exit 2 if a run fails or metering perturbed it)",
        ("--json",),
        runs="many", fixed={"metrics": True},
    ),
    "translate": Verb(
        "repro.translator.guidelines:translate_cli",
        "translate C with OpenMP pragmas to runtime-API C (default: to stdout)",
        ("input", "--backend", "--lint", "--threshold", "-o --out"),
    ),
    "perf": Verb(
        "repro.bench.perf:perf_cli",
        "the virtual-time record BENCH_parade.json: run the grid, --record it, "
        "or --gate this tree against it",
        ("--record", "--gate", "--smoke", "-o --out", "--jobs", "--no-cache"),
    ),
}

#: the RunSpec fields the command line sets, by field name
TAGGED = {f.name: f for f in fields(RunSpec) if "flag" in f.metadata}


class UsageError(Exception):
    """Bad input: reported as one line on stderr, exit 1."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro", description="ParADE: one command line for every tool"
    )
    verbs = parser.add_subparsers(dest="verb", metavar="<verb>")
    for name, verb in VERBS.items():
        sub = verbs.add_parser(name, help=verb.help, description=verb.help)
        run = ("apps", "--list", *TAGGED) if verb.runs else ()
        for key in run + verb.options:
            f = TAGGED.get(key)
            if f is None:
                sub.add_argument(*key.split(), **OPTIONS[key])
                continue
            kw = {k: v for k, v in f.metadata.items() if k != "flag"}
            if isinstance(f.default, bool):
                kw["action"] = "store_true"
            else:
                kw["type"] = str if f.default is None else type(f.default)
                kw.setdefault("metavar", f.metadata["flag"].lstrip("-").upper())
            sub.add_argument(f.metadata["flag"], dest=f.name, default=f.default, **kw)
        sub.set_defaults(**verb.defaults)
    return parser


def _registry() -> Tuple[Dict[str, dict], List[str]]:
    """Every runnable workload, and the names 'all' stands for."""
    from repro.bench.figures import registered_programs

    return registered_programs(racy=True), sorted(registered_programs())


def run_specs(args, fixed: Dict[str, object]) -> List[RunSpec]:
    """The runs a run verb's command line asks for — every app under every
    fault plan, in that order — and the one place its input is checked."""
    from repro.chaos.plan import PLANS, SWEEP_PLAN_NAMES
    from repro.runtime import ALL_EXEC_CONFIGS

    registry, clean = _registry()
    apps = [a for name in args.apps for a in (clean if name == "all" else [name])]
    for app in apps:
        if app not in registry:
            raise UsageError(f"unknown app {app!r}; registered: {', '.join(sorted(registry))}")
    names = [ec.name for ec in ALL_EXEC_CONFIGS]
    if args.exec_name not in names:
        raise UsageError(
            f"unknown exec config {args.exec_name!r}; use one of: {', '.join(names)}"
        )
    if args.n_nodes < 1:
        raise UsageError(f"--nodes must be >= 1, got {args.n_nodes}")
    if not args.metrics_period > 0:
        raise UsageError(f"--period must be > 0, got {args.metrics_period}")
    plans: List[Optional[str]] = [
        p.lower() for item in (args.fault_plan or "").split(",") if item
        for p in (SWEEP_PLAN_NAMES if item == "sweep" else [item])
    ] or [None]
    for p in plans:
        if p is not None and p not in PLANS:
            raise UsageError(f"unknown fault plan {p!r}; choose from {sorted(PLANS)}")
    options = {name: getattr(args, name) for name in TAGGED}
    return [
        RunSpec.from_entry(app, registry[app], **{
            **options, **fixed,
            "fault_plan": plan, "chaos_seed": options["chaos_seed"] if plan else 0,
        })
        for app in apps for plan in plans
    ]


def _list() -> int:
    from repro.chaos.plan import PLANS, SWEEP_PLAN_NAMES

    registry, clean = _registry()
    print("workloads ('all' = every clean one):")
    for name, entry in sorted(registry.items()):
        kind = "clean" if name in clean else "racy"
        print(f"  {name:<12} {kind:<5} {entry['figure']:<6} {entry['note']}")
    print("fault plans (--plan):")
    for name, plan in sorted(PLANS.items()):
        print(f"  {name:<14} {plan.description}")
    print(f"  {'sweep':<14} the stock sweep matrix: {', '.join(SWEEP_PLAN_NAMES)}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verb is None:
        parser.print_help()
        return 2
    verb = VERBS[args.verb]
    module, function = verb.body.split(":")
    try:
        if not verb.runs:
            return getattr(importlib.import_module(module), function)(args)
        if args.list:
            return _list()
        specs = run_specs(args, verb.fixed)
        if verb.runs == "one" and len(specs) != 1:
            raise UsageError(f"{args.verb} runs one workload under one plan, got {len(specs)}")
        body = getattr(importlib.import_module(module), function)
        return body(specs[0] if verb.runs == "one" else specs, args)
    except (UsageError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
