"""The virtual-time record and its gate.

Two clocks matter in this repo and this module owns exactly one of them.
*Host* seconds — how fast the simulator runs — are measured by
``benchmarks/hostbench/`` and nowhere else.  *Virtual* seconds, message
counts, event counts and phase fractions — what the simulated protocol
does — are deterministic run invariants, and this module writes them down
as ``BENCH_parade.json``: one grid of :class:`~repro.fleet.spec.RunSpec`
(the paper basket and the accelerated basket at 4 nodes; the scale basket
flat vs hierarchical at 4/8/16/32/64 nodes) -> :func:`repro.fleet.run_many`
-> one record shape (:func:`report_record`).  Nothing in the file depends
on the host or the day, so re-recording an unchanged tree is
byte-identical and ``git diff BENCH_parade.json`` *is* the protocol delta
of a change.

Usage::

    python -m repro perf                # run the grid, print the table
    python -m repro perf --record       # ... and write BENCH_parade.json
    python -m repro perf --gate         # make bench-gate: re-run the accel
                                        # basket and the 16-node hier scale
                                        # point, exit 1 if an aggregate is
                                        # > 5% off the record, and print
                                        # what moved
    python -m repro perf --record --smoke --out /tmp/s.json
                                        # tiny baskets, 16-node scale point
                                        # only (make bench-smoke)

Runs fan out across ``--jobs`` fleet workers and memoise in the run cache
under ``.parade-cache/`` (``--no-cache`` / ``PARADE_CACHE=0`` bypasses);
both are invisible in the output.  See docs/PERFORMANCE.md "How
performance is measured".
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

SCHEMA = 3
DEFAULT_OUT = "BENCH_parade.json"

#: cluster size of the paper and accel baskets
NODES = 4

#: node counts of the scale sweep; the paper's testbed stops at 8 — the
#: rest is the ROADMAP's production-scale extrapolation
SCALE_NODES = (4, 8, 16, 32, 64)

#: the scale point the gate re-runs (and the only one of a smoke record)
SCALE_GATE_NODES = 16

#: a path into the report, e.g. ("accel", "cg") or ("scale", "16", "hier", "cg")
Path = Tuple[str, ...]


#: workload sizes: basket -> {app: (factory kwargs, pool bytes, note)}.
#: The 4-node baskets are sized so the protocol (not the application
#: kernels) dominates and a run takes well under a second; the scale
#: baskets are one barrier-dominated stencil and one lock/reduction-heavy
#: solver, sized so the 64-node point still runs in seconds (ep/md are
#: omitted there — their sync behaviour adds nothing the two cover).
_SIZES: Dict[str, Dict[str, Tuple[dict, int, str]]] = {
    "basket": {
        "helmholtz": ({"n": 160, "m": 160, "max_iters": 10}, 1 << 23,
                      "Helmholtz/Jacobi 160x160, 10 iterations"),
        "cg": ({"klass": "S", "niter": 1}, 1 << 23, "NAS CG class S, 1 outer iteration"),
        "ep": ({"klass": "T"}, 1 << 20, "NAS EP class T"),
        "md": ({"n_particles": 128, "steps": 6}, 1 << 22, "MD 128 particles, 6 steps"),
    },
    "basket-smoke": {
        "helmholtz": ({"n": 24, "m": 24, "max_iters": 2}, 1 << 20,
                      "smoke: Helmholtz 24x24, 2 iterations"),
        "cg": ({"klass": "T", "niter": 1}, 1 << 21, "smoke: NAS CG class T, 1 iteration"),
        "ep": ({"klass": "T"}, 1 << 20, "smoke: NAS EP class T"),
        "md": ({"n_particles": 24, "steps": 1}, 1 << 20, "smoke: MD 24 particles, 1 step"),
    },
    "scale": {
        "helmholtz": ({"n": 96, "m": 96, "max_iters": 6}, 1 << 23,
                      "scale: Helmholtz 96x96, 6 iterations"),
        "cg": ({"klass": "S", "niter": 1}, 1 << 23, "scale: NAS CG class S, 1 iteration"),
    },
    "scale-smoke": {
        "helmholtz": ({"n": 48, "m": 48, "max_iters": 3}, 1 << 21,
                      "scale smoke: Helmholtz 48x48, 3 iterations"),
        "cg": ({"klass": "T", "niter": 1}, 1 << 21,
               "scale smoke: NAS CG class T, 1 iteration"),
    },
}


def _entries(which: str, smoke: bool) -> Dict[str, dict]:
    from repro.fleet.spec import make_entry

    return {
        app: make_entry((f"repro.apps.{app}", "make_program"), kwargs,
                        pool_bytes=pool_bytes, note=note)
        for app, (kwargs, pool_bytes, note)
        in _SIZES[which + ("-smoke" if smoke else "")].items()
    }


def basket(smoke: bool = False) -> Dict[str, dict]:
    """The fixed 4-node basket (tiny variant for CI smoke runs), as
    fleet-dispatchable workload entries."""
    return _entries("basket", smoke)


def scale_basket(smoke: bool = False) -> Dict[str, dict]:
    """Workloads of the scale sweep."""
    return _entries("scale", smoke)


def grid(smoke: bool = False) -> List[Tuple[Path, object]]:
    """Every run of the record as ``(report path, RunSpec)``.  The
    profiler rides on the measured run: nothing recorded is a wall clock,
    so there is no unobserved run to protect."""
    from repro.fleet.spec import RunSpec

    out: List[Tuple[Path, object]] = []

    def add(path: Path, entry: dict, **kw) -> None:
        spec = RunSpec.from_entry(
            path[-1], entry, profile=True, observe_timed=True, **kw
        )
        out.append((path, spec))

    for section, accel in (("paper", False), ("accel", True)):
        for name, entry in basket(smoke).items():
            add((section, name), entry, n_nodes=NODES, accel=accel)
    for n in (SCALE_GATE_NODES,) if smoke else SCALE_NODES:
        for name, entry in scale_basket(smoke).items():
            add(("scale", str(n), "flat", name), entry, n_nodes=n)
            add(("scale", str(n), "hier", name), entry, n_nodes=n, hier=True)
    return out


#: the groups the gate re-runs: report path of the group -> gated metrics.
#: A change that slows only the barrier path (relay costs, merge work,
#: departure fan-out) moves barrier_s long before it moves virtual_s.
GATED: Dict[Path, Tuple[str, ...]] = {
    ("accel",): ("virtual_s",),
    ("scale", str(SCALE_GATE_NODES), "hier"): ("virtual_s", "barrier_s"),
}


def report_record(rec: Dict[str, object]) -> Dict[str, object]:
    """Map one fleet record onto the one record shape of the report:
    virtual time, the deterministic counts, and where thread time went.
    No wall clock and no value digest (a float reduction may round
    differently on another host's SIMD width; the record must not)."""
    thread_s = float(rec["thread_s"])
    dsm, master = rec["dsm_stats"], rec["master_stats"]
    return {
        "virtual_s": rec["virtual_s"],
        "events": rec["events"],
        "msgs_sent": rec["msgs_sent"],
        "bytes_sent": rec["bytes_sent"],
        "faults": rec["faults"],
        "epochs": rec["epochs"],
        "master_arrivals_rx": master["barrier_arrivals_rx"],
        "barrier_relays": dsm["barrier_relays"],
        "notices_merged": dsm["notices_merged"],
        "lock_grants": dsm["lock_grants"],
        "lock_remote_grants": dsm["lock_remote_grants"],
        "barrier_s": rec["barrier_s"],
        "lock_s": rec["lock_s"],
        "barrier_frac": rec["barrier_s"] / thread_s if thread_s else 0.0,
        "lock_frac": rec["lock_s"] / thread_s if thread_s else 0.0,
        # key order is part of the bytes; a cache replay returns sorted keys
        "phases": dict(sorted(rec["phases"].items())),
    }


def _dig(report: dict, path: Path):
    """``report[path[0]][path[1]]...`` or None where the path ends early."""
    for key in path:
        report = report.get(key) if isinstance(report, dict) else None
    return report


def run_grid(
    runs: List[Tuple[Path, object]], jobs: Optional[int], no_cache: bool
) -> Optional[dict]:
    """Execute *runs* through the fleet and nest their report records by
    path; None (after saying why) if any run failed."""
    from repro.fleet import default_cache, run_many

    fleet = run_many(
        [spec for _, spec in runs], jobs=jobs, cache=default_cache(no_cache)
    )
    print(f"  {fleet.summary()}")
    for rec in fleet.failures():
        print(f"perf: {rec['workload']} failed: {rec.get('error')}\n"
              f"{rec.get('traceback', '')}")
    if not fleet.ok or fleet.n_executed + fleet.n_hits == 0:
        return None
    out: dict = {}
    digests: Dict[Path, str] = {}
    for (path, _), rec in zip(runs, fleet.records):
        node = out
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = report_record(rec)
        digests[path] = str(rec["value_digest"])
    for path, digest in digests.items():
        if path[0] == "scale" and path[2] == "flat":
            if digests[path[:2] + ("hier",) + path[3:]] != digest:
                raise AssertionError(
                    f"{path[3]}@{path[1]} nodes: hierarchical sync changed the "
                    "computed value — it must only move messages and timing"
                )
    return out


def _print_table(runs: List[Tuple[Path, object]], report: dict) -> None:
    for path, _ in runs:
        r = _dig(report, path)
        print(
            f"  {'/'.join(path):<24} vt={r['virtual_s'] * 1e3:9.3f} ms "
            f"events={r['events']:>8} msgs={r['msgs_sent']:>7} "
            f"barrier={r['barrier_frac']:4.0%} lock={r['lock_frac']:4.0%} "
            f"arr/epoch={r['master_arrivals_rx'] / max(1, r['epochs']):5.1f}"
        )
    paper, accel = report["paper"], report["accel"]
    base = sum(r["virtual_s"] for r in paper.values())
    acc = sum(r["virtual_s"] for r in accel.values())
    print(f"  accelerator: {1 - acc / base:.1%} less aggregate virtual time, "
          + ", ".join(
              f"{name} {accel[name]['msgs_sent'] - paper[name]['msgs_sent']:+d} msgs"
              for name in paper
          ))


def run_record(smoke: bool, out: Optional[str], jobs: Optional[int],
               no_cache: bool) -> int:
    """Run the whole grid, print it, and (with *out*) write the record."""
    from repro.dsm.config import PARADE_HIER

    runs = grid(smoke)
    print(f"perf grid ({'smoke' if smoke else 'full'}, {len(runs)} runs)"
          + (f" -> {out}" if out else ""))
    sections = run_grid(runs, jobs, no_cache)
    if sections is None:
        return 1
    _print_table(runs, sections)
    if out:
        report = {
            "schema": SCHEMA,
            "smoke": smoke,
            "nodes": NODES,
            "fanin": PARADE_HIER.barrier_fanin,
            "workloads": {
                "basket": {k: v["note"] for k, v in basket(smoke).items()},
                "scale": {k: v["note"] for k, v in scale_basket(smoke).items()},
            },
            **sections,
        }
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 0


#: a gated aggregate may sit at most this far from the record
TOLERANCE = 0.05


@dataclass
class Verdict:
    """Outcome of one comparison: what to print, and what failed."""

    lines: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _flat(rec: Dict) -> Dict[str, float]:
    """One workload's record as ``{key: number}``, phase fractions
    included as ``phases.<group>``."""
    out = {k: v for k, v in rec.items() if k != "phases"}
    out.update({f"phases.{g}": v for g, v in rec.get("phases", {}).items()})
    return out


def _deltas(ref: Dict, cur: Dict) -> List[str]:
    """``key: a -> b (+d)`` for every count, time and phase fraction of
    one workload's record that differs."""
    a, b = _flat(ref), _flat(cur)
    return [
        f"{key}: {a.get(key, 0):g} -> {b.get(key, 0):g} "
        f"({b.get(key, 0) - a.get(key, 0):+g})"
        for key in sorted(set(a) | set(b))
        if a.get(key, 0) != b.get(key, 0)
    ]


def compare_records(
    ref: Dict[str, Dict],
    cur: Dict[str, Dict],
    label: str,
    gated: Sequence[str] = ("virtual_s",),
) -> Verdict:
    """Compare the computed ``{workload: record}`` group *cur* against the
    recorded group *ref*: fail when a *gated* metric's aggregate leaves
    the :data:`TOLERANCE` band in either direction (every number is a
    deterministic run invariant, so a record 5 % pessimistic is as untrue
    as one 5 % optimistic), and for every workload whose virtual time
    moved at all, list every count and phase fraction that changed."""
    verdict = Verdict()
    if set(ref) != set(cur):
        verdict.problems.append(
            f"{label}: recorded workloads {sorted(ref)} != measured {sorted(cur)} "
            "— re-record"
        )
        return verdict
    for metric in gated:
        b = sum(float(r[metric]) for r in ref.values())
        c = sum(float(r[metric]) for r in cur.values())
        drift = c / b - 1 if b > 0 else float("inf")
        verdict.lines.append(
            f"{label:<16} {metric:<10} record={b * 1e3:10.3f} ms  "
            f"now={c * 1e3:10.3f} ms  ({drift * 100:+6.2f}%)"
        )
        if abs(drift) > TOLERANCE:
            verdict.problems.append(
                f"{label}: aggregate {metric} is {drift * 100:+.2f}% off the "
                f"record (> {TOLERANCE:.0%}): "
                + ("regressed" if drift > 0 else "record is stale — re-record")
            )
    for name in ref:
        b, c = ref[name]["virtual_s"], cur[name]["virtual_s"]
        if b != c:
            verdict.lines.append(
                f"  {name}: virtual_s moved {(c / b - 1) * 100:+.3f}% — "
                + "; ".join(_deltas(ref[name], cur[name]))
            )
    return verdict


def run_gate(path: str, smoke: bool, jobs: Optional[int], no_cache: bool) -> int:
    """The bench gate (``make bench-gate``): re-run the :data:`GATED`
    groups and compare them with the record at *path*.

    Everything compared is deterministic, so host noise cannot flake the
    gate and an unchanged tree replays it from the run cache with zero
    re-simulations.  Exits 1 when an aggregate left the tolerance band —
    and when there was nothing to compare: a missing record, a record
    without an ``accel`` or ``scale`` section, a run that failed.
    """
    report: dict = {}
    if os.path.exists(path):
        with open(path) as fh:
            report = json.load(fh)
    missing = ["/".join(g) for g in GATED if not _dig(report, g)]
    if missing:
        print(f"bench-gate: FAIL — {path} has no {', '.join(missing)} record to "
              "compare with; run `python -m repro perf --record`")
        return 1
    if bool(report.get("smoke")) != smoke:
        print(f"bench-gate: FAIL — {path} was recorded with smoke="
              f"{bool(report.get('smoke'))}, the gate was asked for smoke={smoke}")
        return 1
    runs = [(p, spec) for p, spec in grid(smoke) if p[:-1] in GATED]
    current = run_grid(runs, jobs, no_cache)
    if current is None:
        return 1
    problems: List[str] = []
    for group, gated in GATED.items():
        verdict = compare_records(
            _dig(report, group), _dig(current, group), "/".join(group), gated
        )
        for line in verdict.lines:
            print(f"  {line}")
        problems += verdict.problems
    for problem in problems:
        print(f"bench-gate: FAIL — {problem}")
    if not problems:
        print("bench-gate: OK")
    return 1 if problems else 0


def perf_cli(args) -> int:
    """``python -m repro perf``: run the grid and print it; ``--record``
    also writes it to ``--out`` (default :data:`DEFAULT_OUT`; a smoke
    record needs an explicit path so it cannot overwrite the checked-in
    one); ``--gate`` is :func:`run_gate`.  Exit 2 on a bad combination."""
    problem = None
    if args.record and args.gate:
        problem = "--record and --gate are exclusive"
    elif args.out and not (args.record or args.gate):
        problem = "--out needs --record or --gate"
    elif args.record and args.smoke and not args.out:
        problem = "--record --smoke needs --out"
    if problem:
        print(f"perf: {problem}", file=sys.stderr)
        return 2
    if args.gate:
        return run_gate(args.out or DEFAULT_OUT, args.smoke, args.jobs, args.no_cache)
    out = (args.out or DEFAULT_OUT) if args.record else None
    return run_record(args.smoke, out, args.jobs, args.no_cache)
