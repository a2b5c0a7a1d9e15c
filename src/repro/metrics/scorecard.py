"""Per-workload scorecards: one row summarising a metered run.

A scorecard condenses one :class:`~repro.runtime.results.RunResult` plus
its attached :class:`~repro.metrics.sampler.Metrics` into the dozen
numbers that tell you where a run went: virtual time, event and message
volume, fault pressure, and the latency percentiles of the two
synchronisation hot spots the paper's evaluation revolves around (lock
wait, Fig. 7; barrier epoch latency, Figs. 8-11).

Rendering goes through the shared table/quantile helpers in
:mod:`repro.util.tables` — the same ones the profiler report uses, so
the two tools cannot disagree on what "p99" or a microsecond column
means.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from typing import Dict, List, Optional

from repro.metrics.sampler import BARRIER_EPOCH, LOCK_WAIT, Metrics
from repro.util.tables import fmt_us, render_table

#: latency percentiles reported per scorecard
SCORE_PERCENTILES = (50, 90, 99)


def _series_peak(mx: Metrics, name: str) -> float:
    s = mx.series.get(name)
    return max(s[1]) if s and s[1] else 0.0


def build_scorecard(name: str, result, mx: Metrics, wall_s: Optional[float] = None) -> Dict:
    """One scorecard row (plain dict, JSON-serialisable)."""
    lock = mx.histogram_percentiles(LOCK_WAIT, SCORE_PERCENTILES)
    barrier = mx.histogram_percentiles(BARRIER_EPOCH, SCORE_PERCENTILES)
    card = {
        "workload": name,
        "virtual_s": result.elapsed,
        "events": int(result.cluster_stats.get("events_processed", 0)),
        "msgs": int(result.cluster_stats.get("total_messages", 0)),
        "bytes": int(result.cluster_stats.get("total_bytes", 0)),
        "faults": int(
            result.dsm_stats.get("read_faults", 0)
            + result.dsm_stats.get("write_faults", 0)
        ),
        "barriers": int(result.dsm_stats.get("barriers", 0)),
        "lock_wait": lock,
        "barrier_epoch": barrier,
        "peak_queue_depth": _series_peak(mx, "sim/queue_depth"),
        "peak_inflight_msgs": _series_peak(mx, "net/inflight_msgs"),
        "samples": mx.n_samples,
    }
    if wall_s is not None:
        card["wall_s"] = wall_s
    return card


def render_scorecards(cards: List[Dict]) -> str:
    """The ``python -m repro metrics`` table."""
    headers = [
        "workload", "vt(ms)", "events", "msgs", "faults",
        "lock p50(us)", "lock p99(us)", "bar p50(us)", "bar p99(us)",
        "peak q", "inflight", "samples",
    ]
    rows = []
    for c in cards:
        rows.append([
            c["workload"],
            f"{c['virtual_s'] * 1e3:.3f}",
            c["events"],
            c["msgs"],
            c["faults"],
            fmt_us(c["lock_wait"]["p50"]),
            fmt_us(c["lock_wait"]["p99"]),
            fmt_us(c["barrier_epoch"]["p50"]),
            fmt_us(c["barrier_epoch"]["p99"]),
            int(c["peak_queue_depth"]),
            int(c["peak_inflight_msgs"]),
            c["samples"],
        ])
    return "\n".join(render_table(headers, rows, align="<")) + "\n"


def metrics_cli(specs, args) -> int:
    """``python -m repro metrics``: meter each spec and print one scorecard
    row each; ``--json`` writes the metrics dump of a single workload."""
    from repro.fleet.spec import build_runtime, resolve_factory
    from repro.metrics.export import write_dump

    if args.json and len(specs) != 1:
        print("--json needs exactly one workload", file=sys.stderr)
        return 1
    cards = []
    for spec in specs:
        t0 = time.perf_counter()
        rt = build_runtime(spec, observe=True)
        result = rt.run(resolve_factory(spec.factory, spec.factory_kwargs)())
        wall = time.perf_counter() - t0
        cards.append(build_scorecard(spec.workload, result, rt.metrics, wall_s=wall))
        if args.json:
            dump = rt.metrics.dump(meta={"app": spec.workload, "nodes": spec.n_nodes,
                                         "mode": spec.mode, "wall_s": wall})
            write_dump(dump, args.json)
            print(f"json : {len(dump['series'])} series -> {args.json}")
    print(render_scorecards(cards), end="")
    return 0


def smoke_cli(args) -> int:
    """``python -m repro metrics-smoke``, the CI gate, in two acts (exit 2
    on the first failure):

    1. bit-identity — the tiny workload metered and unmetered must agree
       on virtual time and every deterministic run statistic (the two
       runs are independent, so they fan out across ``--jobs`` fleet
       worker processes);
    2. export round-trip — the metered dump survives JSON write/load,
       its Prometheus rendering parses, CSV and Chrome are non-empty.
    """
    from repro.fleet import RunSpec, run_many
    from repro.metrics import export as mexport

    def fail(msg: str) -> int:
        print(f"SMOKE FAILED: {msg}", file=sys.stderr)
        return 2

    common = dict(
        factory=("repro.apps.helmholtz", "make_program"),
        factory_kwargs={"n": 24, "m": 24, "max_iters": 2},
        n_nodes=args.n_nodes,
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
    dump["meta"] = {"app": "helmholtz-smoke", "nodes": args.n_nodes}
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
