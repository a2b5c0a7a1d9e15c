"""Per-workload scorecards: one row summarising a metered run.

A scorecard condenses one fleet record (:func:`repro.fleet.spec.execute`
with ``metrics`` on) into the dozen numbers that tell you where a run
went: virtual time, event and message volume, fault pressure, and the
latency percentiles of the two synchronisation hot spots the paper's
evaluation revolves around (lock wait, Fig. 7; barrier epoch latency,
Figs. 8-11).  Everything comes from the record and its metrics dump, so
``python -m repro metrics`` reads the same account of a run that
``sanitize``, ``chaos`` and ``perf`` read.

Rendering goes through the shared table/quantile helpers in
:mod:`repro.util.tables` — the same ones the profiler report uses, so
the two tools cannot disagree on what "p99" or a microsecond column
means.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List

from repro.metrics.registry import Histogram
from repro.metrics.sampler import BARRIER_EPOCH, LOCK_WAIT
from repro.util.tables import fmt_us, render_table

#: latency percentiles reported per scorecard
SCORE_PERCENTILES = (50, 90, 99)


def dump_percentiles(dump: Dict, name: str, qs=SCORE_PERCENTILES) -> Dict[str, float]:
    """Percentiles over every label set of histogram *name* in a metrics
    *dump* (e.g. lock wait across every lock) — none recorded yields 0s."""
    merged = Histogram(name)
    for inst in dump["instruments"]:
        if inst["kind"] == "histogram" and inst["name"] == name:
            merged.merge(Histogram.from_dict(name, (), inst))
    return merged.percentiles(qs)


def _series_peak(dump: Dict, name: str) -> float:
    s = dump["series"].get(name)
    return max(s["v"]) if s and s["v"] else 0.0


def build_scorecard(record: Dict) -> Dict:
    """One scorecard row (plain dict, JSON-serialisable) from a fleet
    record of a metered run."""
    dump = record["metrics"]["dump"]
    return {
        "workload": record["workload"],
        "virtual_s": record["virtual_s"],
        "events": record["events"],
        "msgs": record["msgs_sent"],
        "bytes": record["bytes_sent"],
        "faults": record["faults"],
        "barriers": int(record["dsm_stats"].get("barriers", 0)),
        "lock_wait": dump_percentiles(dump, LOCK_WAIT),
        "barrier_epoch": dump_percentiles(dump, BARRIER_EPOCH),
        "peak_queue_depth": _series_peak(dump, "sim/queue_depth"),
        "peak_inflight_msgs": _series_peak(dump, "net/inflight_msgs"),
        "samples": record["metrics"]["n_samples"],
        "wall_s": record["wall_s"],
    }


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


def write_dump(dump: Dict, path: str) -> None:
    """The ``metrics --json`` file: a metrics dump, keys sorted."""
    with open(path, "w") as fh:
        json.dump(dump, fh, indent=1, sort_keys=True)
        fh.write("\n")


def metrics_cli(specs, args) -> int:
    """``python -m repro metrics``: run each metered spec through the fleet
    and print one scorecard row per record; ``--json`` writes the metrics
    dump of a single workload.  A failed run prints its error, exit 2."""
    from repro.fleet import run_many

    if args.json and len(specs) != 1:
        print("--json needs exactly one workload", file=sys.stderr)
        return 1
    fleet = run_many(specs)
    if not fleet.ok:
        for rec in fleet.failures():
            print(f"{rec['workload']} failed: {rec['error']}", file=sys.stderr)
        return 2
    if args.json:
        spec, rec = specs[0], fleet.records[0]
        dump = {**rec["metrics"]["dump"], "meta": {
            "app": spec.workload, "nodes": spec.n_nodes, "mode": spec.mode,
            "wall_s": rec["wall_s"],
        }}
        write_dump(dump, args.json)
        print(f"json : {len(dump['series'])} series -> {args.json}")
    print(render_scorecards([build_scorecard(rec) for rec in fleet.records]), end="")
    return 0
