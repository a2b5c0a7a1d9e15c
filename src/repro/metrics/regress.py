"""The record comparator: what moved between two virtual-time records.

:func:`compare_records` takes two ``{workload: record}`` groups of the
shape :func:`repro.bench.perf.report_record` writes into
``BENCH_parade.json`` — the checked-in reference and what the commit
under test just computed — and says two things:

* whether the group's **aggregate** of each gated metric (virtual time;
  for the 16-node scale point also barrier-phase virtual time) left the
  :data:`TOLERANCE` band around the record.  Either direction is a
  problem: every number here is a deterministic run invariant, so a
  record that is 5 % pessimistic is as untrue as one that is 5 %
  optimistic, and the remedy for a deliberate change is the same —
  re-record and commit the diff;
* for every workload whose virtual time moved *at all*, the delta of
  every recorded count and phase fraction — which layer's traffic
  changed, not just that a number did.

It is the only comparison loop over these records; ``python -m
repro.bench.perf --gate`` is its one caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

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
    """Compare the computed group *cur* against the recorded group *ref*."""
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
