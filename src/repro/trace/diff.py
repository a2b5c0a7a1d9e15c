"""Trace diff: align two recorded runs and report where they diverge.

The ROADMAP's trace follow-up: compare, event by event, two JSONL traces
(written with ``python -m repro trace <app> --jsonl run.jsonl``) — e.g.
the parade and sdsm translations of one program, or two runs that should
be deterministic replicas.  The report has two parts:

* **first divergence** — the earliest index at which the event streams
  disagree (category, name, node, tid, virtual time, payload bytes), with
  both events printed; identical prefixes are the strongest determinism
  evidence short of full-file equality;
* **per-event-type deltas** — for every ``(cat, name)`` pair, the count
  in each run and the total payload bytes (summed over numeric ``nbytes``
  args), so a protocol-level regression ("sdsm sends 40 more diffs and
  2.1x the fetch bytes") is quantified even when the streams diverge on
  the second event.

Comparison ignores event *order differences beyond the first divergence*
by design: after streams fork, positional alignment is meaningless, so
aggregate deltas carry the signal.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.trace.events import TraceEvent

#: event fields compared for the first-divergence scan, in report order
_COMPARE_FIELDS = ("ts", "cat", "name", "node", "tid", "dur", "args")


def _event_key(ev: TraceEvent) -> tuple:
    return (
        ev.ts,
        ev.cat,
        ev.name,
        ev.node,
        ev.tid,
        ev.dur,
        repr(sorted(ev.args.items())) if ev.args else "",
    )


def _payload_bytes(ev: TraceEvent) -> int:
    if not ev.args:
        return 0
    nb = ev.args.get("nbytes")
    return int(nb) if isinstance(nb, (int, float)) else 0


class TraceDiff:
    """Result of :func:`diff_traces`."""

    def __init__(self, n_a: int, n_b: int):
        self.n_a = n_a
        self.n_b = n_b
        #: index of the first mismatching event, or None if the common
        #: prefix is clean (streams may still differ in length)
        self.first_divergence: Optional[int] = None
        self.divergent_fields: List[str] = []
        self.event_a: Optional[TraceEvent] = None
        self.event_b: Optional[TraceEvent] = None
        #: (cat, name) -> (count_a, count_b, bytes_a, bytes_b)
        self.type_deltas: Dict[Tuple[str, str], Tuple[int, int, int, int]] = {}

    @property
    def identical(self) -> bool:
        return self.first_divergence is None and self.n_a == self.n_b

    def summary(self, label_a: str = "A", label_b: str = "B") -> str:
        lines = [f"trace diff: {label_a} ({self.n_a} events) vs {label_b} ({self.n_b} events)"]
        if self.identical:
            lines.append("  identical event streams")
        elif self.first_divergence is None:
            shorter = label_a if self.n_a < self.n_b else label_b
            lines.append(
                f"  common prefix of {min(self.n_a, self.n_b)} events is "
                f"identical; {shorter} ends early"
            )
        else:
            i = self.first_divergence
            lines.append(
                f"  first divergence at event {i} "
                f"(fields: {', '.join(self.divergent_fields)})"
            )
            lines.append(f"    {label_a}[{i}]: {self._fmt(self.event_a)}")
            lines.append(f"    {label_b}[{i}]: {self._fmt(self.event_b)}")
        changed = {
            k: v for k, v in self.type_deltas.items()
            if v[0] != v[1] or v[2] != v[3]
        }
        if changed:
            lines.append("  per-event-type deltas (count / payload bytes):")
            lines.append(
                f"    {'cat/name':<28} {label_a + ' n':>9} {label_b + ' n':>9} "
                f"{'dn':>7} {label_a + ' B':>12} {label_b + ' B':>12} {'dB':>10}"
            )
            for (cat, name), (ca, cb, ba, bb) in sorted(changed.items()):
                lines.append(
                    f"    {cat + '/' + name:<28} {ca:>9} {cb:>9} {cb - ca:>+7} "
                    f"{ba:>12} {bb:>12} {bb - ba:>+10}"
                )
        elif not self.identical:
            lines.append("  per-event-type counts and bytes match")
        return "\n".join(lines)

    @staticmethod
    def _fmt(ev: Optional[TraceEvent]) -> str:
        if ev is None:
            return "<no event: stream ended>"
        dur = "" if ev.dur is None else f" dur={ev.dur:.3e}"
        return (
            f"t={ev.ts:.6e} {ev.cat}/{ev.name} node={ev.node} "
            f"tid={ev.tid}{dur} args={ev.args or {}}"
        )


def diff_traces(a: List[TraceEvent], b: List[TraceEvent]) -> TraceDiff:
    """Compare two event streams; see the module docstring for semantics."""
    result = TraceDiff(len(a), len(b))
    for i in range(min(len(a), len(b))):
        if _event_key(a[i]) != _event_key(b[i]):
            result.first_divergence = i
            result.event_a, result.event_b = a[i], b[i]
            result.divergent_fields = [
                f for f in _COMPARE_FIELDS
                if getattr(a[i], f) != getattr(b[i], f)
            ]
            break

    def tally(events: List[TraceEvent], slot: int) -> None:
        for ev in events:
            key = (ev.cat, ev.name)
            ca, cb, ba, bb = result.type_deltas.get(key, (0, 0, 0, 0))
            if slot == 0:
                ca += 1
                ba += _payload_bytes(ev)
            else:
                cb += 1
                bb += _payload_bytes(ev)
            result.type_deltas[key] = (ca, cb, ba, bb)

    tally(a, 0)
    tally(b, 1)
    return result


def diff_cli(args) -> int:
    """``python -m repro trace-diff A.jsonl B.jsonl``: exit 0 when the two
    traces are identical, 1 when they diverge."""
    from repro.trace.export import read_jsonl

    a, b = args.traces
    result = diff_traces(read_jsonl(a), read_jsonl(b))
    print(result.summary(label_a=a, label_b=b))
    return 0 if result.identical else 1
