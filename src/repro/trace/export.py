"""Trace exporters: Chrome trace-event JSON and JSON lines.

The Chrome format is the `trace-event` JSON that Perfetto and
``chrome://tracing`` load: a ``traceEvents`` array of records with
``ph`` (phase), ``ts``/``dur`` (microseconds), ``pid``, ``tid``,
``name``, ``cat`` and ``args``.  The mapping chosen here mirrors the
paper's deployment:

* **process (pid)** = cluster node (``node0`` .. ``nodeN-1``); simulator
  kernel events (node ``-1``) appear under a ``simulator`` pseudo-process;
* **thread (tid)** = the simulation process that emitted the event —
  OpenMP threads (``omp[n.t]rK``), the per-node communication thread
  (``comm[n]``), node agents and the master program each get a track;
* spans are ``ph: "X"`` complete events, instants are ``ph: "i"`` with
  thread scope;
* each cross-node message becomes a **flow** (``ph: "s"`` at the
  ``net/msg-send`` instant, ``ph: "f"`` at the matching
  ``net/msg-deliver``), keyed by the message's wire ``seq`` — Perfetto
  draws these as arrows from the sending track to the delivering track.
  Loopback sends have no deliver event and get no flow.

String track names are assigned stable numeric tids per process and
published via ``thread_name`` metadata records, as the format requires.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, Iterable, List

from repro.trace.events import ALL_CATEGORIES, SIM_PID, TraceEvent
from repro.trace.recorder import TraceRecorder

_S_TO_US = 1e6


def _pid(node: int) -> int:
    return node if node >= 0 else SIM_PID


def to_chrome(events: Iterable[TraceEvent], label: str = "repro") -> Dict[str, Any]:
    """Build the Chrome trace-event dict for *events*.

    Returns ``{"traceEvents": [...], "displayTimeUnit": "ns", ...}``;
    serialise with :func:`write_chrome_json`.
    """
    events = list(events)
    trace_events: List[Dict[str, Any]] = []
    # (pid, tid-string) -> numeric tid; names published as metadata.
    tid_map: Dict[tuple, int] = {}

    # First pass: wire seqs that have BOTH ends recorded.  Loopback
    # messages emit msg-send only; an unmatched flow start would dangle
    # (Perfetto renders it as an arrow to nowhere), so those get none.
    sent, delivered = set(), set()
    for ev in events:
        if ev.cat == "net" and ev.args:
            seq = ev.args.get("seq")
            if seq is not None:
                if ev.name == "msg-send":
                    sent.add(seq)
                elif ev.name == "msg-deliver":
                    delivered.add(seq)
    flow_seqs = sent & delivered

    def tid_of(pid: int, tid: str) -> int:
        key = (pid, tid)
        num = tid_map.get(key)
        if num is None:
            num = len([1 for (p, _t) in tid_map if p == pid]) + 1
            tid_map[key] = num
            trace_events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": num,
                    "args": {"name": tid},
                }
            )
        return num

    pids_seen = set()
    for ev in events:
        pid = _pid(ev.node)
        if pid not in pids_seen:
            pids_seen.add(pid)
            trace_events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "args": {"name": f"node{ev.node}" if ev.node >= 0 else "simulator"},
                }
            )
            trace_events.append(
                {
                    "ph": "M",
                    "name": "process_sort_index",
                    "pid": pid,
                    "args": {"sort_index": pid},
                }
            )
        record: Dict[str, Any] = {
            "name": ev.name,
            "cat": ev.cat,
            "ts": ev.ts * _S_TO_US,
            "pid": pid,
            "tid": tid_of(pid, ev.tid),
            "args": dict(ev.args) if ev.args else {},
        }
        if ev.is_counter:
            # Counter series: args are the stacked numeric values.  Chrome
            # keys counter tracks by (pid, name); tid is carried but unused.
            record["ph"] = "C"
        elif ev.is_span:
            record["ph"] = "X"
            record["dur"] = ev.dur * _S_TO_US
        else:
            record["ph"] = "i"
            record["s"] = "t"
        trace_events.append(record)

        if ev.cat == "net" and ev.args and ev.args.get("seq") in flow_seqs:
            if ev.name == "msg-send":
                flow_ph = "s"
            elif ev.name == "msg-deliver":
                flow_ph = "f"
            else:
                continue
            flow: Dict[str, Any] = {
                "ph": flow_ph,
                "name": "msg",
                "cat": "net.flow",
                "id": int(ev.args["seq"]),
                "ts": record["ts"],
                "pid": pid,
                "tid": record["tid"],
            }
            if flow_ph == "f":
                # bind to the enclosing slice's end so the arrow lands on
                # the deliver instant rather than the next slice
                flow["bp"] = "e"
            trace_events.append(flow)

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ns",
        "otherData": {"source": "repro.trace", "label": label, "clock": "virtual"},
    }


def write_chrome_json(events: Iterable[TraceEvent], path: str, label: str = "repro") -> int:
    """Write the Chrome trace JSON to *path*; returns the event count."""
    doc = to_chrome(events, label=label)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=None, separators=(",", ":"))
    return len(doc["traceEvents"])


def write_jsonl(events: Iterable[TraceEvent], path: str) -> int:
    """One JSON object per line (:meth:`TraceEvent.as_dict`); the input
    format of ``python -m repro trace-diff``.  Returns the line count."""
    n = 0
    with open(path, "w") as fh:
        for ev in events:
            fh.write(json.dumps(ev.as_dict(), sort_keys=True))
            fh.write("\n")
            n += 1
    return n


def read_jsonl(path: str) -> List[TraceEvent]:
    """Load events written by :func:`write_jsonl`."""
    out: List[TraceEvent] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            d = json.loads(line)
            out.append(
                TraceEvent(
                    ts=d["ts"],
                    cat=d["cat"],
                    name=d["name"],
                    node=d.get("node", -1),
                    tid=d.get("tid", "main"),
                    dur=d.get("dur"),
                    args=d.get("args") or None,
                    ph=d.get("ph"),
                )
            )
    return out


def trace_cli(spec, args) -> int:
    """``python -m repro trace``: run *spec* with a recorder attached and
    export the Chrome JSON (plus ``--jsonl``)."""
    from repro.fleet.spec import build_runtime, resolve_factory

    if args.ring <= 0:
        print(f"--ring must be positive, got {args.ring}", file=sys.stderr)
        return 1
    categories = None
    if args.cats:
        categories = frozenset(c.strip() for c in args.cats.split(",") if c.strip())
        unknown = categories - ALL_CATEGORIES
        if unknown:
            print(f"unknown categories: {', '.join(sorted(unknown))}; known: "
                  f"{','.join(sorted(ALL_CATEGORIES))}", file=sys.stderr)
            return 1

    rt = build_runtime(spec)
    recorder = TraceRecorder(rt.sim, capacity=args.ring, categories=categories)
    result = rt.run(resolve_factory(spec.factory, spec.factory_kwargs)())

    events = recorder.events
    label = f"{spec.workload}/{spec.mode}/{spec.n_nodes}n/{spec.exec_name}"
    n_records = write_chrome_json(events, args.out, label=label)
    print(f"{label}: elapsed {result.elapsed * 1e3:.3f} ms (virtual)")
    print(
        f"trace: {len(events)} events ({recorder.n_dropped} evicted, "
        f"ring {recorder.capacity}) -> {args.out} ({n_records} records)"
    )
    for cat, n in sorted(recorder.counts_by_category().items()):
        print(f"  {cat:<12} {n}")
    if args.jsonl:
        print(f"jsonl: {write_jsonl(events, args.jsonl)} events -> {args.jsonl}")
    return 0
