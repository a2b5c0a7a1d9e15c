"""Metrics exposition: Prometheus text, JSON time-series, CSV, Chrome.

Every exporter consumes the plain-dict *dump* produced by
:meth:`repro.metrics.sampler.Metrics.dump`, so the CLI can round-trip:
``metrics --json`` writes the JSON dump, ``metrics-export`` loads it and
emits any other format — and a loaded dump exports byte-identically to
a live one.

* :func:`to_prometheus` — text exposition format: time-series collapse
  to their latest sample (a scrape reads "now"), registry counters and
  gauges render directly, histograms expand to cumulative ``_bucket``
  ``le`` lines plus ``_sum`` / ``_count``.  :func:`parse_prometheus`
  reads the format back for the round-trip check.
* :func:`write_dump` / :func:`load_dump` — the JSON time-series file.
* :func:`to_csv` — ``series,time,value`` rows of every sample.
* :func:`to_chrome_events` — ``ph: "C"`` counter samples reusing the
  trace layer's :class:`~repro.trace.events.TraceEvent`, so metrics
  series overlay protocol traces in one Perfetto view.
"""

from __future__ import annotations

import json
import os
import re
import sys
import tempfile
from typing import Dict, List, Tuple

from repro.trace.events import TraceEvent, CAT_COUNTER
from repro.trace.export import write_chrome_json

#: every exposed metric name carries this prefix
PROM_PREFIX = "parade_"

_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_]+")

#: ``name{labels} value`` — labels optional
_PROM_LINE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)$"
)
_PROM_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="([^"]*)"')


def prom_name(raw: str) -> str:
    """Prometheus-safe metric name for a series or instrument name."""
    cleaned = _SANITIZE_RE.sub("_", raw).strip("_")
    return PROM_PREFIX + cleaned


def _fmt_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _fmt_value(v: float) -> str:
    """Canonical value rendering: integers without a trailing ``.0`` so
    counter lines stay stable across int/float round trips."""
    if v == float("inf"):
        return "+Inf"
    f = float(v)
    return str(int(f)) if f.is_integer() and abs(f) < 1e15 else repr(f)


def to_prometheus(dump: Dict) -> str:
    """Render *dump* in the Prometheus text exposition format."""
    lines: List[str] = []
    for inst in dump.get("instruments", []):
        name = prom_name(inst["name"])
        labels = dict(inst.get("labels", {}))
        kind = inst["kind"]
        lines.append(f"# TYPE {name} {kind}")
        if kind == "histogram":
            acc = int(inst.get("zero_count", 0))
            if acc:
                lines.append(
                    f"{name}_bucket{_fmt_labels({**labels, 'le': '0'})} {acc}"
                )
            buckets = inst.get("buckets", {})
            for idx in sorted(int(k) for k in buckets):
                acc += int(buckets[str(idx)])
                le = _fmt_value(2.0 ** idx)
                lines.append(
                    f"{name}_bucket{_fmt_labels({**labels, 'le': le})} {acc}"
                )
            lines.append(
                f"{name}_bucket{_fmt_labels({**labels, 'le': '+Inf'})} "
                f"{int(inst.get('count', 0))}"
            )
            lines.append(
                f"{name}_sum{_fmt_labels(labels)} {_fmt_value(inst.get('sum', 0.0))}"
            )
            lines.append(
                f"{name}_count{_fmt_labels(labels)} {int(inst.get('count', 0))}"
            )
        else:
            lines.append(
                f"{name}{_fmt_labels(labels)} {_fmt_value(inst.get('value', 0))}"
            )
    series = dump.get("series", {})
    # sorted, not insertion, order: a dump loaded back from JSON must
    # export byte-identically to the live one
    for sname in sorted(series):
        values = series[sname]["v"]
        if not values:
            continue
        name = prom_name(sname)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_fmt_value(values[-1])}")
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Parse exposition text back to ``{(name, labels): value}``.

    Raises ``ValueError`` on any non-comment line that does not match the
    format — the round-trip check relies on this strictness.
    """
    out: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _PROM_LINE_RE.match(line)
        if m is None:
            raise ValueError(f"unparseable exposition line {lineno}: {line!r}")
        labels = tuple(sorted(_PROM_LABEL_RE.findall(m.group("labels") or "")))
        raw = m.group("value")
        value = float("inf") if raw == "+Inf" else float(raw)
        out[(m.group("name"), labels)] = value
    return out


# -- JSON time-series ---------------------------------------------------
def write_dump(dump: Dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(dump, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_dump(path: str) -> Dict:
    with open(path) as fh:
        dump = json.load(fh)
    if "series" not in dump or "instruments" not in dump:
        raise ValueError(f"{path} is not a repro.metrics dump (missing keys)")
    return dump


# -- CSV ----------------------------------------------------------------
def to_csv(dump: Dict) -> str:
    """``series,time,value`` rows, series in sorted-name order, samples
    in time order — trivially loadable by pandas/gnuplot."""
    lines = ["series,time,value"]
    series = dump.get("series", {})
    for sname in sorted(series):
        data = series[sname]
        for t, v in zip(data["t"], data["v"]):
            lines.append(f"{sname},{t!r},{_fmt_value(v)}")
    return "\n".join(lines) + "\n"


# -- Chrome counters ----------------------------------------------------
def to_chrome_events(dump: Dict) -> List[TraceEvent]:
    """One ``ph: "C"`` counter sample per recorded point, named
    ``metrics/<series>`` so the tracks group next to the trace layer's
    own counter series when merged into one Chrome/Perfetto file."""
    events: List[TraceEvent] = []
    for series, data in dump.get("series", {}).items():
        name = f"metrics/{series}"
        for t, v in zip(data["t"], data["v"]):
            events.append(
                TraceEvent(
                    ts=t, cat=CAT_COUNTER, name=name, node=-1,
                    tid="metrics", args={"value": v}, ph="C",
                )
            )
    events.sort(key=lambda ev: (ev.ts, ev.name))
    return events


def write_chrome(dump: Dict, path: str, label: str = "repro.metrics") -> int:
    """Write the counter series as a Chrome trace; returns record count."""
    return write_chrome_json(to_chrome_events(dump), path, label=label)


def export_cli(args) -> int:
    """``python -m repro metrics-export``: re-emit a dump as Prometheus text
    (``--prom``, else stdout), CSV and Chrome counters; ``--check``
    asserts the dump holds samples, round-trips through
    :func:`write_dump` / :func:`load_dump`, and exports to a parseable
    exposition and non-empty CSV and Chrome output (exit 2)."""
    try:
        dump = load_dump(args.dump)
    except (OSError, ValueError) as exc:
        print(f"cannot read metrics dump {args.dump!r}: {exc}", file=sys.stderr)
        return 1
    prom = to_prometheus(dump)
    if args.prom:
        with open(args.prom, "w") as fh:
            fh.write(prom)
        print(f"prom  : {len(prom.splitlines())} lines -> {args.prom}")
    csv = to_csv(dump)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(csv)
        print(f"csv   : {len(csv.splitlines()) - 1} rows -> {args.csv}")
    if args.chrome:
        print(f"chrome: {write_chrome(dump, args.chrome)} records -> {args.chrome}")
    if args.check:
        problems = []
        if not dump.get("n_samples"):
            problems.append("the dump holds zero samples")
        try:
            parsed = parse_prometheus(prom)
            if not parsed:
                problems.append("Prometheus output parsed to zero samples")
        except ValueError as exc:
            problems.append(f"Prometheus output does not parse: {exc}")
        with tempfile.TemporaryDirectory(prefix="metrics-export-") as tmp:
            path = os.path.join(tmp, "dump.json")
            write_dump(dump, path)
            if load_dump(path) != dump:
                problems.append("dump does not round-trip through write_dump/load_dump")
        n_csv, n_chrome = len(csv.splitlines()) - 1, len(to_chrome_events(dump))
        if not (n_csv and n_chrome):
            problems.append(f"empty export (csv={n_csv} rows, chrome={n_chrome} counters)")
        if problems:
            for p in problems:
                print(f"CHECK FAILED: {p}", file=sys.stderr)
            return 2
        print(f"check : ok ({len(parsed)} exposition samples, {n_csv} csv rows, "
              f"{n_chrome} chrome counters)")
    if not (args.prom or args.csv or args.chrome or args.check):
        print(prom, end="")
    return 0
