"""Profile reports: the aggregated data model + text rendering.

:class:`ProfileReport` snapshots a finalized :class:`Profiler` into plain
dictionaries (:meth:`as_dict`, what ``profile --json`` writes) and
renders the human tables:

* per-thread phase ledger, rows summing to each thread's virtual lifetime;
* critical-path decomposition with the what-if lower bounds;
* hot-page table (faults, fetch/diff traffic per page);
* hot-lock table (acquires, remote share, token hops, wait percentiles).
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional

from repro.profile.phases import ALL_GROUPS, ALL_PHASES, group_of
from repro.profile.profiler import Profiler
from repro.profile.critical_path import compute_critical_path
from repro.profile.export import write_profile_chrome
from repro.util.tables import fmt_us as _fmt_us, percentile

#: wait-time histogram percentiles reported per lock
LOCK_PERCENTILES = (50, 90, 99)


class ProfileReport:
    """Aggregated, serialisable view of one profiled run."""

    def __init__(self, data: Dict):
        self.data = data

    # -- construction ----------------------------------------------------
    @classmethod
    def from_profiler(
        cls,
        prof: Profiler,
        meta: Optional[Dict] = None,
        critical_path: bool = True,
    ) -> "ProfileReport":
        prof.finalize()
        threads = {}
        for tid, st in sorted(prof.threads.items()):
            threads[tid] = {
                "node": st.node,
                "start": st.start,
                "end": st.end if st.end is not None else st.last,
                "total": prof.thread_total(tid),
                "phases": {p: st.ledger[p] for p in ALL_PHASES if p in st.ledger},
            }
        pages = {
            str(p): {
                "read_faults": ps.read_faults,
                "write_faults": ps.write_faults,
                "fetches": ps.fetches,
                "fetch_bytes": ps.fetch_bytes,
                "diffs": ps.diffs,
                "diff_bytes": ps.diff_bytes,
            }
            for p, ps in sorted(prof.pages.items())
        }
        locks = {}
        for lid, ls in sorted(prof.locks.items()):
            waits = sorted(ls.waits)
            locks[str(lid)] = {
                "acquires": ls.acquires,
                "remote_acquires": ls.remote_acquires,
                "hops": ls.hops,
                "wait_total": sum(waits),
                "wait_max": waits[-1] if waits else 0.0,
                "wait_pcts": {
                    str(q): percentile(waits, q) for q in LOCK_PERCENTILES
                },
            }
        data = {
            "meta": dict(meta or {}),
            "elapsed": prof.finalized_at,
            "max_sum_error": prof.max_sum_error(),
            "threads": threads,
            "totals": {p: v for p, v in sorted(prof.totals().items())},
            "group_totals": prof.group_totals(),
            "group_fractions": prof.group_fractions(),
            "net": {"flights": prof.net_flights, "flight_s": prof.net_flight_s},
            "pages": pages,
            "locks": locks,
        }
        if critical_path and prof.record_intervals:
            cp = compute_critical_path(
                prof.intervals + prof.net_intervals, t_end=prof.finalized_at
            )
            data["critical_path"] = cp.as_dict()
        return cls(data)

    def as_dict(self) -> Dict:
        return self.data

    # -- checks ----------------------------------------------------------
    def check(self, tol: float = 1e-6) -> List[str]:
        """Invariant violations (empty list = healthy).

        * every thread's phase times sum to its virtual lifetime;
        * critical-path phase times sum to the elapsed span.
        """
        problems = []
        for tid, t in self.data["threads"].items():
            err = abs(sum(t["phases"].values()) - t["total"])
            scale = max(1.0, abs(t["total"]))
            if err > tol * scale:
                problems.append(
                    f"thread {tid}: phases sum to {sum(t['phases'].values()):.9f}"
                    f" but lifetime is {t['total']:.9f} (err {err:.3g})"
                )
        cp = self.data.get("critical_path")
        if cp is not None:
            err = abs(sum(cp["phase_time"].values()) - cp["elapsed"])
            if err > tol * max(1.0, cp["elapsed"]):
                problems.append(
                    f"critical path covers {sum(cp['phase_time'].values()):.9f}"
                    f" of elapsed {cp['elapsed']:.9f} (err {err:.3g})"
                )
        return problems

    # -- text rendering ----------------------------------------------------
    def render(self, top: int = 10) -> str:
        out: List[str] = []
        meta = self.data.get("meta") or {}
        title = meta.get("title") or meta.get("app") or "profile"
        out.append(f"== virtual-time profile: {title} ==")
        if meta:
            kv = ", ".join(f"{k}={v}" for k, v in sorted(meta.items()) if k != "title")
            if kv:
                out.append(f"   {kv}")
        out.append(f"   elapsed virtual time: {_fmt_us(self.data['elapsed'] or 0.0)} us")
        out.append("")
        out.extend(self._render_threads())
        out.append("")
        out.extend(self._render_groups())
        cp = self.data.get("critical_path")
        if cp:
            out.append("")
            out.extend(self._render_critical_path(cp))
        if self.data.get("pages"):
            out.append("")
            out.extend(self._render_pages(top))
        if self.data.get("locks"):
            out.append("")
            out.extend(self._render_locks(top))
        return "\n".join(out) + "\n"

    def _render_threads(self) -> List[str]:
        threads = self.data["threads"]
        phases = [
            p for p in ALL_PHASES
            if any(p in t["phases"] for t in threads.values())
        ]
        head = ["thread".ljust(16)] + [p.rjust(12) for p in phases] + [
            "sum".rjust(12), "lifetime".rjust(12)]
        lines = ["-- per-thread phases (us) --", "".join(head)]
        for tid, t in threads.items():
            row = [tid.ljust(16)]
            for p in phases:
                row.append(_fmt_us(t["phases"].get(p, 0.0)).rjust(12))
            row.append(_fmt_us(sum(t["phases"].values())).rjust(12))
            row.append(_fmt_us(t["total"]).rjust(12))
            lines.append("".join(row))
        return lines

    def _render_groups(self) -> List[str]:
        gt = self.data["group_totals"]
        gf = self.data["group_fractions"]
        lines = ["-- phase groups (all threads) --"]
        for g in ALL_GROUPS:
            lines.append(
                f"  {g:<8} {_fmt_us(gt.get(g, 0.0)):>14} us  "
                f"{100.0 * gf.get(g, 0.0):6.2f}%"
            )
        return lines

    def _render_critical_path(self, cp: Dict) -> List[str]:
        lines = ["-- critical path --"]
        elapsed = cp["elapsed"] or 1e-30
        for phase, sec in sorted(
            cp["phase_time"].items(), key=lambda kv: -kv[1]
        ):
            lines.append(
                f"  {phase:<14} {_fmt_us(sec):>14} us  {100.0 * sec / elapsed:6.2f}%"
            )
        lines.append("  what-if lower bounds on elapsed:")
        for name, bound in sorted(cp["what_if"].items()):
            saved = cp["elapsed"] - bound
            lines.append(
                f"    {name:<22} {_fmt_us(bound):>14} us"
                f"  (saves {100.0 * saved / elapsed:5.2f}%)"
            )
        return lines

    def _render_pages(self, top: int) -> List[str]:
        rows = sorted(
            self.data["pages"].items(),
            key=lambda kv: -(kv[1]["read_faults"] + kv[1]["write_faults"]),
        )[:top]
        lines = [f"-- hot pages (top {len(rows)} of {len(self.data['pages'])}) --",
                 f"{'page':>8} {'rflt':>6} {'wflt':>6} {'fetches':>8} "
                 f"{'fetchB':>10} {'diffs':>6} {'diffB':>10}"]
        for page, ps in rows:
            lines.append(
                f"{page:>8} {ps['read_faults']:>6} {ps['write_faults']:>6} "
                f"{ps['fetches']:>8} {ps['fetch_bytes']:>10} "
                f"{ps['diffs']:>6} {ps['diff_bytes']:>10}"
            )
        return lines

    def _render_locks(self, top: int) -> List[str]:
        rows = sorted(
            self.data["locks"].items(), key=lambda kv: -kv[1]["wait_total"]
        )[:top]
        pct_heads = "".join(f"{'p' + str(q) + '(us)':>11}" for q in LOCK_PERCENTILES)
        lines = [f"-- hot locks (top {len(rows)} of {len(self.data['locks'])}) --",
                 f"{'lock':>6} {'acq':>6} {'remote':>7} {'hops':>6} "
                 f"{'wait(us)':>12}{pct_heads}{'max(us)':>11}"]
        for lid, ls in rows:
            pcts = "".join(
                f"{_fmt_us(ls['wait_pcts'][str(q)]):>11}" for q in LOCK_PERCENTILES
            )
            lines.append(
                f"{lid:>6} {ls['acquires']:>6} {ls['remote_acquires']:>7} "
                f"{ls['hops']:>6} {_fmt_us(ls['wait_total']):>12}"
                f"{pcts}{_fmt_us(ls['wait_max']):>11}"
            )
        return lines


def profile_cli(spec, args) -> int:
    """``python -m repro profile``: run *spec* under the profiler, print
    the report, write ``--json`` / ``--chrome``; ``--check`` asserts the
    report's invariants — exit 2 on violation."""
    from repro.fleet.spec import build_runtime, resolve_factory

    if args.top < 0:
        print(f"--top must be >= 0, got {args.top}", file=sys.stderr)
        return 1
    rt = build_runtime(spec)
    prof = Profiler(rt.sim)
    result = rt.run(resolve_factory(spec.factory, spec.factory_kwargs)())
    prof.finalize()

    title = f"{spec.workload}/{spec.mode}/{spec.n_nodes}n/{spec.exec_name}"
    meta = {
        "app": spec.workload,
        "mode": spec.mode,
        "nodes": spec.n_nodes,
        "exec": spec.exec_name,
        "title": title,
        "elapsed_virtual_s": result.elapsed,
    }
    report = ProfileReport.from_profiler(
        prof, meta=meta, critical_path=not args.no_critical_path
    )
    print(report.render(top=args.top))

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.as_dict(), fh, indent=1, sort_keys=True)
        print(f"json : report -> {args.json}")
    if args.chrome:
        n = write_profile_chrome(prof, args.chrome, label=title)
        print(f"chrome: {n} records -> {args.chrome}")

    if args.check:
        problems = report.check()
        if problems:
            for p in problems:
                print(f"CHECK FAILED: {p}", file=sys.stderr)
            return 2
        print(f"check: ok ({len(report.data['threads'])} threads, "
              f"max phase-sum error {report.data['max_sum_error']:.3g} s)")
    return 0
