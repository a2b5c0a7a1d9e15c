"""Automated §7 programming guidelines: a linter for ParADE OpenMP code.

The paper closes with guidelines for getting performance out of OpenMP on
a cluster; this module turns them into static diagnostics over the
translator's AST:

* **G1 — annotate scopes explicitly.**  "the default scope of variables in
  a parallel block is shared ... careless development of applications
  increases network traffic": flag every variable that falls to the
  implicit shared default.
* **G2 — prefer reduction/atomic over critical.**  "the programmers are
  guided to use the reduction clause or the atomic directive instead of
  the critical directive": flag criticals that take the hybrid row and
  could be atomic/reduction.
* **G3 — keep critical sections lexically analyzable.**  "it is highly
  recommended to write a lexically analyzable code block": flag
  critical/atomic/single blocks containing calls, and critical/atomic
  blocks that are not one scalar update by a reduction operator (both
  fall back to the SDSM lock).
* **G4 — small sync data under the threshold.**  flag
  critical/atomic/single blocks whose shared footprint exceeds the hybrid
  threshold (they stay on the slow page path).

* **G5 — privatise temporaries.**  "declaring the arrays used temporarily
  to store intermediate values as local variables within a parallel
  block" reduces shared pages: flag shared arrays that are written before
  ever being read inside the region (pure scratch).
* **O1 — partitioned-array locality (§8).**  The paper's future-work
  translator "can analyze locality of arrays. If arrays are partitioned
  across nodes, then the synchronization for the arrays is not required":
  report shared arrays that are only ever indexed by the enclosing
  omp-for loop variable — each thread touches a disjoint block, so their
  pages never need invalidation between iterations (an optimisation
  opportunity, not a violation).

G2-G4 read the row decision the ParADE backend makes, so each fallback to
the conventional row inside a parallel region is one G3 or G4 finding.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import List, Optional, Set

from repro.runtime import HYBRID_THRESHOLD_BYTES
from repro.translator import c_ast as A
from repro.translator.analysis import (
    analyze_region,
    build_symbols,
    fallback_reason,
    shared_footprint_bytes,
)
from repro.translator.backends import translate
from repro.translator.parser import parse


@dataclass(frozen=True)
class Diagnostic:
    rule: str          # G1..G5
    message: str
    function: str

    def __str__(self) -> str:  # pragma: no cover
        return f"[{self.rule}] {self.function}: {self.message}"


def _first_accesses(body: A.Node) -> dict:
    """name -> 'read'/'write' for the first access of each identifier,
    walking in (approximate) program order."""
    first: dict = {}

    def note(name, kind):
        if name not in first:
            first[name] = kind

    def visit(node):
        if isinstance(node, A.Assign):
            visit(node.value)
            t = node.target
            if isinstance(t, A.Index) and isinstance(t.base, A.Ident):
                if node.op != "=":
                    note(t.base.name, "read")
                visit(t.index)
                note(t.base.name, "write")
                return
            if isinstance(t, A.Ident):
                if node.op != "=":
                    note(t.name, "read")
                note(t.name, "write")
                return
            visit(t)
            return
        if isinstance(node, A.Ident):
            note(node.name, "read")
            return
        for c in node.children():
            visit(c)

    visit(body)
    return first


def lint(source: str) -> List[Diagnostic]:
    """Run all §7 guideline checks on OpenMP-C *source*."""
    unit = parse(source)
    out: List[Diagnostic] = []
    for item in unit.items:
        if isinstance(item, A.FunctionDef):
            out.extend(_lint_function(item))
    return out


def _lint_function(fn: A.FunctionDef) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    table = build_symbols(fn)
    for node in fn.body.walk():
        if not isinstance(node, A.OmpParallel):
            continue
        info = analyze_region(node, fn)
        explicit = (
            set(node.clauses.shared)
            | set(node.clauses.private)
            | set(node.clauses.firstprivate)
            | set(node.clauses.lastprivate)
            | set(node.clauses.reduction_vars())
        )
        # G1: implicitly shared variables
        for name in sorted(info.shared - explicit):
            diags.append(
                Diagnostic(
                    "G1",
                    f"variable '{name}' is implicitly shared; annotate its scope "
                    "explicitly to avoid accidental inter-node traffic (§7)",
                    fn.name,
                )
            )
        # G5: shared arrays used as scratch (first access is a write)
        first = _first_accesses(node.body)
        for name in sorted(info.shared):
            vi = table.lookup(name)
            if vi is None or vi.array_elems is None:
                continue
            if first.get(name) == "write":
                diags.append(
                    Diagnostic(
                        "G5",
                        f"shared array '{name}' is written before being read in the "
                        "region; if it only holds intermediate values, declare it "
                        "inside the parallel block to cut shared pages (§7)",
                        fn.name,
                    )
                )
        shared_names = info.guarded()
        for inner in node.body.walk():
            if isinstance(inner, (A.OmpCritical, A.OmpAtomic, A.OmpSingle)):
                diags.extend(_check_sync(inner, table, shared_names, fn.name))
            elif isinstance(inner, A.OmpFor):
                diags.extend(_check_partitioned_arrays(inner, info, table, fn.name))
    return diags


def _check_sync(inner, table, shared_names, fn_name: str) -> List[Diagnostic]:
    """G2-G4 for one critical/atomic/single, from the ParADE backend's row
    decision (:func:`fallback_reason`): each fallback is one G3 or G4."""
    single, atomic = isinstance(inner, A.OmpSingle), isinstance(inner, A.OmpAtomic)
    body = inner.stmt if atomic else inner.body
    what = "single block" if single else "atomic update" if atomic else "critical section"
    row = "lock + flag + barrier" if single else "the SDSM lock"
    why = fallback_reason(body, table, shared_names, update=not single)
    if why is None and (single or atomic):
        return []
    if why is None:
        rule, msg = "G2", ("critical section is a simple update: prefer '#pragma omp atomic' "
                           "or a reduction clause — they map directly to a collective (§7)")
    elif why == "call":
        rule, msg = "G3", (f"{what} contains a function call: it is not lexically "
                           f"analyzable and falls back to {row} (§7)")
    elif why == "shape":
        rule, msg = "G3", (f"{what} is not one scalar update by a reduction operator "
                           f"(x op= expr, x++): it has no collective form and falls back "
                           f"to {row} (§4.2)")
    else:
        tail = ("its result cannot be broadcast; it falls back to lock + flag + barrier"
                if single else "it stays on the page protocol; shrink the guarded data (§5.2.1)")
        rule, msg = "G4", (f"{what} touches {shared_footprint_bytes(body, table, shared_names)} "
                           f"shared bytes (> {HYBRID_THRESHOLD_BYTES} B threshold): {tail}")
    return [Diagnostic(rule, msg, fn_name)]


def _check_partitioned_arrays(ompfor: A.OmpFor, info, table, fn_name: str) -> List[Diagnostic]:
    """O1: shared arrays indexed *only* by the loop variable inside an
    omp-for are block-partitioned across threads — candidates for skipping
    inter-node synchronisation (§8)."""
    from repro.translator.analysis import _loop_var

    ivar = _loop_var(ompfor.loop)
    if ivar is None:
        return []
    indexed_by: dict = {}
    for node in ompfor.loop.body.walk():
        if isinstance(node, A.Index) and isinstance(node.base, A.Ident):
            name = node.base.name
            simple = isinstance(node.index, A.Ident) and node.index.name == ivar
            indexed_by.setdefault(name, set()).add("ivar" if simple else "other")
    out: List[Diagnostic] = []
    for name in sorted(indexed_by):
        vi = table.lookup(name)
        if vi is None or vi.array_elems is None or name not in info.shared:
            continue
        if indexed_by[name] == {"ivar"}:
            out.append(
                Diagnostic(
                    "O1",
                    f"shared array '{name}' is only indexed by the loop variable "
                    f"'{ivar}': its access is partitioned across threads, so its "
                    "pages need no inter-node synchronisation (§8 locality analysis)",
                    fn_name,
                )
            )
    return out


def report(source: str) -> str:
    """Human-readable guideline report."""
    diags = lint(source)
    if not diags:
        return "no guideline violations found"
    lines = [f"{len(diags)} guideline finding(s):"]
    for d in diags:
        lines.append(f"  [{d.rule}] {d.function}: {d.message}")
    return "\n".join(lines)


def translate_cli(args) -> int:
    """``python -m repro translate``: the paper's tool flow — C with OpenMP
    1.0 pragmas in, runtime-API C out (``--backend both`` emits the two
    translations one after the other); ``--lint`` prepends the §7 report."""
    if args.input == "-":
        source = sys.stdin.read()
    else:
        with open(args.input) as f:
            source = f.read()

    chunks = []
    if args.lint:
        chunks.append("/* " + report(source).replace("\n", "\n   ") + " */")
    backends = ("parade", "sdsm") if args.backend == "both" else (args.backend,)
    for be in backends:
        if len(backends) > 1:
            chunks.append(f"/* ===== {be} translation ===== */")
        chunks.append(translate(source, be))
    text = "\n".join(chunks)

    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0
