"""Translation backends: ParADE hybrid vs conventional SDSM (§4, Figs 2-3).

One class per translation.  :class:`SdsmBackend` is the conventional
translation and the Omni-style region outlining both share: each
``parallel`` region becomes a generated thread function taking a struct of
pointers to its shared variables; the region statement becomes a fork call.
:class:`ParadeBackend` subclasses it and overrides only the hybrid rows.  A
directive takes its hybrid row when :func:`repro.runtime.hybrid_row` says
so (body lexically analyzable, and one update statement for
critical/atomic; shared footprint at most 256 B); otherwise it falls back
to the inherited conventional row, with ``parade_`` names:

========================  ==============================  =========================
directive                 ParadeBackend                   SdsmBackend
========================  ==============================  =========================
critical (analyzable,     pthread lock +                  km_lock / body /
small footprint)          parade_allreduce of the delta   km_unlock
critical (general)        parade_sdsm_lock / body /       km_lock / body /
                          unlock                          km_unlock
atomic                    as critical                     km_lock / body / km_unlock
reduction clause          private partial +               private partial + km_lock
                          parade_allreduce (no barrier)   accumulate + km_barrier
single (small)            earliest thread + parade_bcast  km_lock + done-flag page +
                          (no barrier)                    km_barrier
for                       static chunking +               static chunking +
                          parade_barrier unless replaced  km_barrier
for schedule(dynamic)     master-node chunk dispenser     counter under km_lock
barrier                   parade_barrier()                km_barrier()
========================  ==============================  =========================
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional

from repro.translator import c_ast as A
from repro.translator.analysis import (
    REDUCTION_OPS,
    analyze_region,
    build_symbols,
    extract_loop_bounds,
    fallback_reason,
    find_update_statement,
    written_identifiers,
    SymbolTable,
    RegionInfo,
)
from repro.translator.codegen import CWriter
from repro.translator.parser import parse


class _Rewriter:
    """Replaces identifier uses of shared scalars with pointer derefs."""

    def __init__(self, pointer_names: Dict[str, str], rename: Optional[Dict[str, str]] = None):
        self.pointer_names = pointer_names
        self.rename = rename or {}

    def rewrite(self, node: A.Node) -> A.Node:
        if isinstance(node, A.Ident):
            if node.name in self.rename:
                return A.Ident(self.rename[node.name])
            if node.name in self.pointer_names:
                return A.UnOp("*", A.Ident(self.pointer_names[node.name]))
            return node
        clone = copy.copy(node)
        for key, value in list(clone.__dict__.items()):
            if isinstance(value, A.Node):
                setattr(clone, key, self.rewrite(value))
            elif isinstance(value, list):
                setattr(
                    clone,
                    key,
                    [self.rewrite(v) if isinstance(v, A.Node) else v for v in value],
                )
        return clone


class SdsmBackend:
    """The conventional translation (Figures 2 and 3, left-hand side) and
    the outlining both translations share."""

    name = "sdsm"
    runtime_header = "kdsm.h"
    #: every runtime call is ``f"{prefix}_{op}"`` (:meth:`api`)
    prefix = "km"
    #: ``f"{lock}_lock"`` / ``f"{lock}_unlock"``: the SDSM lock of the
    #: conventional rows
    lock = "km"
    #: tail of the declaration of a conventional row's flag or counter
    shared_note = " /* in SDSM shared memory */"
    collective_replaces_barrier = False

    def __init__(self):
        self._region_counter = 0
        self._sync_counter = 0
        self._emitted_functions: List[str] = []
        self._globals: List[str] = []

    # -- entry ---------------------------------------------------------
    def translate_unit(self, unit: A.TranslationUnit) -> str:
        chunks: List[str] = [f'#include "{self.runtime_header}"', ""]
        body_writer = CWriter()
        for item in unit.items:
            if isinstance(item, A.FunctionDef):
                new_fn = self._translate_function(item)
                body_writer.write_function(new_fn)
                body_writer._line()
            else:
                body_writer.write_stmt(item)
        if self._globals:
            chunks.extend(self._globals)
            chunks.append("")
        chunks.extend(self._emitted_functions)
        chunks.append(body_writer.text())
        return "\n".join(chunks)

    def _translate_function(self, fn: A.FunctionDef) -> A.FunctionDef:
        table = build_symbols(fn)
        new_body = self._transform_stmt(fn.body, fn, table, in_region=False, region_info=None)
        return A.FunctionDef(fn.return_type, fn.name, fn.params, new_body)

    # -- generic statement transform --------------------------------------
    def _transform_stmt(self, node, fn, table, in_region: bool, region_info) -> A.Node:
        if isinstance(node, A.OmpParallel):
            return self._emit_parallel(node, fn, table)
        if isinstance(node, A.OmpFor):
            if not in_region:
                raise ValueError("omp for outside a parallel region (orphaned directives unsupported)")
            return self._emit_for(node, fn, table, region_info)
        if isinstance(node, A.OmpCritical):
            return self._emit_critical(node, fn, table, region_info)
        if isinstance(node, A.OmpAtomic):
            return self._emit_atomic(node, fn, table, region_info)
        if isinstance(node, A.OmpSingle):
            return self._emit_single(node, fn, table, region_info)
        if isinstance(node, A.OmpMaster):
            inner = self._transform_stmt(node.body, fn, table, in_region, region_info)
            return A.If(
                A.BinOp("==", A.Call(A.Ident(self.api("thread_id")), []), A.Num("0")),
                _as_compound(inner),
            )
        if isinstance(node, A.OmpBarrier):
            return A.Raw(f"{self.api('barrier')}();")
        if isinstance(node, A.OmpFlush):
            return A.Raw(f"{self.api('flush')}();")
        if isinstance(node, A.OmpSections):
            return self._emit_sections(node, fn, table, region_info)
        if isinstance(node, A.Compound):
            return A.Compound(
                [self._transform_stmt(c, fn, table, in_region, region_info) for c in node.items]
            )
        if isinstance(node, A.If):
            return A.If(
                node.cond,
                self._transform_stmt(node.then, fn, table, in_region, region_info),
                self._transform_stmt(node.other, fn, table, in_region, region_info)
                if node.other
                else None,
            )
        if isinstance(node, A.While):
            return A.While(node.cond, self._transform_stmt(node.body, fn, table, in_region, region_info))
        if isinstance(node, A.DoWhile):
            return A.DoWhile(self._transform_stmt(node.body, fn, table, in_region, region_info), node.cond)
        if isinstance(node, A.For):
            return A.For(
                node.init, node.cond, node.step,
                self._transform_stmt(node.body, fn, table, in_region, region_info),
            )
        return node

    # -- parallel region outlining -------------------------------------------
    def _emit_parallel(self, region: A.OmpParallel, fn: A.FunctionDef, table: SymbolTable) -> A.Node:
        self._region_counter += 1
        rid = self._region_counter
        info = analyze_region(region, fn)

        shared_ptrs: Dict[str, str] = {}
        struct_fields: List[str] = []
        pack_lines: List[str] = []
        unpack_lines: List[str] = []
        for name in sorted(info.guarded() | set(info.firstprivate)):
            vi = table.lookup(name)
            if vi is None:
                continue
            ctype = str(vi.type)
            if vi.array_elems is not None:
                # arrays decay to pointers; element indexing unchanged
                struct_fields.append(f"{ctype} *{name};")
                pack_lines.append(f"__args_{rid}.{name} = {name};")
                unpack_lines.append(f"{ctype} *{name} = __args->{name};")
            else:
                struct_fields.append(f"{ctype} *{name};")
                pack_lines.append(f"__args_{rid}.{name} = &{name};")
                unpack_lines.append(f"{ctype} *__p_{name} = __args->{name};")
                if name in info.guarded():
                    shared_ptrs[name] = f"__p_{name}"

        # private copies inside the thread function
        private_decls: List[str] = []
        for name in sorted(info.all_private()):
            vi = table.lookup(name)
            ctype = str(vi.type) if vi else "int"
            if name in info.firstprivate:
                private_decls.append(f"{ctype} {name} = *__p_{name};")
                shared_ptrs.pop(name, None)
            else:
                private_decls.append(f"{ctype} {name};")

        region_info = _RegionCtx(info, shared_ptrs, table)
        # region-level reduction clause (on 'parallel' itself): establish the
        # private-partial renames BEFORE lowering the body so every nested
        # construct accumulates into __red_<name>, not the shared pointer
        red_prologue, red_epilogue = self._reduction_code(region.clauses, table, region_info)
        region_info.region_renames = dict(region_info.reduction_renames)
        region_info.reduction_renames.clear()
        body = self._transform_stmt(region.body, fn, table, True, region_info)
        body = _Rewriter(shared_ptrs, dict(region_info.region_renames)).rewrite(body)

        w = CWriter()
        w._line(f"static void __{self.prefix}_region_{rid}(struct __{self.prefix}_args_{rid} *__args)")
        w._line("{")
        w.level += 1
        for ln in unpack_lines + private_decls + red_prologue:
            w._line(ln)
        w.write_stmt(_as_compound(body))
        for ln in red_epilogue:
            w._line(ln)
        w.level -= 1
        w._line("}")

        struct_def = "\n".join(
            [f"struct __{self.prefix}_args_{rid} {{"]
            + ["    " + f for f in struct_fields]
            + ["};"]
        )
        self._globals.append(struct_def)
        self._emitted_functions.append(w.text())

        call = CWriter()
        call._line("{")
        call.level += 1
        call._line(f"struct __{self.prefix}_args_{rid} __args_{rid};")
        for ln in pack_lines:
            call._line(ln)
        nt = region.clauses.num_threads or "0"
        call._line(
            f"{self.api('parallel')}((void (*)(void *))__{self.prefix}_region_{rid}, "
            f"&__args_{rid}, {nt});"
        )
        call.level -= 1
        call._line("}")
        return A.Raw(call.text().rstrip("\n"))

    # -- reduction helpers -------------------------------------------------
    def _reduction_code(self, clauses: A.OmpClauses, table: SymbolTable, ctx) -> tuple:
        prologue: List[str] = []
        epilogue: List[str] = []
        for op, names in clauses.reductions:
            for name in names:
                vi = table.lookup(name)
                ctype = str(vi.type) if vi else "double"
                ident = _identity_for(op)
                prologue.append(f"{ctype} __red_{name} = {ident};")
                ctx.reduction_renames[name] = f"__red_{name}"
                epilogue.extend(self.reduction_finalize(name, op, ctype, ctx))
        return prologue, epilogue

    def api(self, op: str) -> str:
        return f"{self.prefix}_{op}"

    def _next_sync_id(self) -> int:
        self._sync_counter += 1
        return self._sync_counter

    @staticmethod
    def _apply_ctx(node: A.Node, ctx) -> A.Node:
        """Rewrite shared-scalar uses to pointer derefs inside emitters
        that stringify their block early (the outer region rewriter cannot
        see into Raw nodes)."""
        if ctx is None or (not ctx.shared_ptrs and not ctx.region_renames):
            return node
        return _Rewriter(ctx.shared_ptrs, dict(ctx.region_renames)).rewrite(node)

    # -- omp for -------------------------------------------------------------
    def _emit_for(self, node: A.OmpFor, fn, table, ctx) -> A.Node:
        bounds = extract_loop_bounds(node.loop)
        if bounds is None:
            raise ValueError("omp for loop is not in canonical form")
        w = CWriter()
        body = self._transform_stmt(node.loop.body, fn, table, True, ctx)
        # reduction clause on the for: rename accumulator uses to the private
        # partial FIRST, then rewrite remaining shared scalars to pointers
        prologue, epilogue = self._reduction_code(node.clauses, table, ctx)
        if ctx is not None and ctx.reduction_renames:
            body = _Rewriter({}, dict(ctx.reduction_renames)).rewrite(body)
        body = self._apply_ctx(body, ctx)
        lo = CWriter().fmt_expr(bounds.lo)
        hi = CWriter().fmt_expr(bounds.hi)
        if bounds.inclusive:
            hi = f"({hi}) + 1"
        sched_kind = node.clauses.schedule[0] if node.clauses.schedule else "static"
        chunk = (node.clauses.schedule[1] or "1") if node.clauses.schedule else "1"
        w._line("{")
        w.level += 1
        w._line("long __lb, __ub;")
        for ln in prologue:
            w._line(ln)
        if sched_kind in ("dynamic", "guided"):
            self.emit_dynamic_for(w, bounds, lo, hi, chunk, sched_kind, body)
        else:
            w._line(f"{self.api('loop_static')}({lo}, {hi}, &__lb, &__ub);")
            w._line(f"for ({bounds.var} = __lb; {bounds.var} < __ub; {bounds.var}++)")
            w.write_stmt(_as_compound(body))
        for ln in epilogue:
            w._line(ln)
        # the implicit barrier of a work-sharing construct
        if not node.clauses.nowait:
            if not (node.clauses.reductions and self.collective_replaces_barrier):
                w._line(f"{self.api('barrier')}();")
            else:
                w._line(f"/* barrier elided: allreduce above synchronises (§5.2.1) */")
        w.level -= 1
        w._line("}")
        if ctx is not None:
            ctx.reduction_renames.clear()
        return A.Raw(w.text().rstrip("\n"))

    def _emit_sections(self, node: A.OmpSections, fn, table, ctx) -> A.Node:
        parts: List[A.Node] = []
        for k, sec in enumerate(node.sections):
            inner = self._transform_stmt(sec, fn, table, True, ctx)
            cond = A.BinOp(
                "==",
                A.BinOp("%", A.Num(str(k)), A.Call(A.Ident(self.api("num_threads")), [])),
                A.BinOp("%", A.Call(A.Ident(self.api("thread_id")), []),
                        A.Call(A.Ident(self.api("num_threads")), [])),
            )
            parts.append(A.If(cond, _as_compound(inner)))
        if not node.clauses.nowait:
            parts.append(A.Raw(f"{self.api('barrier')}();"))
        return A.Compound(parts)

    # -- the conventional rows of Figs 2-3 -----------------------------------
    def reduction_finalize(self, name, op, ctype, ctx) -> List[str]:
        sid = self._next_sync_id()
        target = f"*__p_{name}" if ctx and name in ctx.shared_ptrs else name
        return [
            f"{self.lock}_lock({sid});",
            f"{target} = {target} {op} __red_{name};",
            f"{self.lock}_unlock({sid});",
        ]

    def emit_dynamic_for(self, w, bounds, lo, hi, chunk, kind, body) -> None:
        """Conventional dynamic scheduling: self-scheduling off a shared
        counter guarded by the SDSM lock — every chunk grab is a lock
        round-trip plus counter-page traffic."""
        sid = self._next_sync_id()
        nxt = f"__{self.prefix}_loop_next_{sid}"
        self._globals.append(f"static long {nxt};{self.shared_note}")
        w._line("while (1) {")
        w.level += 1
        w._line(f"{self.lock}_lock({sid});")
        w._line(f"__lb = {nxt} + ({lo});")
        w._line(f"{nxt} = {nxt} + {chunk};")
        w._line(f"{self.lock}_unlock({sid});")
        w._line(f"if (__lb >= {hi}) break;")
        w._line(f"__ub = __lb + {chunk} < ({hi}) ? __lb + {chunk} : ({hi});")
        w._line(f"for ({bounds.var} = __lb; {bounds.var} < __ub; {bounds.var}++)")
        w.write_stmt(_as_compound(body))
        w.level -= 1
        w._line("}")

    def _emit_critical(self, node: A.OmpCritical, fn, table, ctx) -> A.Node:
        # Figure 2, left: the SDSM lock covers intra- and inter-node exclusion
        sid = self._next_sync_id()
        body = self._apply_ctx(self._transform_stmt(node.body, fn, table, True, ctx), ctx)
        w = CWriter()
        w._line(f"{self.lock}_lock({sid});")
        w.write_stmt(_as_compound(body))
        w._line(f"{self.lock}_unlock({sid});")
        return A.Raw(w.text().rstrip("\n"))

    def _emit_atomic(self, node: A.OmpAtomic, fn, table, ctx) -> A.Node:
        return self._emit_critical(A.OmpCritical(None, node.stmt), fn, table, ctx)

    def _emit_single(self, node: A.OmpSingle, fn, table, ctx) -> A.Node:
        # Figure 3, left: lock + shared done flag + implicit barrier
        sid = self._next_sync_id()
        body = self._apply_ctx(self._transform_stmt(node.body, fn, table, True, ctx), ctx)
        done = f"__{self.prefix}_done_{sid}"
        w = CWriter()
        w._line(f"{self.lock}_lock({sid});")
        w._line(f"if ({done} == 0) {{")
        w.level += 1
        w.write_stmt(_as_compound(body))
        w._line(f"{done} = 1;")
        w.level -= 1
        w._line("}")
        w._line(f"{self.lock}_unlock({sid});")
        if not node.clauses.nowait:
            w._line(f"{self.api('barrier')}();")
        self._globals.append(f"static int {done};{self.shared_note}")
        return A.Raw(w.text().rstrip("\n"))


class _RegionCtx:
    def __init__(self, info: RegionInfo, shared_ptrs: Dict[str, str], table: SymbolTable):
        self.info = info
        self.shared_ptrs = shared_ptrs
        self.table = table
        #: loop-level (omp for) reduction renames — cleared per loop
        self.reduction_renames: Dict[str, str] = {}
        #: region-level (omp parallel) reduction renames — live for the region
        self.region_renames: Dict[str, str] = {}


def _as_compound(node: A.Node) -> A.Compound:
    return node if isinstance(node, A.Compound) else A.Compound([node])


def _identity_for(op: str) -> str:
    return {"+": "0", "-": "0", "*": "1", "&": "~0", "|": "0", "^": "0",
            "&&": "1", "||": "0"}.get(op, "0")


# ----------------------------------------------------------------------
class ParadeBackend(SdsmBackend):
    """The hybrid translation (Figures 2 and 3, right-hand side): a
    directive that :func:`repro.runtime.hybrid_row` puts on the hybrid row
    is lowered here, any other one by the conventional code it inherits."""

    name = "parade"
    runtime_header = "parade.h"
    prefix = "parade"
    lock = "parade_sdsm"
    shared_note = ""
    collective_replaces_barrier = True

    def _hybrid(self, body: A.Node, ctx, update: bool = False) -> bool:
        return ctx is not None and (
            fallback_reason(body, ctx.table, ctx.info.guarded(), update) is None
        )

    def reduction_finalize(self, name, op, ctype, ctx) -> List[str]:
        mpi_op = REDUCTION_OPS.get(op, "PARADE_SUM")
        target = f"*__p_{name}" if ctx and name in ctx.shared_ptrs else name
        return [
            f"parade_allreduce(&__red_{name}, 1, PARADE_DOUBLE, {mpi_op});",
            f"{target} = {target} {op} __red_{name};",
        ]

    def emit_dynamic_for(self, w, bounds, lo, hi, chunk, kind, body) -> None:
        """schedule(dynamic/guided): chunk dispenser on the master node
        (the §8 loop-scheduling extension implemented by the runtime)."""
        sid = self._next_sync_id()
        mode = "PARADE_SCHED_GUIDED" if kind == "guided" else "PARADE_SCHED_DYNAMIC"
        w._line(f"parade_dynloop_t __dloop_{sid};")
        w._line(f"parade_dynloop_init(&__dloop_{sid}, {lo}, {hi}, {chunk}, {mode});")
        w._line(f"while (parade_dynloop_next(&__dloop_{sid}, &__lb, &__ub)) {{")
        w.level += 1
        w._line(f"for ({bounds.var} = __lb; {bounds.var} < __ub; {bounds.var}++)")
        w.write_stmt(_as_compound(body))
        w.level -= 1
        w._line("}")

    def _emit_critical(self, node: A.OmpCritical, fn, table, ctx) -> A.Node:
        if not self._hybrid(node.body, ctx, update=True):
            return super()._emit_critical(node, fn, table, ctx)
        # Figure 2, right: pthread lock + collective update, no SDSM lock
        pat = find_update_statement(node.body)
        sid = self._next_sync_id()
        mpi_op = REDUCTION_OPS.get(pat.op, "PARADE_SUM")
        delta = CWriter().fmt_expr(self._apply_ctx(pat.delta, ctx)) if pat.delta is not None else "1"
        target = f"(*__p_{pat.var})" if pat.var in ctx.shared_ptrs else pat.var
        w = CWriter()
        w._line(f"parade_pthread_lock(&__parade_lock_{sid});")
        w._line("{")
        w.level += 1
        w._line(f"double __delta = {delta};")
        w._line(f"parade_allreduce(&__delta, 1, PARADE_DOUBLE, {mpi_op});")
        w._line(f"{target} = {target} {pat.op} __delta;")
        w.level -= 1
        w._line("}")
        w._line(f"parade_pthread_unlock(&__parade_lock_{sid});")
        self._globals.append(f"static parade_pthread_mutex_t __parade_lock_{sid};")
        return A.Raw(w.text().rstrip("\n"))

    def _emit_single(self, node: A.OmpSingle, fn, table, ctx) -> A.Node:
        if not self._hybrid(node.body, ctx):
            return super()._emit_single(node, fn, table, ctx)
        # Figure 3, right: earliest thread executes; bcast the result;
        # pthread gate locally; no inter-node lock, no barrier.
        sid = self._next_sync_id()
        body = self._apply_ctx(self._transform_stmt(node.body, fn, table, True, ctx), ctx)
        written = sorted(
            name for name in written_identifiers(node.body)
            if name in ctx.info.shared or name in ctx.shared_ptrs
        )
        w = CWriter()
        w._line(f"if (parade_single_begin(&__parade_single_{sid})) {{")
        w.level += 1
        w.write_stmt(_as_compound(body))
        for name in written:
            vi = ctx.table.lookup(name)
            ref = f"__p_{name}" if name in ctx.shared_ptrs else f"&{name}"
            size = f"sizeof({vi.type})" if vi else "sizeof(double)"
            w._line(f"parade_bcast({ref}, {size}, 0);")
        w._line(f"parade_single_end(&__parade_single_{sid});")
        w.level -= 1
        w._line("}")
        self._globals.append(f"static parade_single_t __parade_single_{sid};")
        if not node.clauses.nowait:
            w._line("/* barrier elided: bcast above synchronises (§5.2.1) */")
        return A.Raw(w.text().rstrip("\n"))


def translate(source: str, backend: str = "parade") -> str:
    """Translate OpenMP-C *source* for the given backend ('parade'/'sdsm')."""
    unit = parse(source)
    return {"parade": ParadeBackend, "sdsm": SdsmBackend}[backend]().translate_unit(unit)
