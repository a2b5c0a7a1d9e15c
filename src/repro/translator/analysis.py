"""Static analyses driving the hybrid translation (§4.2, §5.2.1, §7).

The translator switches a synchronisation directive to message passing
when the guarded block is **lexically analyzable** (no function calls — a
call could touch arbitrary shared state) and the total size of the shared
data it touches is **at or below the hybrid threshold**
(:data:`repro.runtime.HYBRID_THRESHOLD_BYTES`, 256 bytes on the paper's
cluster): :func:`fallback_reason` asks :func:`repro.runtime.hybrid_row`,
the one classifier the runtime's allocator asks too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.runtime import hybrid_row
from repro.translator import c_ast as A

#: sizeof table for the paper's 32-bit Linux/x86 target
_SIZEOF: Dict[str, int] = {
    "void": 1,
    "char": 1,
    "signed char": 1,
    "unsigned char": 1,
    "short": 2,
    "short int": 2,
    "unsigned short": 2,
    "int": 4,
    "signed": 4,
    "signed int": 4,
    "unsigned": 4,
    "unsigned int": 4,
    "long": 4,
    "long int": 4,
    "unsigned long": 4,
    "float": 4,
    "double": 8,
    "long double": 12,
    "long long": 8,
    "unsigned long long": 8,
}

#: OpenMP 1.0 reduction operators -> identity / runtime op name
REDUCTION_OPS = {
    "+": "PARADE_SUM",
    "*": "PARADE_PROD",
    "-": "PARADE_SUM",   # OpenMP: '-' reduces with + on negated updates
    "&": "PARADE_BAND",
    "|": "PARADE_BOR",
    "^": "PARADE_BXOR",
    "&&": "PARADE_LAND",
    "||": "PARADE_LOR",
}


def sizeof_type(ts: A.TypeSpec) -> int:
    """Size of a scalar of this type (pointers are 4 on the target)."""
    if ts.pointers > 0:
        return 4
    base = ts.base
    if base.startswith(("struct", "union", "enum")):
        return 4  # unknown aggregate: conservative word
    return _SIZEOF.get(base, 4)


@dataclass
class VarInfo:
    name: str
    type: A.TypeSpec
    array_elems: Optional[int] = None  # None = scalar

    @property
    def nbytes(self) -> int:
        n = sizeof_type(self.type)
        return n * (self.array_elems or 1)


class SymbolTable:
    """Flat per-function symbol table (the subset has no shadowing needs
    beyond block-local decls, which we register as they appear)."""

    def __init__(self) -> None:
        self.vars: Dict[str, VarInfo] = {}

    def add_decl(self, decl: A.Decl) -> None:
        for d in decl.declarators:
            elems: Optional[int] = None
            if d.array_dims:
                elems = 1
                for dim in d.array_dims:
                    if isinstance(dim, A.Num):
                        elems *= int(dim.value, 0)
                    else:
                        elems = 1 << 20  # unknown dim: force "large"
            ts = A.TypeSpec(decl.type.base, decl.type.pointers + d.pointers, decl.type.qualifiers)
            self.vars[d.name] = VarInfo(d.name, ts, elems)

    def add_param(self, p: A.Param) -> None:
        if p.name:
            elems = 1 << 20 if p.array or p.type.pointers else None
            self.vars[p.name] = VarInfo(p.name, p.type, elems)

    def lookup(self, name: str) -> Optional[VarInfo]:
        return self.vars.get(name)


def build_symbols(fn: A.FunctionDef) -> SymbolTable:
    table = SymbolTable()
    for p in fn.params:
        table.add_param(p)
    for node in fn.body.walk():
        if isinstance(node, A.Decl):
            table.add_decl(node)
    return table


# ----------------------------------------------------------------------
# lexical analyzability + footprint
# ----------------------------------------------------------------------
def body_is_lexically_analyzable(body: A.Node) -> bool:
    """True iff the block contains no function calls (§4.2: "it is highly
    recommended to write a lexically analyzable code block")."""
    return not any(isinstance(n, A.Call) for n in body.walk())


def identifiers_read_or_written(body: A.Node) -> Set[str]:
    return {n.name for n in body.walk() if isinstance(n, A.Ident)}


def written_identifiers(body: A.Node) -> Set[str]:
    """Names assigned (or ++/--) anywhere in the block."""
    out: Set[str] = set()
    for n in body.walk():
        if isinstance(n, A.Assign):
            out |= _target_names(n.target)
        elif isinstance(n, A.UnOp) and n.op in ("++", "--"):
            out |= _target_names(n.operand)
    return out


def _target_names(expr: A.Expr) -> Set[str]:
    if isinstance(expr, A.Ident):
        return {expr.name}
    if isinstance(expr, A.Index):
        return _target_names(expr.base)
    if isinstance(expr, A.Member):
        return _target_names(expr.base)
    if isinstance(expr, A.UnOp) and expr.op == "*":
        return _target_names(expr.operand)
    return set()


def shared_footprint_bytes(
    body: A.Node, table: SymbolTable, shared_names: Set[str]
) -> int:
    """Total size of the *shared* variables the block touches.

    Unknown identifiers are treated as shared scalars of word size
    (conservative in count, optimistic in size — matching what a
    declaration-driven translator can actually prove)."""
    total = 0
    for name in identifiers_read_or_written(body):
        if name not in shared_names:
            continue
        info = table.lookup(name)
        total += info.nbytes if info else 4
    return total


# ----------------------------------------------------------------------
# update-statement pattern (critical/atomic rewrite)
# ----------------------------------------------------------------------
@dataclass
class UpdatePattern:
    """``x = x op expr`` / ``x op= expr`` / ``x++`` recognised in a block."""

    var: str
    op: str          # '+', '*', ...
    delta: Optional[A.Expr]  # None means the literal 1 (++/--)


def find_update_statement(stmt: A.Node) -> Optional[UpdatePattern]:
    """Recognise the reduction-style update the translator can map to a
    collective.  Accepts a bare expression statement or a one-statement
    compound."""
    if isinstance(stmt, A.Compound):
        real = [s for s in stmt.items if not (isinstance(s, A.ExprStmt) and s.expr is None)]
        if len(real) != 1:
            return None
        stmt = real[0]
    if not isinstance(stmt, A.ExprStmt) or stmt.expr is None:
        return None
    e = stmt.expr
    if isinstance(e, A.UnOp) and e.op in ("++", "--") and isinstance(e.operand, A.Ident):
        return UpdatePattern(e.operand.name, "+" if e.op == "++" else "-", None)
    if isinstance(e, A.Assign) and isinstance(e.target, A.Ident):
        name = e.target.name
        if e.op != "=":
            op = e.op[:-1]  # '+=' -> '+'
            if op in REDUCTION_OPS:
                return UpdatePattern(name, op, e.value)
            return None
        # x = x op expr   or   x = expr op x
        v = e.value
        if isinstance(v, A.BinOp) and v.op in REDUCTION_OPS:
            if isinstance(v.left, A.Ident) and v.left.name == name:
                return UpdatePattern(name, v.op, v.right)
            if isinstance(v.right, A.Ident) and v.right.name == name and v.op in ("+", "*"):
                return UpdatePattern(name, v.op, v.left)
    return None


def fallback_reason(
    body: A.Node, table: SymbolTable, shared_names: Set[str], update: bool
) -> Optional[str]:
    """Why a critical/atomic (*update*: must be one update statement) or
    single *body* takes the conventional row: ``"call"``, ``"size"`` or
    ``"shape"``; None when :func:`hybrid_row` puts it on the hybrid row."""
    lexical = body_is_lexically_analyzable(body)
    shaped = not update or find_update_statement(body) is not None
    footprint = shared_footprint_bytes(body, table, shared_names)
    if hybrid_row(footprint, lexical and shaped):
        return None
    if not lexical:
        return "call"
    return "shape" if hybrid_row(footprint, True) else "size"


# ----------------------------------------------------------------------
# region-level analysis
# ----------------------------------------------------------------------
@dataclass
class RegionInfo:
    """Scoping decision for one parallel region."""

    shared: Set[str] = field(default_factory=set)
    private: Set[str] = field(default_factory=set)
    firstprivate: Set[str] = field(default_factory=set)
    lastprivate: Set[str] = field(default_factory=set)
    reductions: List[Tuple[str, List[str]]] = field(default_factory=list)

    def all_private(self) -> Set[str]:
        return self.private | self.firstprivate | self.lastprivate

    def guarded(self) -> Set[str]:
        """The names a directive's shared footprint counts."""
        return self.shared | {name for _op, names in self.reductions for name in names}


def analyze_region(region: A.OmpParallel, fn: A.FunctionDef) -> RegionInfo:
    """Resolve the scope of every variable used inside a parallel region.

    OpenMP 1.0 default is ``shared`` (§4.1 notes this is hostile to MP
    targets, hence the §7 guideline to annotate explicitly); clause
    annotations and block-local declarations override it."""
    table = build_symbols(fn)
    info = RegionInfo()
    cl = region.clauses
    info.private |= set(cl.private)
    info.firstprivate |= set(cl.firstprivate)
    info.lastprivate |= set(cl.lastprivate)
    info.reductions = list(cl.reductions)
    explicit = (
        set(cl.shared)
        | info.all_private()
        | set(cl.reduction_vars())
    )
    # variables declared inside the region are automatics (private)
    local = set()
    for node in region.body.walk():
        if isinstance(node, A.Decl):
            for d in node.declarators:
                local.add(d.name)
    # loop control variables of omp-for loops are private per the standard
    for node in region.body.walk():
        if isinstance(node, A.OmpFor):
            ivar = _loop_var(node.loop)
            if ivar:
                local.add(ivar)
    if isinstance(region.body, A.OmpFor):
        ivar = _loop_var(region.body.loop)
        if ivar:
            local.add(ivar)

    used = identifiers_read_or_written(region.body)
    for name in used:
        if name in local:
            continue
        if name in explicit:
            continue
        if table.lookup(name) is None:
            continue  # function names, enum constants...
        if cl.default == "none":
            raise ValueError(
                f"default(none): variable {name!r} used but not scoped"
            )
        info.shared.add(name)
    info.shared |= set(cl.shared)
    return info


def _loop_var(loop: A.For) -> Optional[str]:
    init = loop.init
    if isinstance(init, A.Decl) and init.declarators:
        return init.declarators[0].name
    if isinstance(init, A.ExprStmt) and isinstance(init.expr, A.Assign):
        t = init.expr.target
        if isinstance(t, A.Ident):
            return t.name
    return None


@dataclass
class LoopBounds:
    """Extracted ``for`` bounds for the static scheduler (§4.3)."""

    var: str
    lo: A.Expr
    hi: A.Expr
    #: True for '<=' (inclusive upper bound)
    inclusive: bool
    step: Optional[A.Expr]
    increasing: bool = True


def extract_loop_bounds(loop: A.For) -> Optional[LoopBounds]:
    """Recognise the canonical OpenMP loop form
    ``for (i = lo; i < hi; i++/i += step)``."""
    var = _loop_var(loop)
    if var is None:
        return None
    # lower bound
    if isinstance(loop.init, A.Decl):
        d = loop.init.declarators[0]
        lo = d.init
    elif isinstance(loop.init, A.ExprStmt) and isinstance(loop.init.expr, A.Assign):
        lo = loop.init.expr.value
    else:
        return None
    if lo is None:
        return None
    # condition
    cond = loop.cond
    if not isinstance(cond, A.BinOp) or not isinstance(cond.left, A.Ident) or cond.left.name != var:
        return None
    if cond.op not in ("<", "<=", ">", ">="):
        return None
    increasing = cond.op in ("<", "<=")
    inclusive = cond.op in ("<=", ">=")
    hi = cond.right
    # step
    step = None
    st = loop.step
    if isinstance(st, A.UnOp) and st.op in ("++", "--"):
        pass
    elif isinstance(st, A.Assign) and st.op in ("+=", "-="):
        step = st.value
    else:
        return None
    return LoopBounds(var, lo, hi, inclusive, step, increasing)
