"""Lexer + parser + analysis tests for the OpenMP-C translator frontend."""

import pytest

from repro.runtime import HYBRID_THRESHOLD_BYTES
from repro.translator import (
    tokenize,
    parse,
    LexError,
    ParseError,
    c_ast as A,
    body_is_lexically_analyzable,
    shared_footprint_bytes,
    find_update_statement,
    sizeof_type,
)
from repro.translator.tokens import TokenType
from repro.translator.analysis import (
    analyze_region,
    build_symbols,
    extract_loop_bounds,
)


# ------------------------------------------------------------- lexer
def test_tokenize_basic_c():
    toks = tokenize("int x = 42;")
    kinds = [(t.type, t.value) for t in toks[:-1]]
    assert kinds == [
        (TokenType.KEYWORD, "int"),
        (TokenType.IDENT, "x"),
        (TokenType.PUNCT, "="),
        (TokenType.NUMBER, "42"),
        (TokenType.PUNCT, ";"),
    ]


def test_tokenize_multichar_punctuators():
    toks = tokenize("a <<= b >> c != d->e")
    values = [t.value for t in toks if t.type == TokenType.PUNCT]
    assert values == ["<<=", ">>", "!=", "->"]


def test_tokenize_pragma_omp_single_token():
    toks = tokenize("#pragma omp parallel for shared(a)\nint x;")
    assert toks[0].type == TokenType.PRAGMA_OMP
    assert toks[0].value == "parallel for shared(a)"


def test_tokenize_pragma_continuation_lines():
    src = "#pragma omp parallel \\\n    shared(a, b)\nint x;"
    toks = tokenize(src)
    assert toks[0].type == TokenType.PRAGMA_OMP
    assert "shared(a, b)" in toks[0].value


def test_tokenize_skips_other_preprocessor_lines():
    toks = tokenize("#include <stdio.h>\n#define N 10\nint x;")
    assert toks[0].type == TokenType.KEYWORD  # 'int'


def test_tokenize_comments_stripped():
    toks = tokenize("int /* block */ x; // line\nint y;")
    names = [t.value for t in toks if t.type == TokenType.IDENT]
    assert names == ["x", "y"]


def test_tokenize_numbers_and_strings():
    toks = tokenize('double d = 1.5e-3; char *s = "hi\\"there";')
    numbers = [t.value for t in toks if t.type == TokenType.NUMBER]
    strings = [t.value for t in toks if t.type == TokenType.STRING]
    assert numbers == ["1.5e-3"]
    assert strings == ['"hi\\"there"']


def test_unterminated_comment_raises():
    with pytest.raises(LexError):
        tokenize("int x; /* never closed")


def test_unterminated_string_raises():
    with pytest.raises(LexError):
        tokenize('char *s = "oops\nint x;')


# ------------------------------------------------------------- parser
def test_parse_function_and_decls():
    unit = parse("int add(int a, int b) { int c; c = a + b; return c; }")
    fn = unit.items[0]
    assert isinstance(fn, A.FunctionDef)
    assert fn.name == "add"
    assert [p.name for p in fn.params] == ["a", "b"]


def test_parse_prototype():
    unit = parse("double work(double t);")
    proto = unit.items[0]
    assert isinstance(proto, A.FunctionDecl)
    assert proto.name == "work"


def test_parse_arrays_and_pointers():
    unit = parse("void f(void) { double a[10][20]; int *p; }")
    body = unit.items[0].body
    decls = [i for i in body.items if isinstance(i, A.Decl)]
    assert len(decls[0].declarators[0].array_dims) == 2
    assert decls[1].declarators[0].pointers == 1


def test_parse_control_flow():
    src = """
    void f(int n) {
        int i;
        for (i = 0; i < n; i++) { if (i % 2) continue; else break; }
        while (n > 0) n--;
        do { n++; } while (n < 10);
    }
    """
    unit = parse(src)
    kinds = [type(s).__name__ for s in unit.items[0].body.items]
    assert kinds == ["Decl", "For", "While", "DoWhile"]


def test_parse_expression_precedence():
    unit = parse("void f(void) { int x; x = 1 + 2 * 3; }")
    stmt = unit.items[0].body.items[1]
    assign = stmt.expr
    assert isinstance(assign.value, A.BinOp) and assign.value.op == "+"
    assert assign.value.right.op == "*"


def test_parse_ternary_and_call():
    unit = parse("void f(int a) { int x; x = a > 0 ? g(a, 1) : -a; }")
    val = unit.items[0].body.items[1].expr.value
    assert isinstance(val, A.Cond)
    assert isinstance(val.then, A.Call)


def test_parse_omp_parallel_block():
    src = """
    void f(void) {
        double x;
        #pragma omp parallel shared(x)
        { x = 1.0; }
    }
    """
    region = parse(src).items[0].body.items[1]
    assert isinstance(region, A.OmpParallel)
    assert region.clauses.shared == ["x"]


def test_parse_omp_parallel_for_combined():
    src = """
    void f(void) {
        int i; double s;
        #pragma omp parallel for reduction(+: s)
        for (i = 0; i < 10; i++) s = s + i;
    }
    """
    region = parse(src).items[0].body.items[2]
    assert isinstance(region, A.OmpParallel)
    assert region.for_loop
    assert region.clauses.reductions == [("+", ["s"])]


def test_parse_omp_critical_named():
    src = "void f(void){ double x; \n#pragma omp critical (mysec)\n { x = x + 1; } }"
    crit = parse(src).items[0].body.items[1]
    assert isinstance(crit, A.OmpCritical)
    assert crit.name == "mysec"


def test_parse_omp_atomic_requires_expression():
    src = "void f(void){ double x;\n#pragma omp atomic\n x += 1; }"
    atomic = parse(src).items[0].body.items[1]
    assert isinstance(atomic, A.OmpAtomic)
    bad = "void f(void){ double x;\n#pragma omp atomic\n { x += 1; x += 2; } }"
    with pytest.raises(ParseError):
        parse(bad)


def test_parse_omp_clauses_full_set():
    src = """
    void f(void) {
        int i, n; double a, b, c;
        #pragma omp parallel shared(a) private(b) firstprivate(c) num_threads(4) default(shared) if(n)
        { b = a; }
    }
    """
    region = parse(src).items[0].body.items[2]
    cl = region.clauses
    assert cl.shared == ["a"] and cl.private == ["b"]
    assert cl.firstprivate == ["c"] and cl.num_threads == "4"
    assert cl.default == "shared" and cl.if_expr == "n"


def test_parse_omp_schedule_clause():
    src = """
    void f(void) {
        int i;
        #pragma omp parallel
        {
        #pragma omp for schedule(static, 8) nowait
        for (i = 0; i < 10; i++) ;
        }
    }
    """
    region = parse(src).items[0].body.items[1]
    ompfor = region.body.items[0]
    assert ompfor.clauses.schedule == ("static", "8")
    assert ompfor.clauses.nowait


def test_parse_bad_clause_rejected():
    src = "void f(void){\n#pragma omp parallel frobnicate(x)\n { } }"
    with pytest.raises(ParseError):
        parse(src)


def test_parse_pragma_outside_function_rejected():
    with pytest.raises(ParseError):
        parse("#pragma omp barrier\nint x;")


def test_parse_omp_for_needs_loop():
    src = "void f(void){\n#pragma omp parallel\n{\n#pragma omp for\n ; } }"
    with pytest.raises(ParseError):
        parse(src)


# ------------------------------------------------------------- analysis
def test_sizeof_table():
    assert sizeof_type(A.TypeSpec("double")) == 8
    assert sizeof_type(A.TypeSpec("int")) == 4
    assert sizeof_type(A.TypeSpec("char")) == 1
    assert sizeof_type(A.TypeSpec("double", pointers=1)) == 4  # 32-bit target


def test_lexical_analyzability():
    unit = parse("void f(void){ double x;\n#pragma omp critical\n{ x = x + 1; } }")
    crit = unit.items[0].body.items[1]
    assert body_is_lexically_analyzable(crit.body)
    unit2 = parse("void f(void){ double x;\n#pragma omp critical\n{ x = x + g(x); } }")
    crit2 = unit2.items[0].body.items[1]
    assert not body_is_lexically_analyzable(crit2.body)


def test_shared_footprint_counts_arrays():
    src = """
    void f(void) {
        double x; double big[1000];
        #pragma omp parallel shared(x, big)
        { x = x + big[0]; }
    }
    """
    fn = parse(src).items[0]
    region = fn.body.items[2]
    table = build_symbols(fn)
    fp = shared_footprint_bytes(region.body, table, {"x", "big"})
    assert fp == 8 + 8000
    assert fp > HYBRID_THRESHOLD_BYTES


def test_update_statement_patterns():
    def pat_of(code):
        unit = parse(f"void f(void){{ double x, y; {code} }}")
        stmt = unit.items[0].body.items[1]
        return find_update_statement(stmt)

    assert pat_of("x = x + 1;").op == "+"
    assert pat_of("x = x * 2;").op == "*"
    assert pat_of("x = 3 + x;").op == "+"
    assert pat_of("x += y;").op == "+"
    assert pat_of("x++;").op == "+"
    assert pat_of("x = y + 1;") is None           # not self-referential
    assert pat_of("x = x / 2;") is None           # '/' not a reduction op
    assert pat_of("y = 0; ") is None


def test_analyze_region_default_shared():
    src = """
    void f(void) {
        double x; int i; double a[100];
        #pragma omp parallel private(i)
        { x = a[0]; }
    }
    """
    fn = parse(src).items[0]
    info = analyze_region(fn.body.items[3], fn)
    assert "x" in info.shared and "a" in info.shared
    assert "i" in info.private


def test_analyze_region_default_none_enforced():
    src = """
    void f(void) {
        double x;
        #pragma omp parallel default(none)
        { x = 1.0; }
    }
    """
    fn = parse(src).items[0]
    with pytest.raises(ValueError):
        analyze_region(fn.body.items[1], fn)


def test_analyze_region_loop_var_private_automatically():
    src = """
    void f(void) {
        int i; double s;
        #pragma omp parallel
        {
        #pragma omp for
        for (i = 0; i < 10; i++) s = s + i;
        }
    }
    """
    fn = parse(src).items[0]
    info = analyze_region(fn.body.items[2], fn)
    assert "i" not in info.shared
    assert "s" in info.shared


def test_extract_loop_bounds_forms():
    def bounds_of(loop_src):
        unit = parse(f"void f(int n){{ int i; {loop_src} }}")
        loop = unit.items[0].body.items[1]
        return extract_loop_bounds(loop)

    b = bounds_of("for (i = 0; i < n; i++) ;")
    assert b.var == "i" and not b.inclusive and b.increasing
    b2 = bounds_of("for (i = 1; i <= n; i += 2) ;")
    assert b2.inclusive
    assert bounds_of("for (i = 0; g(i); i++) ;") is None
