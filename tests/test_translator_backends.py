"""Backend tests: the §4 translation rules, including the structural
shapes of the paper's Figures 2 and 3."""

import pytest

from repro.translator import translate, parse, CWriter

CRITICAL_SRC = """
void reduce_x(void)
{
    double x;
    x = 0.0;
    #pragma omp parallel shared(x)
    {
        #pragma omp critical
        x = x + 1.0;
    }
}
"""

SINGLE_SRC = """
void init_x(void)
{
    double x;
    #pragma omp parallel shared(x)
    {
        #pragma omp single
        x = 3.0;
    }
}
"""


# ------------------------------------------------------------- Figure 2
def test_fig2_parade_critical_uses_pthread_plus_collective():
    out = translate(CRITICAL_SRC, "parade")
    assert "parade_pthread_lock" in out
    assert "parade_allreduce" in out
    assert "parade_pthread_unlock" in out
    # no inter-node SDSM lock on the hybrid path
    assert "parade_sdsm_lock" not in out
    assert "km_lock" not in out


def test_fig2_sdsm_critical_uses_distributed_lock():
    out = translate(CRITICAL_SRC, "sdsm")
    assert "km_lock" in out and "km_unlock" in out
    assert "allreduce" not in out
    assert "pthread" not in out


def test_fig2_delta_extracted_from_update():
    out = translate(CRITICAL_SRC, "parade")
    assert "__delta = 1.0" in out
    assert "(*__p_x) + __delta" in out


# ------------------------------------------------------------- Figure 3
def test_fig3_parade_single_uses_bcast_no_barrier():
    out = translate(SINGLE_SRC, "parade")
    assert "parade_single_begin" in out
    assert "parade_bcast" in out
    # the implicit barrier is elided (the bcast synchronises)
    assert "parade_barrier();" not in out


def test_fig3_sdsm_single_uses_lock_flag_barrier():
    out = translate(SINGLE_SRC, "sdsm")
    assert "km_lock" in out
    assert "__km_done_" in out
    assert "km_barrier();" in out
    assert "bcast" not in out


# ------------------------------------------------------------- other rules
def test_nonanalyzable_critical_falls_back_to_lock_in_parade():
    src = """
    double g(double v);
    void f(void)
    {
        double x;
        #pragma omp parallel shared(x)
        {
            #pragma omp critical
            x = x + g(x);
        }
    }
    """
    out = translate(src, "parade")
    assert "parade_sdsm_lock" in out
    assert "allreduce" not in out


def test_large_footprint_critical_falls_back():
    src = """
    void f(void)
    {
        double buf[100];
        #pragma omp parallel shared(buf)
        {
            #pragma omp critical
            buf[0] = buf[0] + 1.0;
        }
    }
    """
    out = translate(src, "parade")
    assert "parade_sdsm_lock" in out  # 800 B > 256 B threshold


def test_hybrid_threshold_boundary():
    """8 B + n·8 B shared: 256 B is at the threshold and takes the
    collective (G2 suggests atomic); 264 B falls back (G4)."""
    from repro.translator.guidelines import lint

    for n, hybrid in ((31, True), (32, False)):
        src = f"""
        void f(void)
        {{
            double x; double buf[{n}];
            #pragma omp parallel shared(x, buf)
            {{
                #pragma omp critical
                x = x + buf[0];
            }}
        }}
        """
        out = translate(src, "parade")
        assert ("parade_allreduce" in out) is hybrid
        assert ("parade_sdsm_lock" in out) is not hybrid
        rules = [d.rule for d in lint(src)]
        assert rules.count("G2" if hybrid else "G4") == 1
        assert ("G4" if hybrid else "G2") not in rules


def test_atomic_maps_to_collective():
    src = """
    void f(void)
    {
        double x;
        #pragma omp parallel shared(x)
        {
            #pragma omp atomic
            x += 2.5;
        }
    }
    """
    out = translate(src, "parade")
    assert "parade_allreduce" in out
    out2 = translate(src, "sdsm")
    assert "km_lock" in out2


def test_reduction_clause_parade_elides_barrier():
    src = """
    void f(void)
    {
        int i; double s; double a[1000];
        s = 0.0;
        #pragma omp parallel shared(a, s) private(i)
        {
            #pragma omp for reduction(+: s)
            for (i = 0; i < 1000; i++) s = s + a[i];
        }
    }
    """
    out = translate(src, "parade")
    assert "__red_s = (__red_s + a[i])" in out
    assert "parade_allreduce(&__red_s" in out
    assert "barrier elided" in out
    out2 = translate(src, "sdsm")
    assert "km_lock" in out2
    assert "km_barrier();" in out2


def test_for_uses_static_chunking_both_backends():
    src = """
    void f(void)
    {
        int i; double a[100];
        #pragma omp parallel shared(a) private(i)
        {
            #pragma omp for
            for (i = 0; i < 100; i++) a[i] = 0.0;
        }
    }
    """
    for be, api in (("parade", "parade_loop_static"), ("sdsm", "km_loop_static")):
        out = translate(src, be)
        assert f"{api}(0, 100, &__lb, &__ub);" in out
        assert "for (i = __lb; i < __ub; i++)" in out


def test_for_nowait_skips_barrier():
    src = """
    void f(void)
    {
        int i; double a[100];
        #pragma omp parallel shared(a) private(i)
        {
            #pragma omp for nowait
            for (i = 0; i < 100; i++) a[i] = 0.0;
        }
    }
    """
    out = translate(src, "sdsm")
    segment = out.split("km_loop_static")[1]
    assert "km_barrier();" not in segment.split("}")[2]


def test_master_becomes_thread_zero_guard():
    src = """
    void f(void)
    {
        double x;
        #pragma omp parallel shared(x)
        {
            #pragma omp master
            x = 1.0;
        }
    }
    """
    out = translate(src, "parade")
    assert "parade_thread_id() == 0" in out


def test_barrier_directive_lowered():
    src = """
    void f(void)
    {
        #pragma omp parallel
        {
            #pragma omp barrier
        }
    }
    """
    assert "parade_barrier();" in translate(src, "parade")
    assert "km_barrier();" in translate(src, "sdsm")


def test_region_outlining_packs_shared_vars():
    out = translate(CRITICAL_SRC, "parade")
    assert "struct __parade_args_1" in out
    assert "__args_1.x = &x;" in out
    assert "parade_parallel(" in out
    assert "__parade_region_1" in out


def test_firstprivate_initialised_from_shared():
    src = """
    void f(void)
    {
        double c; double x;
        #pragma omp parallel shared(x) firstprivate(c)
        {
            x = x + c;
        }
    }
    """
    out = translate(src, "parade")
    assert "double c = *__p_c;" in out


def test_private_vars_declared_uninitialised():
    src = """
    void f(void)
    {
        int i; double x;
        #pragma omp parallel shared(x) private(i)
        { i = 0; x = i; }
    }
    """
    out = translate(src, "parade")
    assert "int i;" in out


def test_arrays_passed_as_pointers_indexing_unchanged():
    src = """
    void f(void)
    {
        int i; double a[64];
        #pragma omp parallel shared(a) private(i)
        {
            #pragma omp for
            for (i = 0; i < 64; i++) a[i] = 1.0;
        }
    }
    """
    out = translate(src, "parade")
    assert "double *a = __args->a;" in out
    assert "a[i] = 1.0" in out


def test_translate_preserves_serial_code():
    src = """
    int main(void)
    {
        int k;
        k = 3;
        return k;
    }
    """
    out = translate(src, "parade")
    assert "k = 3;" in out
    assert "return k;" in out


def test_num_threads_clause_forwarded():
    src = """
    void f(void)
    {
        double x;
        #pragma omp parallel shared(x) num_threads(4)
        { x = 1.0; }
    }
    """
    out = translate(src, "parade")
    assert "&__args_1, 4);" in out


def test_unknown_backend_rejected():
    with pytest.raises(KeyError):
        translate("int main(void){ return 0; }", "llvm")


def test_roundtrip_identity_of_plain_c():
    """CWriter(parse(src)) reparses to an equivalent tree (smoke check)."""
    src = """
    double f(double v)
    {
        int i;
        double acc;
        acc = 0.0;
        for (i = 0; i < 10; i++) {
            acc = acc + (v * i);
        }
        return acc;
    }
    """
    unit = parse(src)
    text = CWriter().write_unit(unit)
    reparsed = parse(text)
    text2 = CWriter().write_unit(reparsed)
    assert text == text2  # fixpoint after one round
