"""Tests for the O1 locality diagnostic, autotuning, and the dynamic
schedule codegen — the three §8 future-work items implemented here."""

import pytest

from repro.translator import translate
from repro.translator.guidelines import lint
from repro.bench.autotune import find_best_config
from repro.bench.figures import registered_programs
from repro.fleet import make_entry


# ------------------------------------------------------------- O1
def test_o1_partitioned_array_reported():
    src = """
    void f(void) {
        int i; double a[1000]; double b[1000];
        #pragma omp parallel shared(a, b) private(i)
        {
            #pragma omp for
            for (i = 0; i < 1000; i++) {
                a[i] = b[i] * 2.0;
            }
        }
    }
    """
    o1 = [d for d in lint(src) if d.rule == "O1"]
    names = {d.message.split("'")[1] for d in o1}
    assert names == {"a", "b"}


def test_o1_not_reported_for_neighbour_access():
    src = """
    void f(void) {
        int i; double a[1000]; double b[1000];
        #pragma omp parallel shared(a, b) private(i)
        {
            #pragma omp for
            for (i = 1; i < 999; i++) {
                a[i] = b[i - 1] + b[i + 1];
            }
        }
    }
    """
    o1 = [d for d in lint(src) if d.rule == "O1"]
    names = {d.message.split("'")[1] for d in o1}
    assert "b" not in names  # halo access: NOT partitioned
    assert "a" in names


# ------------------------------------------------------------- dynamic codegen
def test_schedule_dynamic_emits_dispenser_loop():
    src = """
    void f(void) {
        int i; double a[100];
        #pragma omp parallel shared(a) private(i)
        {
            #pragma omp for schedule(dynamic, 4)
            for (i = 0; i < 100; i++) a[i] = i;
        }
    }
    """
    out = translate(src, "parade")
    assert "parade_dynloop_init" in out
    assert "PARADE_SCHED_DYNAMIC" in out
    assert "parade_loop_static" not in out


def test_schedule_guided_emits_guided_mode():
    src = """
    void f(void) {
        int i; double a[100];
        #pragma omp parallel shared(a) private(i)
        {
            #pragma omp for schedule(guided)
            for (i = 0; i < 100; i++) a[i] = i;
        }
    }
    """
    assert "PARADE_SCHED_GUIDED" in translate(src, "parade")


def test_schedule_dynamic_sdsm_uses_lock_counter():
    src = """
    void f(void) {
        int i; double a[100];
        #pragma omp parallel shared(a) private(i)
        {
            #pragma omp for schedule(dynamic, 4)
            for (i = 0; i < 100; i++) a[i] = i;
        }
    }
    """
    out = translate(src, "sdsm")
    assert "__km_loop_next_" in out
    assert "km_lock(" in out


def test_schedule_static_chunk_still_static():
    src = """
    void f(void) {
        int i; double a[100];
        #pragma omp parallel shared(a) private(i)
        {
            #pragma omp for schedule(static, 8)
            for (i = 0; i < 100; i++) a[i] = i;
        }
    }
    """
    out = translate(src, "parade")
    assert "parade_loop_static" in out
    assert "parade_dynloop_init" not in out


# ------------------------------------------------------------- autotune
# in process (PARADE_JOBS=1): a spawned worker pool would cost about a
# second per test
def test_autotune_finds_sensible_config_for_ep(monkeypatch):
    monkeypatch.setenv("PARADE_JOBS", "1")
    result = find_best_config(registered_programs()["ep"], nodes=(1, 2, 4))
    # EP scales: best point uses the most parallelism swept
    assert result.best.n_nodes == 4
    assert result.best.exec_config.threads_per_node == 2
    assert len(result.points) == 9
    assert "best" in result.table()


def test_autotune_prefers_fewer_nodes_for_tiny_comm_bound_work(monkeypatch):
    monkeypatch.setenv("PARADE_JOBS", "1")
    # almost no compute, lots of synchronisation: a critical costs
    # ~0.3 us on one node and ~50 us from two nodes up
    entry = make_entry(("repro.bench.microbench", "critical"), {"iters": 5},
                       pool_bytes=1 << 20, note="critical x5")
    result = find_best_config(entry, nodes=(1, 4))
    assert result.best.n_nodes == 1  # "more processors do not always help"
