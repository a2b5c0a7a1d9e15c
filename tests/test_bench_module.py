"""Tests for the bench harness utilities (fast, scaled-down parameters).

The sweeps run in process (``PARADE_JOBS=1``): a spawned worker pool
would cost about a second per test."""

import os

import pytest

from repro.bench import (
    Series,
    FigureData,
    render_table,
    write_csv,
    fig8_cg,
    fig9_ep,
    atomic_update_comparison,
)
from repro.bench.microbench import sweep_directive


@pytest.fixture(autouse=True)
def _in_process(monkeypatch):
    monkeypatch.setenv("PARADE_JOBS", "1")


def _sample_fd():
    return FigureData(
        figure="figX",
        title="demo",
        xlabel="nodes",
        ylabel="ms",
        series=[
            Series("a", [1, 2, 4], [10.0, 5.0, 2.5]),
            Series("b", [1, 2, 4], [20.0, 10.0, 5.0]),
        ],
    )


def test_render_table_contains_all_points():
    text = render_table(_sample_fd())
    assert "figX" in text and "demo" in text
    for token in ("10.000", "5.000", "2.500", "20.000"):
        assert token in text
    assert text.index("a") < text.index("b")


def test_by_label_lookup():
    fd = _sample_fd()
    assert fd.by_label("b").y == [20.0, 10.0, 5.0]
    with pytest.raises(KeyError):
        fd.by_label("missing")


def test_write_csv_roundtrip(tmp_path):
    path = os.path.join(tmp_path, "out.csv")
    write_csv(_sample_fd(), path)
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "nodes,a,b"
    assert lines[1] == "1,10.0,20.0"
    assert len(lines) == 4


def test_measure_critical_returns_positive_overhead():
    [t] = sweep_directive("critical", systems=["parade"], nodes=[2], iters=10)["parade"]
    assert 0 < t < 1e-2


def test_measure_single_kdsm_more_expensive():
    data = sweep_directive("single", nodes=[2], iters=10)
    assert data["kdsm"][0] > data["parade"][0]


def test_unknown_system_rejected():
    with pytest.raises(ValueError):
        sweep_directive("critical", systems=["treadmarks"], nodes=[2])


def test_sweep_directive_shape():
    data = sweep_directive("critical", systems=["parade"], nodes=[1, 2], iters=5)
    assert set(data) == {"parade"}
    assert len(data["parade"]) == 2


def test_fig9_small_smoke():
    fd = fig9_ep(klass="T", nodes=(1, 2))
    assert len(fd.series) == 3
    for s in fd.series:
        assert len(s.y) == 2
        assert s.y[1] < s.y[0]  # EP scales even at 2 nodes


def test_failing_point_fails_the_figure():
    # cg.CLASSES has no class "Z": every point's factory raises
    with pytest.raises(RuntimeError, match=r"cg failed at 1 nodes.*KeyError: 'Z'"):
        fig8_cg(klass="Z", nodes=(1,))


def test_atomic_update_figure_has_all_strategies():
    from repro.vm import OS_PROFILES, STRATEGY_NAMES

    fd = atomic_update_comparison(n_updates=20)
    assert [s.label for s in fd.series] == list(OS_PROFILES)
    for s in fd.series:
        assert len(s.y) == len(STRATEGY_NAMES)
        assert all(y > 0 for y in s.y)
    # an unknown profile is named with the choices, as DsmConfig does
    with pytest.raises(ValueError, match="linux-2.4.*bogus"):
        atomic_update_comparison(n_updates=1, os_profiles=("linux-2.4", "bogus"))
