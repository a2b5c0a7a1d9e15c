"""The columnar observer stores against the stores they replaced.

The trace ring keeps a row's arguments in a typed numeric column and an
object column under an interned schema; the profiler's interval stream
keeps tid and phase as codes, one table per stream; the metrics sampler
keeps one time column per source.  Each must read back exactly what the
tuple-per-row ring (``conftest.ReferenceRing``), the string-column stream
(``conftest.ReferenceIntervals``) and a time column per series read back,
over fact streams that mix every argument type a site may state, rings
small enough to evict and sources whose keys come and go.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.metrics import Metrics
from repro.profile import compute_critical_path
from repro.profile.profiler import Intervals
from repro.trace import TraceRecorder
from repro.util.codes import CodedColumn

from conftest import ReferenceIntervals, ReferenceRing

_KINDS = [("net", "msg-send"), ("dsm.page", "fault"), ("counter", "census"), ("mpi", "match")]
_KEYS = ["page", "nbytes", "tag", "write"]

_VALUES = st.one_of(
    st.integers(-(1 << 60), 1 << 60),
    st.sampled_from([1 << 53, -(1 << 53), (1 << 53) + 1, 1 << 60, 10 ** 400, 0, -1]),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), -0.0, float("inf")]),
    st.none(),
    st.text(max_size=4),
    st.tuples(st.integers(0, 9), st.text(max_size=2)),
)

_FACT = st.tuples(
    st.sampled_from(["instant", "span", "counter", "drain"]),
    st.sampled_from(_KINDS),
    st.dictionaries(st.sampled_from(_KEYS), _VALUES, max_size=4),
    st.integers(-1, 3),                                   # node
    st.sampled_from([None, "wire", "omp[0.1]r2"]),        # tid
    st.floats(0.0, 1e-3),                                 # clock advance
    st.booleans(),                                        # a process is running
)


def _canonical(events):
    """Events as comparable tuples: every argument with its exact type
    (and a NaN as the very object stated)."""
    return [
        (ev.ts, repr(ev.dur), ev.cat, ev.name, ev.node, ev.tid, ev.ph,
         None if ev.args is None
         else [(k, type(v), repr(v), id(v) if v != v else None)
               for k, v in ev.args.items()])
        for ev in events
    ]


def _state(ring):
    return (_canonical(ring.events), ring.counts_by_category(), ring.n_dropped, len(ring))


@seed(20261017)
@settings(max_examples=150, deadline=None, database=None)
@given(facts=st.lists(_FACT, max_size=80), capacity=st.integers(1, 64))
def test_ring_reads_back_what_the_tuple_ring_reads_back(facts, capacity):
    sim = SimpleNamespace(now=0.0, active_process=None, probe=None)
    ring = TraceRecorder(sim, capacity=capacity, categories={cat for cat, _ in _KINDS})
    ref = ReferenceRing(sim, capacity)
    proc = SimpleNamespace(label="comm[1]")
    for op, (cat, name), args, node, tid, dt, running in facts:
        sim.active_process = proc if running else None
        t0 = sim.now
        sim.now += dt
        for r in (sim.probe, ref):
            if op == "drain":
                assert _canonical(ring.drain()) == _canonical(ref.drain())
                break
            if op == "instant":
                r.instant(cat, name, node=node, tid=tid, **args)
            elif op == "span":
                r.span(cat, name, t0, node=node, tid=tid, **args)
            else:
                r.counter(cat, name, node=node, **args)
        assert _state(ring) == _state(ref)
    assert _canonical(ring.drain()) == _canonical(ref.drain())
    assert _state(ring) == _state(ref)


# few distinct times, so intervals tie on (t1, t0) and the sweep's
# tid / phase tie rule decides
_INTERVAL = st.tuples(
    st.sampled_from([0.0, 0.25, 0.5, 0.75]), st.sampled_from([0.0, 0.25, 0.5]),
    st.sampled_from(["omp[0.0]r1", "omp[1.0]r1", "comm[0]", "net"]),
    st.sampled_from(["compute", "flush", "idle", "net-flight", "cpu-wait"]),
    st.booleans(),
)


def _both(rows, table_order):
    """*rows* in a coded stream whose tables were seeded in *table_order*,
    and in the reference stream."""
    iv, ref = Intervals(), ReferenceIntervals()
    for tid, phase in table_order:
        iv.tid.code(tid)
        iv.phase.code(phase)
    for t0, dt, tid, phase, active in rows:
        iv.append(t0, t0 + dt, tid, phase, active)
        ref.append(t0, t0 + dt, tid, phase, active)
    return iv, ref


@seed(20261017)
@settings(max_examples=100, deadline=None, database=None)
@given(a=st.lists(_INTERVAL, max_size=40), b=st.lists(_INTERVAL, max_size=40),
       shuffle=st.randoms(use_true_random=False))
def test_interval_sums_remap_the_second_table(a, b, shuffle):
    # each stream's table starts in its own order, so codes differ
    pairs_a = [(tid, ph) for _, _, tid, ph, _ in a]
    pairs_b = [(tid, ph) for _, _, tid, ph, _ in b]
    shuffle.shuffle(pairs_b)
    iv_a, ref_a = _both(a, pairs_a[::-1])
    iv_b, ref_b = _both(b, pairs_b)
    total = iv_a + iv_b
    assert list(total) == list(ref_a + ref_b)
    assert list(iv_a) == list(ref_a) and list(iv_b) == list(ref_b)
    # the critical path ranks codes by their strings: any table order
    # gives the same path
    plain, _ = _both(a + b, [])
    assert compute_critical_path(total).as_dict() == compute_critical_path(plain).as_dict()


@pytest.mark.parametrize("distinct", ["tid", "kind"])
def test_ring_widens_its_codes_past_65536(distinct):
    # 70 000 distinct tids or kinds through a ring of 100 rows: the codes
    # go from two bytes to four, every live record re-packed
    sim = SimpleNamespace(now=0.0, active_process=None, probe=None)
    ring = TraceRecorder(sim, capacity=100)
    ref = ReferenceRing(sim, 100)
    for i in range(70_000):
        sim.now = float(i)
        for r in (sim.probe, ref):
            if distinct == "tid":
                r.instant("net", "msg", node=i % 4, tid=f"t{i}", seq=i, tag="x")
            else:
                r.instant("net", f"msg{i}", node=i % 4, seq=i, tag="x")
    assert _state(ring) == _state(ref)


def test_coded_column_widens_past_65536_values():
    col = CodedColumn()
    values = [f"v{i}" for i in range(70_000)]
    for v in values:
        col.append(v)
    assert col.codes.typecode == "I"
    assert list(col) == values
    both = col + col
    assert list(both) == values + values and both[len(values) + 5] == "v5"


@seed(20261017)
@settings(max_examples=100, deadline=None, database=None)
@given(snapshots=st.lists(st.tuples(
           st.dictionaries(st.sampled_from("abc"), st.integers(-9, 9)),
           st.dictionaries(st.sampled_from("ab"), st.floats(-1.0, 1.0))),
           max_size=30),
       max_samples=st.integers(1, 8))
def test_sources_share_a_clock_and_read_like_a_clock_per_series(snapshots, max_samples):
    # two sources whose keys come and go between samples; the reference
    # keeps (times, values) per series, the way the sampler used to
    sim = SimpleNamespace(now=0.0, probe=None)
    mx = Metrics(sim, attach=False, max_samples=max_samples)
    mx.sources.clear()  # not the built-in net source
    now = {}
    mx.add_source("x", lambda: now["x"])
    mx.add_source("y", lambda: now["y"])
    ref, dropped = {}, 0
    for t, (x, y) in enumerate(snapshots):
        now["x"], now["y"] = x, y
        mx.sample(float(t), queue_depth=t % 3)
        for name, value in [("sim/queue_depth", t % 3),
                            *((f"x/{k}", v) for k, v in x.items()),
                            *((f"y/{k}", v) for k, v in y.items())]:
            times, values = ref.setdefault(name, ([], []))
            if len(times) >= max_samples:
                dropped += 1
                continue
            times.append(float(t))
            values.append(float(value))
    assert list(mx.series) == list(ref)
    assert {k: (list(t), list(v)) for k, (t, v) in mx.series.items()} == ref
    assert mx.n_dropped == dropped
