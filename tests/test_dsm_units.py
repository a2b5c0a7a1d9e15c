"""Unit + property tests for DSM building blocks: states, diffs, notices."""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsm import (
    PageState,
    is_valid_transition,
    make_twin,
    compute_diff,
    apply_diff,
    diff_nbytes,
    WriteNotice,
    NoticeLog,
)
from repro.dsm.states import VALID_TRANSITIONS, IllegalTransition
from repro.dsm.writenotice import merge_notices
from repro.dsm.diffs import RUN_HEADER_BYTES
from repro.sim.probe import Subscriber

from conftest import build_dsm, recount, reference_runs

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


# ------------------------------------------------------------- states
def test_figure5_transitions_present():
    # the arcs of Figure 5
    assert is_valid_transition(PageState.INVALID, PageState.TRANSIENT, "fault")
    assert is_valid_transition(PageState.TRANSIENT, PageState.BLOCKED, "concurrent-fault")
    assert is_valid_transition(PageState.TRANSIENT, PageState.READ_ONLY, "update-done")
    assert is_valid_transition(PageState.BLOCKED, PageState.READ_ONLY, "update-done")
    assert is_valid_transition(PageState.READ_ONLY, PageState.DIRTY, "write-fault")
    assert is_valid_transition(PageState.DIRTY, PageState.READ_ONLY, "flush")
    assert is_valid_transition(PageState.READ_ONLY, PageState.INVALID, "invalidate")


def test_forbidden_transitions_absent():
    # an INVALID page can never become valid without passing TRANSIENT
    assert not is_valid_transition(PageState.INVALID, PageState.READ_ONLY, "update-done")
    assert not is_valid_transition(PageState.INVALID, PageState.DIRTY, "write-fault")
    # a blocked page cannot be invalidated mid-update
    assert not is_valid_transition(PageState.BLOCKED, PageState.INVALID, "invalidate")
    assert not is_valid_transition(PageState.TRANSIENT, PageState.INVALID, "invalidate")
    # a dirty page is flushed before it is invalidated: dropping its twin
    # un-sent was the lost update of tests/test_lock_lost_update.py
    assert not is_valid_transition(PageState.DIRTY, PageState.INVALID, "invalidate")


def test_transition_table_only_uses_known_states():
    for src, dst, _reason in VALID_TRANSITIONS:
        assert isinstance(src, PageState) and isinstance(dst, PageState)


def test_state_idx_is_declaration_order_and_keys_the_legality_table():
    assert [st_.idx for st_ in PageState] == list(range(len(PageState)))
    for src in PageState:
        for dst in PageState:
            for reason in {r for _s, _d, r in VALID_TRANSITIONS} | {"", "bogus"}:
                assert is_valid_transition(src, dst, reason) == (
                    (src, dst, reason) in VALID_TRANSITIONS
                )


# ------------------------------------------------------------- census
class _PageStateFacts(Subscriber):
    """Collects the ``dsm.page/page-state`` facts of one simulator."""

    def __init__(self, sim):
        self.sim = sim
        self.facts = []
        self._handlers = {("dsm.page", "page-state"): self._on_fact}
        self.attach()

    def _on_fact(self, args, node, *_):
        self.facts.append((node, dict(args)))


def test_census_starts_as_the_initial_fill():
    _cluster, _cts, dsm = build_dsm(3)
    for dn in dsm.nodes:
        assert dn.census == recount(dn)
        assert sum(dn.census) == dn.n_pages
        full = PageState.READ_ONLY if dn.id == 0 else PageState.INVALID
        assert dn.census[full.idx] == dn.n_pages


def test_census_follows_mark_object_pages():
    _cluster, _cts, dsm = build_dsm(2)
    dsm.alloc(3 * dsm.page_size, name="obj", object_granularity=True)
    for dn in dsm.nodes:
        assert dn.census == recount(dn)
        assert sum(dn.census) == dn.n_pages
    # the master's pages were READ_ONLY already; node 1's three moved over
    assert dsm.node(1).census[PageState.READ_ONLY.idx] == 3
    assert dsm.node(1).census[PageState.INVALID.idx] == dsm.n_pages - 3


def test_illegal_transition_leaves_census_untouched_but_is_stated():
    cluster, _cts, dsm = build_dsm(2)
    facts = _PageStateFacts(cluster.sim)
    dn = dsm.node(1)
    before = list(dn.census)
    with pytest.raises(IllegalTransition):
        dn._set_state(0, PageState.DIRTY, "write-fault")  # page 0 is INVALID
    assert dn.state[0] is PageState.INVALID
    assert dn.census == before == recount(dn)
    assert facts.facts == [
        (1, {"page": 0, "src": "INVALID", "dst": "DIRTY", "reason": "write-fault"})
    ]
    # and a legal one moves exactly two slots
    dn._set_state(0, PageState.TRANSIENT, "fault")
    assert dn.census == recount(dn)
    assert dn.census[PageState.TRANSIENT.idx] == 1


_LIST_MUTATORS = {
    "append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse",
    "__setitem__", "__delitem__", "__iadd__", "__imul__",
}


def _attribute_writes(tree, names=("state", "census"), mutators=_LIST_MUTATORS):
    """Yield ``(lineno, enclosing function path, what)`` for every store
    into, deletion from, rebinding of, or mutating call on an attribute
    named in *names* (``ctx`` is Store/Del for every binding form:
    assignment, augmented assignment, unpacking, ``for`` / ``with``
    targets, ``del``)."""

    def is_table(node):
        return isinstance(node, ast.Attribute) and node.attr in names

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, scope + (child.name,))
                continue
            ctx = getattr(child, "ctx", None)
            written = isinstance(ctx, (ast.Store, ast.Del))
            if written and isinstance(child, ast.Subscript) and is_table(child.value):
                verb = "del" if isinstance(ctx, ast.Del) else "store into"
                yield child.lineno, scope, f"{verb} .{child.value.attr}[...]"
            elif written and is_table(child):
                yield child.lineno, scope, f"rebinds .{child.attr}"
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in mutators
                and is_table(child.func.value)
            ):
                yield child.lineno, scope, f".{child.func.value.attr}.{child.func.attr}()"
            yield from walk(child, scope)

    yield from walk(tree, ())


def test_page_table_has_exactly_one_writer():
    """Keep it single: every census reader trusts ``DsmNode.census``, so a
    store into a node's ``state`` list anywhere but ``_write_state`` would
    silently corrupt them all.  Allowed: the constructor creating the table
    and its count, and the writer moving both."""
    allowed = {
        ("dsm/node.py", ("DsmNodeBase", "__init__"), "rebinds .state"),
        ("dsm/node.py", ("DsmNodeBase", "__init__"), "rebinds .census"),
        # the creation count: every page starts in one state
        ("dsm/node.py", ("DsmNodeBase", "__init__"), "store into .census[...]"),
        ("dsm/node.py", ("DsmNodeBase", "_write_state"), "store into .state[...]"),
    }
    seen = set()
    offences = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for lineno, scope, what in _attribute_writes(ast.parse(path.read_text())):
            if rel == "apps/nas_random.py" and what == "rebinds .state":
                continue  # NasRandom's scalar LCG state, not a page table
            seen.add((rel, scope, what))
            if (rel, scope, what) not in allowed:
                offences.append(f"{rel}:{lineno}: {'.'.join(scope) or 'module'} {what}")
    assert not offences, "\n".join(offences)
    # the scan sees the writer at all (it would pass vacuously otherwise)
    assert ("dsm/node.py", ("DsmNodeBase", "_write_state"), "store into .state[...]") in seen


#: calls that remove an entry from a dict
_DICT_DROPS = {"pop", "popitem", "clear", "__delitem__"}

#: the functions that may remove a twin, and the table's creation
_TWIN_DROPPERS = {
    ("dsm/flush.py", ("FlushMixin", "_close_interval"), ".twins.pop()"),
    ("dsm/node.py", ("DsmNodeBase", "mark_object_pages"), ".twins.pop()"),
    ("dsm/node.py", ("DsmNodeBase", "__init__"), "rebinds .twins"),
}


def _twin_drops(sources):
    """``(rel, scope, what)`` of every removal of a ``twins`` entry in
    *sources* (relative path -> text); making a twin is not one."""
    return {
        (rel, scope, what)
        for rel, text in sources.items()
        for _lineno, scope, what in _attribute_writes(ast.parse(text), ("twins",), _DICT_DROPS)
        if not what.startswith("store into")
    }


def test_only_close_interval_and_allocation_drop_twins():
    """A twin is dropped only after its diff is shipped: ``_close_interval``
    (which keeps every twin that differs from its page) and
    ``mark_object_pages`` (at allocation, before any write) are the only
    functions that remove an entry from ``twins``, in whichever module of
    the node a new path lands.  A planted drop anywhere else is caught."""
    sources = {
        p.relative_to(SRC).as_posix(): p.read_text() for p in sorted(SRC.rglob("*.py"))
    }
    assert _twin_drops(sources) == _TWIN_DROPPERS
    planted = dict(sources)
    planted["dsm/flush.py"] = sources["dsm/flush.py"].replace(
        "        self.stats.invalidations += 1\n",
        "        self.stats.invalidations += 1\n        self.twins.pop(page)\n",
    )
    assert planted["dsm/flush.py"] != sources["dsm/flush.py"]
    assert _twin_drops(planted) - _TWIN_DROPPERS == {
        ("dsm/flush.py", ("FlushMixin", "_invalidate"), ".twins.pop()")
    }


# ------------------------------------------------------------- diffs
def _changed(diff):
    """Offsets a diff covers."""
    return np.flatnonzero(diff.mask).tolist()


def test_diff_empty_when_unchanged():
    page = (np.arange(4096) % 256).astype(np.uint8)
    twin = make_twin(page)
    diff = compute_diff(twin, page)
    assert not diff
    assert diff.nbytes == 0 and diff_nbytes(diff) == 0
    apply_diff(page, diff)  # a no-op on a page of any size
    assert np.array_equal(page, twin)


def test_diff_captures_single_run():
    page = np.zeros(4096, dtype=np.uint8)
    twin = make_twin(page)
    page[100:108] = 42
    diff = compute_diff(twin, page)
    assert diff
    assert _changed(diff) == list(range(100, 108))
    assert diff.vals.tobytes() == bytes([42] * 8)
    assert diff.nbytes == RUN_HEADER_BYTES + 8 == 16
    page[:] = 0  # the diff is a snapshot, not a view of the live page
    assert diff.vals.tobytes() == bytes([42] * 8)


def test_diff_splits_disjoint_runs():
    page = np.zeros(4096, dtype=np.uint8)
    twin = make_twin(page)
    page[0] = 1
    page[4095] = 2
    diff = compute_diff(twin, page)
    assert _changed(diff) == [0, 4095]
    assert diff.nbytes == 2 * RUN_HEADER_BYTES + 2  # two headers


def test_apply_diff_merges_into_home_copy():
    writer = np.zeros(4096, dtype=np.uint8)
    twin = make_twin(writer)
    writer[100:102] = 7
    home = np.zeros(4096, dtype=np.uint8)
    home[50] = 99  # home's own concurrent change at a different offset
    apply_diff(home, compute_diff(twin, writer))
    assert home[100] == 7 and home[101] == 7
    assert home[50] == 99  # untouched


def test_apply_diff_bounds_checked():
    page = np.zeros(16, dtype=np.uint8)
    diff = compute_diff(page, np.ones(16, dtype=np.uint8))
    for size in (8, 15, 17, 4096):
        with pytest.raises(ValueError):
            apply_diff(np.zeros(size, dtype=np.uint8), diff)


def test_diff_nbytes_counts_headers():
    page = np.zeros(4096, dtype=np.uint8)
    twin = make_twin(page)
    page[0:3] = (97, 98, 99)
    page[100:102] = (100, 101)
    diff = compute_diff(twin, page)
    assert diff.vals.tobytes() == b"abcde"
    assert diff_nbytes(diff) == 2 * RUN_HEADER_BYTES + 5


def test_diff_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        compute_diff(np.zeros(8, dtype=np.uint8), np.zeros(16, dtype=np.uint8))


@settings(max_examples=60, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(0, 4095), st.integers(0, 255)), min_size=0, max_size=50
    )
)
def test_diff_roundtrip_property(writes):
    """apply(twin, diff(twin, page)) == page for any write pattern."""
    rng = np.random.default_rng(0)
    original = rng.integers(0, 256, 4096, dtype=np.uint8)
    page = original.copy()
    twin = make_twin(page)
    for off, val in writes:
        page[off] = val
    diff = compute_diff(twin, page)
    reconstructed = original.copy()
    apply_diff(reconstructed, diff)
    assert np.array_equal(reconstructed, page)


@settings(max_examples=40, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(0, 4000), st.integers(1, 64)), min_size=1, max_size=20
    )
)
def test_diff_size_bounded_by_changes(writes):
    """A diff never ships more payload bytes than were changed."""
    page = np.zeros(4096, dtype=np.uint8)
    twin = make_twin(page)
    touched = set()
    for off, ln in writes:
        page[off : off + ln] = 200
        touched.update(range(off, min(off + ln, 4096)))
    diff = compute_diff(twin, page)
    assert len(diff.vals) == len({i for i in touched if page[i] != 0})


#: (offset, length, value) stores into a small page: short runs, runs that
#: touch, overwrite each other, restore the old value, or reach either end
_stores = st.lists(
    st.tuples(st.integers(0, 255), st.integers(1, 40), st.integers(0, 255)),
    min_size=0, max_size=12,
)


def _written(base, stores):
    page = base.copy()
    for off, ln, val in stores:
        page[off : off + ln] = val
    return page


@settings(max_examples=150, deadline=None)
@given(stores=_stores, seed=st.integers(0, 3))
def test_diff_prices_and_carries_the_run_list(stores, seed):
    """The mask form against the run-length list it replaced: the wire
    size is a header per run plus the bytes, the values are the runs end
    to end, the mask covers exactly the runs' offsets."""
    twin = np.random.default_rng(seed).integers(0, 4, 256, dtype=np.uint8)
    page = _written(twin, stores)
    runs = reference_runs(twin, page)
    diff = compute_diff(twin, page)
    assert diff.nbytes == RUN_HEADER_BYTES * len(runs) + sum(len(b) for _o, b in runs)
    assert bool(diff) == bool(runs)
    assert diff.vals.tobytes() == b"".join(b for _o, b in runs)
    assert _changed(diff) == [o + i for o, b in runs for i in range(len(b))]


@settings(max_examples=100, deadline=None)
@given(a=_stores, b=_stores, owner=st.lists(st.booleans(), min_size=256, max_size=256))
def test_disjoint_writers_diffs_commute(a, b, owner):
    """Two writers of disjoint bytes of one page (what a data-race-free
    program produces): their diffs merge at the home in either order."""
    owner = np.array(owner)
    base = np.random.default_rng(1).integers(0, 256, 256, dtype=np.uint8)
    page_a = np.where(owner, _written(base, a), base)
    page_b = np.where(owner, base, _written(base, b))
    da, db = compute_diff(base, page_a), compute_diff(base, page_b)
    ab, ba = base.copy(), base.copy()
    apply_diff(ab, da)
    apply_diff(ab, db)
    apply_diff(ba, db)
    apply_diff(ba, da)
    assert np.array_equal(ab, ba)
    assert np.array_equal(ab, np.where(owner, page_a, page_b))


# ------------------------------------------------------------- write notices
def test_notice_log_cursor_semantics():
    log = NoticeLog()
    log.append([WriteNotice(1, 0, 1), WriteNotice(2, 0, 1)])
    first = log.unseen_by(consumer=1)
    assert [w.page for w in first] == [1, 2]
    assert log.unseen_by(consumer=1) == []
    log.append([WriteNotice(3, 2, 2)])
    assert [w.page for w in log.unseen_by(consumer=1)] == [3]
    # a different consumer sees everything from the start
    assert [w.page for w in log.unseen_by(consumer=5)] == [1, 2, 3]


def test_merge_notices_groups_writers():
    merged = merge_notices(
        {
            0: [WriteNotice(10, 0, 1), WriteNotice(11, 0, 1)],
            1: [WriteNotice(10, 1, 1)],
            2: [],
        }
    )
    assert merged == {10: {0, 1}, 11: {0}}


# ------------------------------------------------------------- config
@pytest.mark.parametrize("field,value", [
    ("spin_slice", 0.0),     # would busy-wait at constant virtual time forever
    ("spin_slice", -1e-6),   # used to fail deep inside Hold
    ("pool_bytes", 0),
    ("pool_bytes", -4096),
    ("barrier_fanin", 1),
])
def test_config_rejects_values_that_cannot_run(field, value):
    from repro.dsm.config import KDSM_BASELINE

    with pytest.raises(ValueError, match=field):
        KDSM_BASELINE.replace(**{field: value})
