"""Tests for :mod:`repro.sanitizer`: vector clocks, the shadow-memory
race detector, live invariant checks, seeded-racy negatives, and clean
runs of the real apps."""

import numpy as np
import pytest

from repro.apps.racy import racy_programs
from repro.dsm.states import PageState
from repro.runtime import ALL_EXEC_CONFIGS, ParadeRuntime
from repro.sanitizer import Sanitizer, ordered_before, vc_copy, vc_join
from repro.sim import Simulator


def _exec(name):
    return next(ec for ec in ALL_EXEC_CONFIGS if ec.name == name)


def _run_sanitized(program, n_nodes=2, mode="parade", exec_name="2Thread-2CPU",
                   pool_bytes=1 << 20):
    rt = ParadeRuntime(n_nodes=n_nodes, exec_config=_exec(exec_name), mode=mode,
                       pool_bytes=pool_bytes, sanitize=True)
    rt.run(program)
    return rt.sanitizer


# ------------------------------------------------------------ clocks
def test_vector_clock_helpers():
    a = {"t0": 3, "t1": 1}
    b = {"t1": 5, "t2": 2}
    vc_join(a, b)
    assert a == {"t0": 3, "t1": 5, "t2": 2}
    c = vc_copy(a)
    c["t0"] = 99
    assert a["t0"] == 3
    assert ordered_before("t1", 5, a)
    assert not ordered_before("t1", 6, a)
    assert not ordered_before("unknown", 1, a)
    assert ordered_before("unknown", 0, a)


# ------------------------------------------------------------ attach
def test_attach_detach_contract():
    sim = Simulator()
    assert sim.probe is None
    san = Sanitizer(sim, n_nodes=2, page_size=4096)
    assert san in sim.probe.subscribers
    san.detach()
    assert sim.probe is None
    # detaching twice (or after replacement) is harmless
    san.detach()


# ------------------------------------------------------------ shadow memory
def test_unordered_overlapping_writes_race():
    sim = Simulator()
    san = Sanitizer(sim, n_nodes=2, page_size=4096)

    def t(label):
        def gen():
            yield sim.timeout(1e-6)
            san.on_access(0, 0, 8, True, f"x[{label}]")
        return sim.process(gen(), label=label)

    t("a")
    t("b")
    sim.run()
    assert len(san.races) == 1
    msg = san.races[0].message
    assert "x[a]" in msg and "x[b]" in msg  # both sites named
    assert "write" in msg


def test_disjoint_bytes_on_one_page_do_not_race():
    """False sharing is not a false positive: byte ranges are exact."""
    sim = Simulator()
    san = Sanitizer(sim, n_nodes=2, page_size=4096)

    def t(label, off):
        def gen():
            yield sim.timeout(1e-6)
            san.on_access(0, off, 8, True, label)
        return sim.process(gen(), label=label)

    t("a", 0)
    t("b", 64)
    sim.run()
    assert san.ok, san.format_report()


def test_read_read_never_races():
    sim = Simulator()
    san = Sanitizer(sim, n_nodes=2, page_size=4096)

    def t(label):
        def gen():
            yield sim.timeout(1e-6)
            san.on_access(0, 0, 8, False, label)
        return sim.process(gen(), label=label)

    t("a")
    t("b")
    sim.run()
    assert san.ok


def test_lock_edge_orders_accesses():
    """Release -> acquire publishes the releasing thread's clock."""
    sim = Simulator()
    san = Sanitizer(sim, n_nodes=2, page_size=4096)

    def first():
        yield sim.timeout(1e-6)
        san.on_access(0, 0, 8, True, "x")
        san.on_lock_release("L")

    def second():
        yield sim.timeout(2e-6)
        san.on_lock_acquire("L")
        san.on_access(1, 0, 8, True, "x")

    sim.process(first(), label="p1")
    sim.process(second(), label="p2")
    sim.run()
    assert san.ok, san.format_report()


def test_message_edge_orders_accesses():
    sim = Simulator()
    san = Sanitizer(sim, n_nodes=2, page_size=4096)

    def sender():
        yield sim.timeout(1e-6)
        san.on_access(0, 0, 8, True, "x")
        san.on_msg_send(("ch", 0, 1))

    def receiver():
        yield sim.timeout(2e-6)
        san.on_msg_recv(("ch", 0, 1))
        san.on_access(1, 0, 8, False, "x")

    sim.process(sender(), label="s")
    sim.process(receiver(), label="r")
    sim.run()
    assert san.ok, san.format_report()


def test_shadow_record_eviction_cap():
    sim = Simulator()
    san = Sanitizer(sim, n_nodes=1, page_size=4096, max_records_per_page=4)

    def gen():
        yield sim.timeout(1e-6)
        for i in range(10):
            # stride 16 leaves gaps so the same-thread merge can't fuse
            # the records; alternating mode would work too
            san.on_access(0, i * 16, 8, False, f"r{i}")

    sim.process(gen(), label="p")
    sim.run()
    assert san.records_evicted == 6
    assert len(san._shadow[0]) == 4


def test_same_thread_ranges_merge_in_place():
    sim = Simulator()
    san = Sanitizer(sim, n_nodes=1, page_size=4096)

    def gen():
        yield sim.timeout(1e-6)
        san.on_access(0, 0, 8, True, "x")
        san.on_access(0, 8, 8, True, "x")  # adjacent, same mode/epoch

    sim.process(gen(), label="p")
    sim.run()
    assert len(san._shadow[0]) == 1
    assert san._shadow[0][0][:2] == [0, 16]


# ------------------------------------------------------------ invariants
def test_illegal_transition_flagged_live():
    sim = Simulator()
    san = Sanitizer(sim, n_nodes=2, page_size=4096)
    san.on_page_state(0, 3, PageState.INVALID, PageState.DIRTY, "write-fault")
    kinds = [f.kind for f in san.violations]
    assert "illegal-transition" in kinds


def test_broken_chain_flagged():
    sim = Simulator()
    san = Sanitizer(sim, n_nodes=2, page_size=4096)
    san.on_page_state(0, 3, PageState.INVALID, PageState.TRANSIENT, "fault")
    san.on_page_state(0, 3, PageState.READ_ONLY, PageState.DIRTY, "write-fault")
    assert any(f.kind == "broken-chain" for f in san.violations)


def test_cursor_regression_flagged():
    sim = Simulator()
    san = Sanitizer(sim, n_nodes=2, page_size=4096)
    san.on_lock_grant(0, 1, 2, start=0, end=4, log_len=6)
    assert san.ok
    san.on_lock_grant(0, 1, 2, start=2, end=3, log_len=6)  # moved back
    assert any(f.kind == "cursor-regression" for f in san.violations)


def test_cursor_beyond_log_flagged():
    sim = Simulator()
    san = Sanitizer(sim, n_nodes=2, page_size=4096)
    san.on_lock_grant(0, 1, 2, start=0, end=9, log_len=6)
    assert any(f.kind == "cursor-regression" for f in san.violations)


def test_barrier_epoch_violations():
    sim = Simulator()
    san = Sanitizer(sim, n_nodes=2, page_size=4096)
    san.on_barrier_arrive(0, 0)
    san.on_barrier_arrive(0, 0)  # duplicate arrival
    assert any(f.kind == "epoch-membership" for f in san.violations)
    san2 = Sanitizer(sim, n_nodes=2, page_size=4096)
    san2.on_barrier_arrive(0, 1)  # first epoch must be 0
    assert any(f.kind == "epoch-order" for f in san2.violations)


def test_barrier_completion_resets_shadow():
    sim = Simulator()
    san = Sanitizer(sim, n_nodes=2, page_size=4096)

    def gen():
        yield sim.timeout(1e-6)
        san.on_access(0, 0, 8, True, "x")
        san.on_barrier_arrive(0, 0)
        san.on_barrier_arrive(1, 0)  # epoch complete: everyone blocked

    sim.process(gen(), label="p")
    sim.run()
    assert san._shadow == {}
    assert san.barrier_resets == 1


# ------------------------------------------------------------ racy negatives
@pytest.mark.parametrize("name", sorted(racy_programs()))
def test_racy_programs_flagged_with_both_sites(name):
    entry = racy_programs()[name]
    san = _run_sanitized(entry["factory"](), pool_bytes=entry["pool_bytes"])
    assert san.races, f"{name}: expected a data race, report clean"
    msg = san.races[0].message
    assert "races with earlier" in msg
    # both access sites name the shared array
    assert msg.count("racy_") >= 2, msg


def test_racy_ww_flagged_in_sdsm_mode_too():
    entry = racy_programs()["racy-nobar"]
    san = _run_sanitized(entry["factory"](), mode="sdsm",
                         pool_bytes=entry["pool_bytes"])
    assert san.races


# ------------------------------------------------------------ clean runs
def _clean_program(n=64):
    def program(ctx):
        a = ctx.shared_array("clean", (n,))

        def body(tc, arr):
            av = tc.array(arr)
            lo, hi = tc.for_range(0, n)
            yield from av.set(np.full(hi - lo, float(tc.tid + 1)), start=lo)
            yield from tc.barrier()
            vals = yield from av.get()
            total = yield from tc.reduce_value(float(vals.sum()))
            return total

        results = yield from ctx.parallel(body, a)
        return results

    return program


@pytest.mark.parametrize("exec_name", [ec.name for ec in ALL_EXEC_CONFIGS])
@pytest.mark.parametrize("mode", ["parade", "sdsm"])
def test_clean_program_no_findings(mode, exec_name):
    san = _run_sanitized(_clean_program(), mode=mode, exec_name=exec_name)
    assert san.ok, san.format_report()
    assert san.accesses_checked > 0
    assert san.barrier_resets > 0


def test_helmholtz_clean_under_sanitizer():
    from repro.apps import helmholtz

    san = _run_sanitized(helmholtz.make_program(n=24, m=24, max_iters=2),
                         n_nodes=2, pool_bytes=1 << 20)
    assert san.ok, san.format_report()


def test_sanitizer_disabled_by_default():
    rt = ParadeRuntime(n_nodes=2, pool_bytes=1 << 20)
    assert rt.sanitizer is None
    assert rt.sim.probe is None
