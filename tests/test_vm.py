"""Tests for the simulated VM subsystem and the §5.1 atomic page update
problem: the naive strategy exhibits the torn-read race of Figure 4, the
four dual-mapping strategies do not."""

import numpy as np
import pytest

from repro.sim import Simulator
from repro.vm import (
    PhysicalMemory,
    AddressSpace,
    ProtectionFault,
    PROT_NONE,
    PROT_READ,
    PROT_WRITE,
    PROT_RW,
    strategy_by_name,
    STRATEGY_NAMES,
    NaiveInPlaceStrategy,
    LINUX_24,
    AIX_433,
)
from repro.vm.strategies import SimpleExecutor

PAGE = 4096


# ------------------------------------------------------------- memory
def test_physical_memory_frames_are_views():
    phys = PhysicalMemory(4, PAGE)
    v = phys.frame_view(2)
    v[:] = 7
    assert phys.buffer[2 * PAGE] == 7
    assert phys.buffer[3 * PAGE] == 0


def test_physical_memory_buffer_is_zeroed_writable_and_sized():
    phys = PhysicalMemory(3, PAGE)
    buf = phys.buffer
    assert buf.dtype == np.uint8 and buf.shape == (3 * PAGE,)
    assert buf.flags.writeable and not buf.any()


def test_physical_memory_read_write_frame():
    phys = PhysicalMemory(2, PAGE)
    data = bytes(range(256)) * 16
    phys.write_frame(1, data)
    assert phys.read_frame(1) == data


def test_physical_memory_bounds():
    phys = PhysicalMemory(2, PAGE)
    with pytest.raises(IndexError):
        phys.frame_view(2)
    with pytest.raises(ValueError):
        phys.write_frame(0, b"short")
    with pytest.raises(ValueError):
        PhysicalMemory(0, PAGE)


# ------------------------------------------------------------- address space
def make_space(n_pages=4):
    phys = PhysicalMemory(n_pages, PAGE)
    space = AddressSpace(phys)
    space.map_identity(n_pages, prot=PROT_NONE)
    return phys, space


def test_read_fault_on_protected_page():
    _phys, space = make_space()
    with pytest.raises(ProtectionFault) as e:
        space.read(100, 8)
    assert e.value.vpage == 0
    assert not e.value.is_write


def test_write_fault_on_readonly_page():
    _phys, space = make_space()
    space.protect(0, PROT_READ)
    space.read(0, 8)  # fine
    with pytest.raises(ProtectionFault) as e:
        space.write(0, b"x")
    assert e.value.is_write


def test_fault_reports_first_offending_page():
    _phys, space = make_space()
    space.protect(0, PROT_READ)
    # range spans pages 0 and 1; page 1 is PROT_NONE
    with pytest.raises(ProtectionFault) as e:
        space.read(PAGE - 4, 8)
    assert e.value.vpage == 1


def test_rw_page_read_write_roundtrip():
    _phys, space = make_space()
    space.protect(1, PROT_RW)
    space.write(PAGE + 10, b"hello")
    assert space.read(PAGE + 10, 5) == b"hello"


def test_cross_page_write_and_read():
    _phys, space = make_space()
    for p in range(4):
        space.protect(p, PROT_RW)
    blob = bytes(range(200)) * 50  # 10000 bytes, spans 3 pages
    space.write(100, blob)
    assert space.read(100, len(blob)) == blob


def test_view_zero_copy():
    phys, space = make_space()
    space.protect(0, PROT_RW)
    v = space.view(16, 32)
    v[:] = 9
    assert phys.buffer[16] == 9


def test_unmapped_page_faults():
    _phys, space = make_space()
    space.unmap(0)
    with pytest.raises(ProtectionFault):
        space.check_range(0, 4, write=False)
    with pytest.raises(KeyError):
        space.protect(0, PROT_READ)


def test_fault_counter():
    _phys, space = make_space()
    for _ in range(3):
        with pytest.raises(ProtectionFault):
            space.read(0, 1)
    assert space.n_faults == 3


# ------------------------------------------------------------- lacking
def _random_table(rng, n_pages):
    phys = PhysicalMemory(n_pages, PAGE)
    space = AddressSpace(phys)
    space.map_identity(n_pages, prot=PROT_NONE)
    for vp, prot in enumerate(rng.choice([PROT_NONE, PROT_READ, PROT_RW], n_pages)):
        space.protect(vp, int(prot))
    return space


@pytest.mark.parametrize("span", [1, 2, 3, 4, 5, 17, 40])
def test_lacking_equals_per_page_brute_force(span):
    """Scalar (1-3 pages) and vectorised (>= 4 pages) scans list exactly
    the pages a per-page probe finds, ascending, counting no fault."""
    rng = np.random.default_rng(span)
    for _ in range(40):
        space = _random_table(rng, 48)
        faults = 0
        first = int(rng.integers(0, 48 - span + 1))
        off = int(rng.integers(0, PAGE))
        addr = first * PAGE + off
        end = int(rng.integers(off + 1 if span == 1 else 1, PAGE + 1))
        size = (span - 1) * PAGE - off + end
        assert size > 0 and (addr + size - 1) // PAGE == first + span - 1
        for write in (False, True):
            need = PROT_WRITE if write else PROT_READ
            brute = [vp for vp in range(first, first + span)
                     if not space.protection(vp) & need]
            got = space.lacking(addr, size, write)
            assert got == brute and all(type(vp) is int for vp in got)
            assert (not got) == space.can_access(addr, size, write)
            if got:
                with pytest.raises(ProtectionFault) as exc:
                    space.check_range(addr, size, write)
                assert exc.value.vpage == got[0]
                faults += 1
        assert space.n_faults == faults  # raised ones only
    assert space.lacking(0, 0, True) == []


def test_lacking_counts_pages_past_the_table_as_unprotected():
    _phys, space = make_space(n_pages=2)
    space.protect(0, PROT_RW)
    space.protect(1, PROT_READ)
    beyond = len(space._prot)
    assert space.lacking(0, (beyond + 2) * PAGE, write=False) == [
        vp for vp in range(2, beyond + 2)]
    assert space.lacking(0, (beyond + 2) * PAGE, write=True)[0] == 1
    with pytest.raises(ProtectionFault):  # as check_range always did
        space.check_range(beyond * PAGE, 8, write=False)


def test_downgrade_stamp_moves_only_when_a_right_is_removed():
    phys = PhysicalMemory(8, PAGE)
    space = AddressSpace(phys)
    space.map_identity(4, prot=PROT_NONE)
    space.map(5, 5, PROT_RW)
    space.protect(0, PROT_READ)   # NONE -> R
    space.protect(0, PROT_RW)     # R -> RW
    space.protect(0, PROT_RW)     # no change
    space.protect(1, PROT_NONE)   # NONE -> NONE
    space.unmap(2)                # nothing to lose
    assert space.downgrades == 0
    stamps = []
    for change in (
        lambda: space.protect(0, PROT_READ),   # RW -> R
        lambda: space.protect(0, PROT_NONE),   # R -> NONE
        lambda: space.unmap(5),                # RW -> unmapped
        lambda: space.protect(3, PROT_READ),   # upgrade: stays
        lambda: space.map(6, 6, PROT_READ),    # fresh mapping: stays
        lambda: space.map(3, 3, PROT_NONE),    # remap under a reader
    ):
        change()
        stamps.append(space.downgrades)
    assert stamps == [1, 2, 3, 3, 3, 4]
    # every change above moved `version`, the fast path's finer stamp
    assert space.version > space.downgrades


# ------------------------------------------------------------- strategies
def _run_update(strategy_name, profile=LINUX_24, concurrent_reader=False):
    """Run one page update; optionally race a reader against it.

    Returns (sim, strategy, reader_observations).
    """
    sim = Simulator()
    phys = PhysicalMemory(1, PAGE)
    space = AddressSpace(phys)
    space.map_identity(1, prot=PROT_NONE)
    # old content: zeros; new content: 0xAB everywhere
    new_page = b"\xab" * PAGE
    strat = strategy_by_name(strategy_name, profile=profile)
    ex = SimpleExecutor(sim)
    observations = []

    def updater():
        yield from strat.update_page(ex, space, 0, new_page, PROT_READ)

    def reader():
        # Poll until the page is readable without faulting AND the update
        # has visibly begun (head bytes new), then immediately inspect the
        # tail: under the naive strategy the protection opens before the
        # copy completes, so the tail can still hold stale data.
        while True:
            try:
                space.check_range(0, PAGE, write=False)
            except ProtectionFault:
                yield sim.timeout(1e-7)
                continue
            data = np.frombuffer(space.read(0, PAGE), dtype=np.uint8)
            if data[0] != 0xAB:
                yield sim.timeout(1e-7)
                continue
            observations.append((data[:10].tolist(), data[-10:].tolist()))
            return

    sim.process(updater())
    if concurrent_reader:
        sim.process(reader())
    sim.run()
    return sim, strat, observations


@pytest.mark.parametrize("name", STRATEGY_NAMES)
def test_update_page_installs_new_content(name):
    sim, strat, _obs = _run_update(name)
    assert strat.n_updates == 1


def test_naive_strategy_exhibits_torn_read():
    _sim, _strat, obs = _run_update("naive", concurrent_reader=True)
    head, tail = obs[0]
    # reader slipped in mid-update: first half new, second half still old
    assert head == [0xAB] * 10
    assert tail == [0] * 10


@pytest.mark.parametrize("name", [n for n in STRATEGY_NAMES if n != "naive"])
def test_dual_mapping_strategies_are_race_free(name):
    _sim, _strat, obs = _run_update(name, concurrent_reader=True)
    head, tail = obs[0]
    # the reader could only get in after the commit: fully new content
    assert head == [0xAB] * 10
    assert tail == [0xAB] * 10


def test_racy_flag_matches_behaviour():
    for name in STRATEGY_NAMES:
        strat = strategy_by_name(name)
        assert strat.racy == (name == "naive")


def _steady_state_update_cost(name, profile):
    """Per-update cost after the one-time setup is amortised."""
    sim = Simulator()
    phys = PhysicalMemory(1, PAGE)
    space = AddressSpace(phys)
    space.map_identity(1, prot=PROT_NONE)
    strat = strategy_by_name(name, profile=profile)
    ex = SimpleExecutor(sim)
    page = b"\xab" * PAGE
    marks = []

    def run():
        for _ in range(5):
            space.protect(0, PROT_NONE)
            yield from strat.update_page(ex, space, 0, page, PROT_READ)
            marks.append(sim.now)

    sim.process(run())
    sim.run()
    return (marks[-1] - marks[0]) / 4


def test_linux_costs_comparable_aix_file_mapping_slow():
    times = {}
    for profile, label in ((LINUX_24, "linux"), (AIX_433, "aix")):
        for name in STRATEGY_NAMES:
            times[(label, name)] = _steady_state_update_cost(name, profile)
    linux = [times[("linux", n)] for n in STRATEGY_NAMES if n != "naive"]
    # §5.1: "all the methods achieve comparable performance on an SMP Linux
    # cluster" — within 3x of each other
    assert max(linux) / min(linux) < 3.0
    # "the conventional file mapping method shows poor performance on IBM SP
    # ... AIX": at least 5x slower than the best AIX alternative
    aix_others = [
        times[("aix", n)] for n in STRATEGY_NAMES if n not in ("naive", "file-mapping")
    ]
    assert times[("aix", "file-mapping")] > 5 * min(aix_others)


def test_wrong_size_update_rejected():
    sim = Simulator()
    phys = PhysicalMemory(1, PAGE)
    space = AddressSpace(phys)
    space.map_identity(1)
    strat = strategy_by_name("sysv-shm")
    ex = SimpleExecutor(sim)

    def updater():
        with pytest.raises(ValueError):
            yield from strat.update_page(ex, space, 0, b"tiny", PROT_READ)

    sim.process(updater())
    sim.run()


def test_unknown_strategy_name():
    with pytest.raises(KeyError):
        strategy_by_name("voodoo")


def test_setup_cost_charged_once():
    sim = Simulator()
    phys = PhysicalMemory(1, PAGE)
    space = AddressSpace(phys)
    space.map_identity(1, prot=PROT_NONE)
    strat = strategy_by_name("fork-child")  # large setup cost
    ex = SimpleExecutor(sim)
    page = b"\x01" * PAGE

    marks = []

    def run():
        yield from strat.update_page(ex, space, 0, page, PROT_READ)
        marks.append(sim.now)
        space.protect(0, PROT_NONE)
        yield from strat.update_page(ex, space, 0, page, PROT_READ)
        marks.append(sim.now)

    sim.process(run())
    sim.run()
    first, second = marks[0], marks[1] - marks[0]
    assert first > second  # setup amortised away after the first update
