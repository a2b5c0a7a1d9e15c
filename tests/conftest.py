"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.dsm.states import PageState
from repro.mpi.ops import SUM
from repro.sim import Simulator
from repro.vm import ProtectionFault

# canonical builders live in the library so benchmarks can share them
from repro.testing import build_cluster, build_comm, build_dsm, run_all  # noqa: F401


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def slow_access(monkeypatch):
    """Call it to send every DSM access from then on down the slow path
    (``DsmNode._acquire``) — the reference side of the fast-path
    equivalence tests.  The library has no switch for this."""
    from repro.dsm.node import DsmNode

    def engage():
        monkeypatch.setattr(DsmNode, "try_fast_access", lambda *a, **kw: False)

    return engage


def recount(dn):
    """A node's page census taken the slow way: one pass over its page
    table, in ``PageState.idx`` order — what ``DsmNode.census`` must equal.
    Lives here, not in ``src/``: the library keeps no scanning census."""
    table = list(dn.state)
    return [table.count(st) for st in PageState]


def rescan_acquire(dn, addr, size, is_write):
    """The fault loop as it was before the range-at-a-time service — the
    order oracle for ``DsmNode._acquire`` (monkeypatch it in): re-run the
    access check over the whole range after every serviced fault and
    learn the next page from the raised ``ProtectionFault``, one page
    (one upgrade burst) at a time.  Lives here, not in ``src/``."""
    while True:
        try:
            dn.space.check_range(addr, size, write=is_write)
            return
        except ProtectionFault as fault:
            yield from dn._service_fault((fault.vpage,), 0, is_write)


def sync_loops(iters=4):
    """The Fig 6/7 ``critical`` and ``single`` loops, back to back."""

    def program(ctx):
        x = ctx.shared_scalar("x")
        v = ctx.shared_scalar("v")

        def critical_loop(tc, x):
            for _ in range(iters):
                yield from tc.critical_update(x, 1.0, SUM)

        def single_loop(tc, v):
            for i in range(iters):
                def init(i=i):
                    return float(i)
                    yield  # makes init a generator, as `single` requires

                yield from tc.single(body_gen_fn=init, shared_scalar=v)

        yield from ctx.parallel(critical_loop, x)
        yield from ctx.parallel(single_loop, v)

    return program


class TraversalCountingList(list):
    """A page table that counts whole-table reads (iteration, membership,
    counting, slices); indexing one page stays free."""

    traversals = 0

    def __iter__(self):
        self.traversals += 1
        return super().__iter__()

    def __contains__(self, item):
        self.traversals += 1
        return super().__contains__(item)

    def count(self, item):
        self.traversals += 1
        return super().count(item)

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.traversals += 1
        return super().__getitem__(key)
