"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.dsm.states import PageState
from repro.sim import Simulator

# canonical builders live in the library so benchmarks can share them
from repro.testing import build_cluster, build_comm, build_dsm, run_all  # noqa: F401


@pytest.fixture
def sim():
    return Simulator()


def recount(dn):
    """A node's page census taken the slow way: one pass over its page
    table, in ``PageState.idx`` order — what ``DsmNode.census`` must equal.
    Lives here, not in ``src/``: the library keeps no scanning census."""
    table = list(dn.state)
    return [table.count(st) for st in PageState]


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
