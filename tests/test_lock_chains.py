"""Differential test of the lock path: generated chains of locks against
a sequentially consistent memory (``conftest.SCMemory``).

A chain is 2-4 locks and one hop more than locks, each hop on some node
of 3-4.  After every thread has read both shared arrays (so every node
holds a copy that can go stale) and a barrier, hop ``i`` starts at a
fixed stagger: it takes lock ``i-1``, reads both arrays and takes lock
``i``, writes its slot of one array.  The first hop only writes, the last
only reads.  Each hop's reads happen-after every earlier hop's write
through the chain, so they must equal the SC replay in hop order, and so
must the final memory after a barrier.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from repro.runtime import ParadeRuntime

from conftest import SCMemory

SLOT = 40  # doubles per hop
STAGGER = 100000.0  # compute units between hop starts: longer than a hop


@st.composite
def chains(draw):
    n_nodes = draw(st.integers(3, 4))
    locks = draw(st.lists(st.sampled_from(["L1", "L2", "L3"]), min_size=2, max_size=4))
    hops = len(locks) + 1
    nodes = draw(st.lists(st.integers(0, n_nodes - 1), min_size=hops, max_size=hops))
    arrays = draw(st.lists(st.sampled_from("pq"), min_size=hops, max_size=hops))
    return n_nodes, locks, nodes, arrays


def _program(locks, nodes, arrays, reads):
    """Thread 0 of each node runs its hops in order; *reads* collects
    ``(hop, {array: values})`` for every lock-protected read."""
    size = SLOT * len(nodes)

    def program(ctx):
        shared = {name: ctx.shared_array(name, (size,)) for name in "pq"}

        def body(tc, p, q):
            views = {"p": tc.array(p), "q": tc.array(q)}
            for v in views.values():
                yield from v.get()
            yield from tc.barrier()
            if tc.local_tid == 0:
                at = 0.0
                for hop, node in enumerate(nodes):
                    if node != tc.node_id:
                        continue
                    yield from tc.compute(hop * STAGGER - at)
                    at = hop * STAGGER
                    if hop > 0:
                        yield from tc.set_lock(locks[hop - 1])
                        seen = {}
                        for name, v in views.items():
                            seen[name] = (yield from v.get()).copy()
                        reads.append((hop, seen))
                        yield from tc.unset_lock(locks[hop - 1])
                    if hop < len(locks):
                        yield from tc.set_lock(locks[hop])
                        w = yield from views[arrays[hop]].writable(hop * SLOT, (hop + 1) * SLOT)
                        w[:] = hop + 1
                        yield from tc.unset_lock(locks[hop])
            yield from tc.barrier()
            if tc.node_id == 0 and tc.local_tid == 0:
                final = {}
                for name, v in views.items():
                    final[name] = (yield from v.get()).copy()
                return final

        return (yield from ctx.parallel(body, shared["p"], shared["q"]))

    return program


def _sc_replay(locks, nodes, arrays):
    size = SLOT * len(nodes)
    mem = SCMemory({"p": size, "q": size})
    reads = []
    for hop in range(len(nodes)):
        if hop > 0:
            reads.append((hop, {name: mem.read(name) for name in "pq"}))
        if hop < len(locks):
            mem.write(arrays[hop], hop * SLOT, (hop + 1) * SLOT, hop + 1)
    return reads, {name: mem.read(name) for name in "pq"}


def _check(mode, n_nodes, locks, nodes, arrays):
    reads = []
    rt = ParadeRuntime(n_nodes=n_nodes, mode=mode, pool_bytes=1 << 20, sanitize=True)
    res = rt.run(_program(locks, nodes, arrays, reads))
    want_reads, want_final = _sc_replay(locks, nodes, arrays)
    assert [hop for hop, _ in sorted(reads, key=lambda r: r[0])] == [h for h, _ in want_reads]
    for (hop, got), (_hop, want) in zip(sorted(reads, key=lambda r: r[0]), want_reads):
        for name in "pq":
            assert np.array_equal(got[name], want[name]), (
                f"hop {hop} read {name} summing to {got[name].sum()}, SC {want[name].sum()}")
    final = res.value[0]
    for name in "pq":
        assert np.array_equal(final[name], want_final[name]), (
            f"final {name} sums to {final[name].sum()}, SC {want_final[name].sum()}")
    assert rt.sanitizer.ok, rt.sanitizer.format_report()


@pytest.mark.parametrize("mode", ["parade", "sdsm"])
@seed(20261017)
@settings(max_examples=50, deadline=None, database=None)
@given(chain=chains())
# found and shrunk by this test while a grant carried only the notices
# released to its own lock: node 0 writes p under L2, node 1 reads it
# under L2 and writes q under L1, node 2 reads p under L1 and got zeros
@example(chain=(3, ["L2", "L2", "L1", "L1"], [0, 0, 1, 2, 0], ["p", "p", "q", "p", "p"]))
def test_lock_chains_match_the_sc_replay(mode, chain):
    _check(mode, *chain)
