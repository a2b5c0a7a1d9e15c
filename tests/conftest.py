"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.dsm.states import PageState
from repro.mpi.ops import SUM
from repro.sim import Simulator, Timeout
from repro.sim.resources import Request
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


class GrantTimed(Request):
    """A resource request that sets the timer of its occupancy — ``end``
    — where the unit is granted, not where the granted process wakes up.
    That is the one rule of :class:`repro.sim.Hold` a process cannot
    spell with ``request`` / ``timeout`` / ``release``: the grant's
    event resumes it later in that instant, and whatever ran in between
    has scheduled first.  By hand: ``yield req; yield req.end;
    res.release(req)``."""

    def __init__(self, res, priority, duration):
        super().__init__(res, priority)
        self.duration = duration
        self.end = None
        res._submit(self)

    def _granted(self):
        self.succeed(self)
        self.end = Timeout(self.sim, self.duration)


def reference_execute(res, duration, priority=0, wait_phase=None,
                      busy_phase=None, again=None, until=None, timer_at_grant=False):
    """``Resource.execute`` as observed runs took it before the hold
    stated its own phases — the schedule and phase oracle for
    :class:`repro.sim.Hold` (monkeypatch it in): request, resume at the
    grant, time out, resume at the end, release (three events a burst,
    every busy-wait slice one); the resumed process itself pushes the
    wait, switches to busy and pops.  *timer_at_grant*: with the timeout
    set by the grant (:class:`GrantTimed`) — the hold's order among
    entries of one virtual instant.  Lives here, not in ``src/``."""
    sim = res.sim
    pb = sim.probe
    if pb is not None and (wait_phase is None or "phase" not in pb.heard):
        pb = None
    while duration is not None:
        req = GrantTimed(res, priority, duration) if timer_at_grant else res.request(priority)
        if pb is not None:
            pb.push(wait_phase)
        try:
            yield req
            if pb is not None:
                pb.replace(busy_phase)
            yield req.end if timer_at_grant else Timeout(sim, duration)
        finally:
            if pb is not None:
                pb.pop()
            res.relinquish(req)
        if again is None or (until is not None and until.triggered):
            return
        duration = again()


def reference_execute_timer_at_grant(res, *args, **kwargs):
    return reference_execute(res, *args, timer_at_grant=True, **kwargs)


def reference_spin(node, seconds, until):
    """``Node.spin_cpu`` as it was before a busy-wait could park — the
    oracle for a parked spin (monkeypatch it in): a chain of
    ``busy_cpu`` bursts, every slice scheduled, ended by the first slice
    boundary that finds *until* triggered.  Lives here, not in
    ``src/``."""
    if not until.triggered:
        yield from node.busy_cpu(
            seconds, again=lambda: None if until.triggered else seconds)


def reference_generate(state, n, a=1220703125, lanes=4096):
    """``NasRandom.generate`` as it was before the doubling fill — the
    value oracle for the stream: the product mod 2^46 through a 23-bit
    operand split (no intermediate reaches 2^64, nothing wraps), a lane
    row stepped sequentially then advanced ``a^lanes`` per row.  Returns
    (uniforms, new state).  Lives here, not in ``src/``."""
    m23, m46, s23 = np.uint64((1 << 23) - 1), np.uint64((1 << 46) - 1), np.uint64(23)

    def modmul(c, x):
        c1, c2 = np.uint64(c >> 23), np.uint64(c & ((1 << 23) - 1))
        t = (c1 * (x & m23) + c2 * (x >> s23)) & m23
        return ((t << s23) + c2 * (x & m23)) & m46

    if n == 0:
        return np.empty(0), state
    lanes = min(lanes, n)
    rows = -(-n // lanes)
    out = np.empty((rows, lanes), dtype=np.uint64)
    for j in range(lanes):
        state = (a * state) % (1 << 46)
        out[0, j] = state
    for r in range(1, rows):
        out[r] = modmul(pow(a, lanes, 1 << 46), out[r - 1])
    flat = out.reshape(-1)[:n]
    return flat.astype(np.float64) * 0.5 ** 46, int(flat[-1])


def reference_tally(u):
    """``repro.apps.ep._tally`` as it was before the scratch workspace —
    the bit-for-bit oracle for one chunk: same operations per element in
    the same order, every step a fresh temporary."""
    x = 2.0 * u[0::2] - 1.0
    y = 2.0 * u[1::2] - 1.0
    t = x * x + y * y
    acc = t <= 1.0
    tt = t[acc]
    f = np.sqrt(-2.0 * np.log(tt) / tt)
    gx = x[acc] * f
    gy = y[acc] * f
    ik = np.maximum(np.abs(gx), np.abs(gy)).astype(np.int64)
    counts = np.bincount(ik, minlength=10)[:10].astype(np.float64)
    return float(gx.sum()), float(gy.sum()), counts


def reference_makea(klass):
    """``repro.apps.cg.make_matrix`` as it was before the array code — the
    byte-for-byte oracle for the CG matrix: NPB ``makea`` as a per-entry
    loop over three Python lists of boxed triplets, one ``randlc`` call
    per draw.  Lives here, not in ``src/``."""
    import scipy.sparse as sp

    from repro.apps.cg import _TRAN0, CLASSES, RCOND
    from repro.apps.nas_random import randlc

    na, nonzer, shift, _niter = CLASSES[klass]
    tran = _TRAN0
    tran, _zeta = randlc(tran)  # main() consumes one value before makea

    nn1 = 1
    while nn1 < na:
        nn1 <<= 1

    ratio = RCOND ** (1.0 / na)
    size = 1.0
    rows = []
    cols = []
    vals = []
    mark = np.zeros(na + 1, dtype=bool)

    for iouter in range(1, na + 1):
        # sprnvc: nonzer distinct random positions with random values
        nzv = 0
        v = []
        iv = []
        while nzv < nonzer:
            tran, vecelt = randlc(tran)
            tran, vecloc = randlc(tran)
            i = int(nn1 * vecloc) + 1
            if i > na:
                continue
            if not mark[i]:
                mark[i] = True
                v.append(vecelt)
                iv.append(i)
                nzv += 1
        for i in iv:
            mark[i] = False
        # vecset: force position iouter with value 0.5
        if iouter in iv:
            v[iv.index(iouter)] = 0.5
        else:
            v.append(0.5)
            iv.append(iouter)
        # outer product accumulation
        for jcol, vj in zip(iv, v):
            scale = size * vj
            for irow, vi in zip(iv, v):
                rows.append(irow - 1)
                cols.append(jcol - 1)
                vals.append(vi * scale)
        size *= ratio

    # rcond - shift on the diagonal
    for i in range(na):
        rows.append(i)
        cols.append(i)
        vals.append(RCOND - shift)

    a = sp.coo_matrix((vals, (rows, cols)), shape=(na, na)).tocsr()
    a.sum_duplicates()
    return a


def reference_runs(twin, current):
    """A diff as the run-length list ``compute_diff`` used to build —
    ``[(offset, bytes)]``, one entry per maximal run of changed bytes:
    the wire format ``Diff.nbytes`` prices without materialising."""
    idx = np.flatnonzero(twin != current)
    if idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) > 1)
    los = idx[np.concatenate(([0], breaks + 1))].tolist()
    his = (idx[np.concatenate((breaks, [idx.size - 1]))] + 1).tolist()
    buf = current.tobytes()
    return [(lo, buf[lo:hi]) for lo, hi in zip(los, his)]


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


def reference_network_send(self, src, dst, nbytes, payload, tag=None):
    """``Network.send`` as it was before the flight leg became one kernel
    entry — the schedule oracle for ``Simulator.call_later`` (monkeypatch
    it in): the message built by keyword, the cost model through its
    methods, the propagation as a ``sim.timeout`` with a lambda callback.
    Lives here, not in ``src/``."""
    from repro.cluster.network import Message
    from repro.sim.probe import PH_NET_TX

    node = self.nodes[src]
    nbytes = max(int(nbytes), 0) + self.HEADER_BYTES
    msg = Message(src=src, dst=dst, nbytes=nbytes, payload=payload, tag=tag,
                  seq=next(self._seq), send_time=self.sim.now)
    self.total_messages += 1
    self.total_bytes += nbytes
    chan = tag[0] if isinstance(tag, tuple) and tag else tag
    cs = self.channel_stats.get(chan)
    if cs is None:
        cs = self.channel_stats[chan] = [0, 0]
    cs[0] += 1
    cs[1] += nbytes
    node.msgs_sent += 1
    node.bytes_sent += nbytes
    pb = self.sim.probe
    if pb is not None and "net" in pb.heard:
        pb.instant("net", "msg-send", node=src, dst=dst, nbytes=nbytes,
                   tag=str(tag), seq=msg.seq)
    if src == dst:
        yield from node.busy_cpu(0.5e-6 + nbytes * 0.5e-9)
        msg.deliver_time = self.sim.now
        node.msgs_received += 1
        node.bytes_received += nbytes
        if pb is not None and "net" in pb.heard:
            pb.instant("net", "msg-deliver", node=dst, tid="wire",
                       src=src, nbytes=nbytes, tag=str(tag), seq=msg.seq)
        node.inbox.put(msg)
        return msg
    ic = self.interconnect
    yield from node.busy_cpu(ic.send_cpu_time(nbytes))
    t0 = self.sim.now
    yield from node.nic_tx.execute(nbytes / ic.bandwidth, 0, PH_NET_TX, PH_NET_TX)
    if pb is not None and "net" in pb.heard:
        pb.span("net", "nic-tx", t0, node=src, dst=dst, nbytes=nbytes, seq=msg.seq)
    if self.link is not None:
        self.link.transmit(self, msg)
        return msg
    deliver = self.sim.timeout(ic.latency)
    deliver.add_callback(lambda ev: self._deliver(msg))
    return msg


def reference_mpi_handler(self, node_id):
    """``Communicator._make_handler`` as it was: the MPI match handler a
    generator function, one generator per delivered frame (monkeypatch
    it in before the communicator is built)."""
    queue = self._queues[node_id]

    def handler(msg):
        queue.deliver(msg.src, msg.tag[1], msg.payload)
        return
        yield

    return handler


def reference_rank_send(self, value, dest, tag=0):
    """``RankComm.send`` as it was: a generator delegating to
    ``Network.send`` (``yield from``), one more frame per resume."""
    from repro.mpi.datatypes import nbytes_of
    from repro.sim.probe import CAT_AUDIT

    if not (0 <= dest < self.size):
        raise ValueError(f"invalid destination rank {dest}")
    self.comm.n_p2p += 1
    pb = self.comm.sim.probe
    if pb is not None and CAT_AUDIT in pb.heard:
        pb.instant(CAT_AUDIT, "send", key=self._hb_key(self.rank, dest, tag))
    yield from self._net.send(
        self.rank, dest, nbytes_of(value), value, tag=(self.comm._channel, tag))


def _reference_collective(self, name, gen, **args):
    from repro.sim.probe import PH_MPI_COLL, bracket

    sim = self.comm.sim
    t0 = sim.now
    result = yield from bracket(sim, PH_MPI_COLL, gen)
    pb = sim.probe
    if pb is not None and "mpi" in pb.heard:
        pb.span("mpi", name, t0, node=self.rank, **args)
    return result


def reference_bcast(self, value, root=0):
    """``RankComm.bcast`` as it was: a delegating generator, whoever
    listens (so are :func:`reference_reduce` and
    :func:`reference_allreduce`)."""
    result = yield from _reference_collective(self, "bcast", self._bcast(value, root), root=root)
    return result


def reference_reduce(self, value, op=SUM, root=0):
    result = yield from _reference_collective(
        self, "reduce", self._reduce(value, op, root), root=root)
    return result


def reference_allreduce(self, value, op=SUM):
    sim = self.comm.sim
    t0 = sim.now
    acc = yield from self.reduce(value, op=op, root=0)
    result = yield from self.bcast(acc, root=0)
    pb = sim.probe
    if pb is not None and "mpi" in pb.heard:
        pb.span("mpi", "allreduce", t0, node=self.rank)
    return result


def use_reference_message_path(monkeypatch):
    """Monkeypatch every per-message form the remote message path had
    before it shed its spare frames: the flight timeout, the generator
    MPI handler, the delegating ``send`` and collectives."""
    from repro.cluster.network import Network
    from repro.mpi.communicator import Communicator, RankComm

    monkeypatch.setattr(Network, "send", reference_network_send)
    monkeypatch.setattr(Communicator, "_make_handler", reference_mpi_handler)
    monkeypatch.setattr(RankComm, "send", reference_rank_send)
    monkeypatch.setattr(RankComm, "bcast", reference_bcast)
    monkeypatch.setattr(RankComm, "reduce", reference_reduce)
    monkeypatch.setattr(RankComm, "allreduce", reference_allreduce)


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


class PerEventSteps:
    """The ``kernel/step`` offering the event loop made before it became
    due-driven: *on_event(now, depth)* runs on every processed event.
    Every other kind goes to the wrapped observer *inner*, which must be
    built with ``attach=False`` so that this wrapper is what subscribes."""

    def __init__(self, inner, on_event):
        self.inner = inner
        self.on_event = on_event
        self.categories = inner.categories

    def handler_for(self, cat, name):
        if (cat, name) == ("kernel", "step"):
            return self.on_step
        return self.inner.handler_for(cat, name)

    def on_step(self, now, depth):
        self.on_event(now, depth)
        return self.inner.sim.events_processed + 1, float("inf")


def reference_queue_stride(rec):
    """``TraceRecorder``'s old per-event step: count the events offered
    since subscribing, sample the queue depth on every stride-th."""
    from repro.trace import CAT_COUNTER

    seen = 0

    def on_event(now, depth):
        nonlocal seen
        seen += 1
        if rec.queue_stride and seen % rec.queue_stride == 0:
            rec.counter(CAT_COUNTER, "queue-depth", depth=depth)

    return on_event


def reference_grid(mx):
    """``Metrics``' old per-event step: sample on the first event at or
    after the next multiple of the period."""

    def on_event(now, depth):
        if now >= mx._next_due:
            mx.sample(now, depth)
            mx._next_due = mx.period * (math.floor(now / mx.period) + 1.0)

    return on_event
