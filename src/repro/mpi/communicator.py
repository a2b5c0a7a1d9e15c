"""Communicator: MPI subset over the simulated cluster.

One MPI process per node (rank == node id), matching ParADE's deployment.
All blocking calls are generators.  Collectives use binomial trees
(bcast/reduce) — the textbook algorithms MPI/Pro-era libraries used — and
are matched across ranks by per-rank call sequence numbers, so different
application threads of one process may issue collectives as long as the
per-process *order* of collective calls is consistent (ParADE guarantees
this with the pthread lock it holds across the collective, §4.2).
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.mpi.datatypes import nbytes_of
from repro.mpi.matching import MatchQueue, ANY_SOURCE, ANY_TAG
from repro.mpi.ops import ReduceOp, SUM
from repro.sim.probe import CAT_AUDIT, PH_MPI_COLL, bracket


class Communicator:
    """Cluster-wide communicator state; use :meth:`rank` for a bound view."""

    def __init__(self, cluster, comm_threads: List):
        """*comm_threads* — one started :class:`CommThread` per node; the
        communicator registers its match handler on each."""
        self.cluster = cluster
        self.sim = cluster.sim
        # Ids (and hence channel names, which appear in message tags and
        # traces) are per-cluster, not process-global: two identical runs
        # in one process must produce identical traces.
        self.id = cluster.__dict__.setdefault("_n_communicators", 0)
        cluster._n_communicators = self.id + 1
        self.size = cluster.n_nodes
        self._channel = f"mpi{self.id}"
        self._queues = [MatchQueue(self.sim, node=r) for r in range(self.size)]
        self._coll_seq = [0 for _ in range(self.size)]
        self._ranks = [RankComm(self, r) for r in range(self.size)]
        for node_id, ct in enumerate(comm_threads):
            ct.register(self._channel, self._make_handler(node_id))
        # statistics
        self.n_p2p = 0
        self.n_collectives = 0

    def _make_handler(self, node_id: int):
        deliver = self._queues[node_id].deliver

        def handler(msg):
            # zero-time service: a plain function, no generator per frame;
            # tag on the wire: (channel, user_tag)
            deliver(msg.src, msg.tag[1], msg.payload)

        return handler

    def rank(self, r: int) -> "RankComm":
        return self._ranks[r]

    def __iter__(self):
        return iter(self._ranks)


class RankComm:
    """The communicator as seen from one rank (= one node's MPI process)."""

    def __init__(self, comm: Communicator, rank: int):
        self.comm = comm
        self.rank = rank
        self.size = comm.size
        self._queue = comm._queues[rank]
        self._net = comm.cluster.network

    # -- point to point -------------------------------------------------
    # Sanitizer happens-before: each blocking send pushes the sender's
    # vector clock on a per-(src, dst, tag) FIFO; the matching recv pops
    # it.  Because collectives are trees of these sends/recvs, this one
    # edge gives every collective its synchronisation semantics for free.
    # (irecv is not instrumented: completion via a bare event has no
    # single hook point — none of the sanitized paths use it.)
    def _hb_key(self, src: int, dst: int, tag: Any) -> tuple:
        return (self.comm.id, src, dst, repr(tag))

    # The blocking calls below that have nothing of their own to do after
    # the wait *return* the generator that waits (``Network.send``'s, a
    # collective's tree walk) rather than delegating to it: every resume
    # of a ``yield from`` level is a Python frame, paid per message.
    def send(self, value: Any, dest: int, tag: Any = 0):
        """Eager buffered send: returns once the frame left the NIC."""
        if not (0 <= dest < self.size):
            raise ValueError(f"invalid destination rank {dest}")
        comm = self.comm
        comm.n_p2p += 1
        pb = comm.sim.probe
        if pb is not None and CAT_AUDIT in pb.heard:
            pb.instant(CAT_AUDIT, "send", key=self._hb_key(self.rank, dest, tag))
        return self._net.send(self.rank, dest, nbytes_of(value), value, (comm._channel, tag))

    def recv(self, source: int = ANY_SOURCE, tag: Any = ANY_TAG):
        """Blocking receive; returns the payload."""
        if source != ANY_SOURCE and not (0 <= source < self.size):
            raise ValueError(f"invalid source rank {source}")
        src, t, payload = yield self._queue.post(source, tag)
        pb = self.comm.sim.probe
        if pb is not None and CAT_AUDIT in pb.heard:
            pb.instant(CAT_AUDIT, "recv", key=self._hb_key(src, self.rank, t))
        return payload

    def recv_with_status(self, source: int = ANY_SOURCE, tag: Any = ANY_TAG):
        """Blocking receive; returns (payload, source, tag)."""
        if source != ANY_SOURCE and not (0 <= source < self.size):
            raise ValueError(f"invalid source rank {source}")
        src, t, payload = yield self._queue.post(source, tag)
        pb = self.comm.sim.probe
        if pb is not None and CAT_AUDIT in pb.heard:
            pb.instant(CAT_AUDIT, "recv", key=self._hb_key(src, self.rank, t))
        return payload, src, t

    def irecv(self, source: int = ANY_SOURCE, tag: Any = ANY_TAG):
        """Nonblocking receive: returns an event firing with
        (src, tag, payload); yield it later to complete."""
        if source != ANY_SOURCE and not (0 <= source < self.size):
            raise ValueError(f"invalid source rank {source}")
        return self._queue.post(source, tag)

    # -- collectives -----------------------------------------------------
    def _next_seq(self) -> int:
        seq = self.comm._coll_seq[self.rank]
        self.comm._coll_seq[self.rank] = seq + 1
        return seq

    def _observed(self, name: str, gen, **args):
        """*gen* as one ``mpi-coll`` phase of the calling thread, then one
        ``mpi`` span *name* — the form a collective takes while anybody
        listens on the probe bus."""
        sim = self.comm.sim
        t0 = sim.now
        result = yield from bracket(sim, PH_MPI_COLL, gen)
        pb = sim.probe
        if pb is not None and "mpi" in pb.heard:
            pb.span("mpi", name, t0, node=self.rank, **args)
        return result

    def bcast(self, value: Any, root: int = 0):
        """MPI_Bcast via binomial tree; returns the broadcast value."""
        if self.comm.sim.probe is None:
            return self._bcast(value, root)
        return self._observed("bcast", self._bcast(value, root), root=root)

    def _bcast(self, value: Any, root: int):
        self.comm.n_collectives += 1
        seq = self._next_seq()
        tag = ("coll", seq, "bc")
        p, rank = self.size, self.rank
        if p == 1:
            return value
        rel = (rank - root) % p
        mask = 1
        while mask < p:
            if rel & mask:
                src = (rank - mask) % p
                value = yield from self.recv(source=src, tag=tag)
                break
            mask <<= 1
        mask >>= 1
        while mask > 0:
            if rel + mask < p:
                dst = (rank + mask) % p
                yield from self.send(value, dst, tag=tag)
            mask >>= 1
        return value

    def reduce(self, value: Any, op: ReduceOp = SUM, root: int = 0):
        """MPI_Reduce via binomial tree; root returns the reduction, others None."""
        if self.comm.sim.probe is None:
            return self._reduce(value, op, root)
        return self._observed("reduce", self._reduce(value, op, root), root=root)

    def _reduce(self, value: Any, op: ReduceOp, root: int):
        self.comm.n_collectives += 1
        seq = self._next_seq()
        tag = ("coll", seq, "rd")
        p, rank = self.size, self.rank
        if p == 1:
            return value
        rel = (rank - root) % p
        acc = value
        mask = 1
        while mask < p:
            if rel & mask == 0:
                src_rel = rel | mask
                if src_rel < p:
                    src = (src_rel + root) % p
                    other = yield from self.recv(source=src, tag=tag)
                    acc = op(acc, other)
            else:
                dst = ((rel & ~mask) + root) % p
                yield from self.send(acc, dst, tag=tag)
                return None
            mask <<= 1
        return acc

    def allreduce(self, value: Any, op: ReduceOp = SUM):
        """MPI_Allreduce = binomial reduce to 0 + binomial bcast.

        Implies full inter-process synchronisation (every rank's return
        depends on every rank's contribution) — the property ParADE uses to
        drop explicit barriers (§5.2.1).
        """
        if self.comm.sim.probe is None:
            return self._allreduce(value, op)
        return self._observed_allreduce(value, op)

    def _allreduce(self, value: Any, op: ReduceOp):
        acc = yield from self._reduce(value, op, 0)
        return (yield from self._bcast(acc, 0))

    def _observed_allreduce(self, value: Any, op: ReduceOp):
        sim = self.comm.sim
        t0 = sim.now
        acc = yield from self.reduce(value, op=op, root=0)
        result = yield from self.bcast(acc, root=0)
        pb = sim.probe
        if pb is not None and "mpi" in pb.heard:
            pb.span("mpi", "allreduce", t0, node=self.rank)
        return result

    def barrier(self):
        """MPI_Barrier as a zero-payload allreduce."""
        yield from self.allreduce(0, op=SUM)

    def gather(self, value: Any, root: int = 0):
        """Root returns the list of per-rank values, others None."""
        self.comm.n_collectives += 1
        seq = self._next_seq()
        tag = ("coll", seq, "ga")
        if self.size == 1:
            return [value]
        if self.rank == root:
            out: List[Any] = [None] * self.size
            out[root] = value
            for _ in range(self.size - 1):
                payload, src, _t = yield from self.recv_with_status(tag=tag)
                out[src] = payload
            return out
        yield from self.send(value, root, tag=tag)
        return None

    def allgather(self, value: Any):
        """All ranks return the list of per-rank values."""
        gathered = yield from self.gather(value, root=0)
        result = yield from self.bcast(gathered, root=0)
        return result

    def scatter(self, values: Optional[List[Any]], root: int = 0):
        """Root supplies one value per rank; every rank returns its own."""
        self.comm.n_collectives += 1
        seq = self._next_seq()
        tag = ("coll", seq, "sc")
        if self.size == 1:
            assert values is not None
            return values[0]
        if self.rank == root:
            if values is None or len(values) != self.size:
                raise ValueError("scatter root needs one value per rank")
            for r in range(self.size):
                if r != root:
                    yield from self.send(values[r], r, tag=tag)
            return values[root]
        got = yield from self.recv(source=root, tag=tag)
        return got
