"""The chaos engine: seeded fault injection + the reliability layer.

Not an observer — it changes delivery — so the engine lives in the
network's link layer, not on the probe bus::

    engine = ChaosEngine(sim, plan_by_name("drop"), seed=7)
    engine.install(cluster)      # take over cluster.network.link, arm slowdowns
    ... run the program ...
    engine.stats.as_dict()       # injection + recovery counters

Installed, it replaces the network's built-in perfect link:
:meth:`Network.send <repro.cluster.network.Network.send>` hands every
remote frame to :meth:`transmit` instead of scheduling plain switch
propagation, and the code that must tolerate a misbehaving interconnect
(comm-thread stalls, DSM re-issue) finds it as ``network.link``.  The
engine then plays both sides of a lossy link:

**Injection** — per-frame fate draws (drop / corrupt / latency spike /
reorder hold / duplicate) from a per-link RNG stream, deterministic
outage windows (link flap), per-node CPU derating, and comm-thread
stalls.  Every stream is seeded from ``(seed, link)``, and the simulator
itself is deterministic, so one ``(plan, seed)`` pair fully determines
every fault of a run: two chaos runs are bit-identical and
trace-diffable.

**Recovery** — a go-back-none ARQ layer: frames carry per-(src, dst)
sequence numbers (``Message.rel_seq``); the receiving side acks each
arrival (selective ack, cumulative-free), suppresses duplicates, and
holds out-of-order frames in a resequencing buffer so the inbox sees the
exact per-link FIFO order the perfect network guarantees — the order the
MPI match queues and the sanitizer's happens-before channel edges rely
on.  The sending side retransmits on a per-frame timer with exponential
backoff and seeded jitter; a frame that exhausts ``max_retries`` raises
:class:`ChaosDeliveryError` (the bounded-retransmit guarantee the sweep
asserts).

Cost model: acks and retransmissions are NIC-offloaded control traffic —
they pay wire time but do not occupy the transmit engine or charge CPU
(VIA-style hardware reliable delivery).  Injected faults therefore
perturb *when* protocol frames arrive, never *what* they carry, which is
why numerical results must be bit-identical to the fault-free run.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Optional, Tuple

from repro.sim.events import SimulationError
from repro.sim.probe import CAT_AUDIT
from repro.chaos.plan import FaultPlan, ReliabilityConfig
from repro.trace.events import CAT_CHAOS

#: payload-byte estimate used for the DSM re-issue timeout (one page reply)
_DSM_REPLY_BYTES = 4096


class ChaosDeliveryError(SimulationError):
    """A frame exhausted its retransmit budget (link dead beyond repair)."""

    def __init__(self, msg, attempts: int):
        super().__init__(
            f"frame {msg!r} undeliverable after {attempts} attempts "
            f"(rel_seq {msg.rel_seq}, link {msg.src}->{msg.dst})"
        )
        self.msg = msg
        self.attempts = attempts


class ChaosStats:
    """Injection and recovery counters (see docs/RELIABILITY.md).

    ====================  =========================================================
    key                   meaning
    ====================  =========================================================
    frames                remote frames offered to the chaos pipeline
    drops                 frames lost to a random drop draw
    flap_drops            frames (and acks) lost to a link-flap outage window
    corrupts              frames delivered mangled, discarded by the checksum
    delays                frames that took a latency spike
    reorders              frames held so later frames overtook them
    dups_injected         switch-duplicated deliveries injected
    retransmits           sender-side retransmissions (timer fired, no ack)
    max_attempts          worst per-frame transmission count (1 = first try)
    acks_sent             reliability acks put on the wire
    ack_drops             acks lost (random draw or flap) — recovered by dup
                          suppression after the retransmit
    dup_suppressed        receiver-side duplicate frames discarded by rel_seq
    reorder_buffered      frames parked in the resequencing buffer
    dsm_reissues          DSM requests idempotently re-issued after a quiet RTO
    comm_stalls           injected comm-thread service stalls
    slowdown_windows      node CPU-derating windows entered
    ====================  =========================================================
    """

    __slots__ = (
        "frames", "drops", "flap_drops", "corrupts", "delays", "reorders",
        "dups_injected", "retransmits", "max_attempts", "acks_sent",
        "ack_drops", "dup_suppressed", "reorder_buffered", "dsm_reissues",
        "comm_stalls", "slowdown_windows",
    )

    def __init__(self):
        for k in self.__slots__:
            setattr(self, k, 0)

    def as_dict(self) -> Dict[str, int]:
        return {k: getattr(self, k) for k in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        hot = {k: v for k, v in self.as_dict().items() if v}
        return f"<ChaosStats {hot}>"


class _LinkState:
    """Reliability + fate state of one directed (src, dst) link."""

    __slots__ = ("rng", "tx_seq", "rx_next", "rx_buf", "outstanding")

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.tx_seq = 0
        self.rx_next = 0
        #: rel_seq -> buffered out-of-order Message
        self.rx_buf: Dict[int, Any] = {}
        #: rel_seq -> [msg, attempts_so_far, last_send_time]
        self.outstanding: Dict[int, list] = {}


class ChaosEngine:
    """Seeded fault injection + ack/retransmit recovery, bound to one sim.

    Parameters
    ----------
    sim : the simulator whose clock and timers the engine uses
    plan : the :class:`~repro.chaos.plan.FaultPlan` to execute
    seed : integer the per-link / per-node RNG streams derive from; the
        same (plan, seed) pair reproduces every fault bit-for-bit
    reliability : override of the plan's ack/retransmit tuning
    attach : ``False`` makes :meth:`install` bind the network without
        becoming its link strategy (frames then reach the engine only
        through an explicit :meth:`transmit`)
    """

    def __init__(
        self,
        sim,
        plan: FaultPlan,
        seed: int = 0,
        reliability: Optional[ReliabilityConfig] = None,
        attach: bool = True,
    ):
        self.sim = sim
        self.plan = plan
        self.seed = int(seed)
        self.reliability = reliability or plan.reliability
        self.stats = ChaosStats()
        self.network = None
        self._links: Dict[Tuple[int, int], _LinkState] = {}
        self._stall_rngs: Dict[int, random.Random] = {}
        self._attached = attach

    # -- lifecycle ------------------------------------------------------
    def install(self, cluster) -> "ChaosEngine":
        """Bind the cluster's network (taking over its link layer unless
        constructed with ``attach=False``) and arm node-slowdown windows."""
        if self.network not in (None, cluster.network):
            raise RuntimeError("one ChaosEngine cannot serve two networks")
        self.network = cluster.network
        if self._attached:
            self.network.link = self
        for sd in self.plan.slowdowns:
            if not (0 <= sd.node < len(cluster.nodes)):
                raise ValueError(
                    f"slowdown names node {sd.node} but the cluster has "
                    f"{len(cluster.nodes)} nodes"
                )
            node = cluster.nodes[sd.node]

            def begin(node=node, sd=sd):
                node.set_speed_factor(node.speed_factor / sd.factor)
                self.stats.slowdown_windows += 1
                self._note("slowdown-begin", node.id, factor=sd.factor)

            if sd.t0 <= 0.0:
                # derate synchronously: a window open from t=0 must cover
                # the very first compute burst, which may be scheduled
                # ahead of any timer callback
                begin()
            else:
                self.sim.call_later(sd.t0, begin)
            if sd.t1 != float("inf"):

                def end(node=node, sd=sd):
                    node.set_speed_factor(node.speed_factor * sd.factor)
                    self._note("slowdown-end", node.id, factor=sd.factor)

                self.sim.call_later(sd.t1, end)
        return self

    # -- RNG streams ----------------------------------------------------
    def _link(self, src: int, dst: int) -> _LinkState:
        ls = self._links.get((src, dst))
        if ls is None:
            # stable integer stream key: seeding must not depend on
            # process-randomised hashing or on link discovery order
            stream = (self.seed * 1_000_003 + src * 8191 + dst * 131) & 0xFFFFFFFF
            ls = _LinkState(random.Random(stream))
            self._links[(src, dst)] = ls
        return ls

    def _stall_rng(self, node: int) -> random.Random:
        rng = self._stall_rngs.get(node)
        if rng is None:
            rng = random.Random((self.seed * 1_000_003 + 0x57A11 + node * 977) & 0xFFFFFFFF)
            self._stall_rngs[node] = rng
        return rng

    # -- timeouts -------------------------------------------------------
    def _ideal_rtt(self, nbytes: int) -> float:
        ic = self.network.interconnect
        return (
            2.0 * ic.latency
            + nbytes / ic.bandwidth
            + ic.send_cpu_time(nbytes)
            + ic.recv_cpu_time(nbytes)
        )

    def _rto(self, ls: _LinkState, nbytes: int, attempt: int) -> float:
        rel = self.reliability
        rto = max(rel.min_rto, rel.rto_rtts * self._ideal_rtt(nbytes))
        rto *= rel.backoff ** attempt
        return rto * (1.0 + rel.jitter * ls.rng.random())

    def dsm_rto(self) -> float:
        """Quiet time after which a DSM requester idempotently re-issues
        (generous: comm-thread service and CPU contention sit inside it)."""
        rel = self.reliability
        return max(rel.min_rto, rel.dsm_rto_rtts * self._ideal_rtt(_DSM_REPLY_BYTES))

    # -- transmit path --------------------------------------------------
    def transmit(self, network, msg) -> None:
        """Take ownership of one remote frame after NIC serialisation.

        Called by :meth:`Network.send`; assigns the link sequence number,
        registers the frame for ack tracking, launches the first
        transmission attempt through the fault pipeline, and arms the
        retransmit timer.
        """
        ls = self._link(msg.src, msg.dst)
        msg.rel_seq = ls.tx_seq
        ls.tx_seq += 1
        ls.outstanding[msg.rel_seq] = [msg, 1, self.sim.now]
        self.stats.frames += 1
        if self.stats.max_attempts < 1:
            self.stats.max_attempts = 1
        self._launch(ls, msg, attempt=0)
        self._arm_timer(ls, msg, attempt=0)

    def _channel_of(self, msg) -> str:
        tag = msg.tag
        return str(tag[0] if isinstance(tag, tuple) else tag)

    def _launch(self, ls: _LinkState, msg, attempt: int) -> None:
        """One transmission attempt: evaluate the frame's fate, then either
        lose it or schedule its arrival at the receiving link end."""
        sim = self.sim
        ic = self.network.interconnect
        if self.plan.flapped(msg.src, msg.dst, sim.now):
            self.stats.flap_drops += 1
            self._note("flap-drop", msg.src, counters=True,
                       dst=msg.dst, seq=msg.seq, rel_seq=msg.rel_seq)
            return  # the retransmit timer recovers

    # fate draws in a fixed order from the link stream; short-circuiting
    # after a drop is fine for determinism (same seed => same outcomes)
        delay = ic.latency
        if attempt > 0:
            # retransmits pay serialisation as wire time (NIC-offloaded)
            delay += msg.nbytes / ic.bandwidth
        corrupt = False
        f = self.plan.fault_for(msg.src, msg.dst, self._channel_of(msg))
        if f is not None:
            rng = ls.rng
            if f.drop and rng.random() < f.drop:
                self.stats.drops += 1
                self._note("drop", msg.src, counters=True,
                           dst=msg.dst, seq=msg.seq, rel_seq=msg.rel_seq)
                return
            if f.corrupt and rng.random() < f.corrupt:
                corrupt = True
                self.stats.corrupts += 1
            if f.delay and rng.random() < f.delay:
                delay += f.delay_s
                self.stats.delays += 1
                self._note("delay", msg.src, dst=msg.dst, seq=msg.seq, spike=f.delay_s)
            if f.reorder and rng.random() < f.reorder:
                delay += f.reorder_s
                self.stats.reorders += 1
                self._note("reorder-hold", msg.src,
                           dst=msg.dst, seq=msg.seq, hold=f.reorder_s)
            if f.duplicate and rng.random() < f.duplicate:
                self.stats.dups_injected += 1
                self._note("dup", msg.src, dst=msg.dst, seq=msg.seq, rel_seq=msg.rel_seq)
                sim.call_later(delay + 0.5 * ic.latency, self._arrive, ls, msg, False, sim.now)
        sim.call_later(delay, self._arrive, ls, msg, corrupt, sim.now)

    def _arrive(self, ls: _LinkState, msg, corrupt: bool, flight_t0: float) -> None:
        """Receiving link end: checksum, ack, dedup, resequence, deliver."""
        if corrupt:
            # checksum failure: indistinguishable from a drop to the
            # receiver's protocol layers; the sender's timer recovers
            self._note("corrupt-drop", msg.dst, counters=True,
                       src=msg.src, seq=msg.seq, rel_seq=msg.rel_seq)
            return
        seq = msg.rel_seq
        # selective ack for every intact arrival (duplicates re-ack: the
        # first ack may itself have been lost)
        self._send_ack(ls, msg)
        if seq < ls.rx_next or seq in ls.rx_buf:
            self.stats.dup_suppressed += 1
            self._note("dup-suppress", msg.dst, counters=True,
                       src=msg.src, seq=msg.seq, rel_seq=seq)
            return
        if seq > ls.rx_next:
            ls.rx_buf[seq] = (msg, flight_t0)
            self.stats.reorder_buffered += 1
            self._note("resequence-hold", msg.dst,
                       src=msg.src, seq=msg.seq, rel_seq=seq, expected=ls.rx_next)
            return
        # in order: deliver, then drain the resequencing buffer
        self.network._deliver(msg, flight_t0=flight_t0)
        ls.rx_next += 1
        while ls.rx_next in ls.rx_buf:
            held, held_t0 = ls.rx_buf.pop(ls.rx_next)
            self.network._deliver(held, flight_t0=held_t0)
            ls.rx_next += 1

    # -- ack / retransmit ------------------------------------------------
    def _send_ack(self, ls: _LinkState, msg) -> None:
        """Wire-time-only control frame from ``msg.dst`` back to ``msg.src``."""
        sim = self.sim
        self.stats.acks_sent += 1
        lost = self.plan.flapped(msg.dst, msg.src, sim.now)
        if not lost:
            f = self.plan.fault_for(msg.src, msg.dst, self._channel_of(msg))
            if f is not None and f.ack_drop and ls.rng.random() < f.ack_drop:
                lost = True
        if lost:
            self.stats.ack_drops += 1
            self._note("ack-drop", msg.dst, src=msg.src, rel_seq=msg.rel_seq)
            return
        sim.call_later(self.network.interconnect.latency, ls.outstanding.pop, msg.rel_seq, None)

    def _arm_timer(self, ls: _LinkState, msg, attempt: int) -> None:
        self.sim.call_later(self._rto(ls, msg.nbytes, attempt), self._fire, ls, msg, attempt)

    def _fire(self, ls: _LinkState, msg, attempt: int) -> None:
        """Retransmit timer of *attempt*: re-launch the frame unless it
        was acked or a newer attempt owns the timer."""
        seq = msg.rel_seq
        ent = ls.outstanding.get(seq)
        if ent is None or ent[1] != attempt + 1:
            return  # acked, or a newer attempt owns the timer
        if attempt + 1 > self.reliability.max_retries:
            raise ChaosDeliveryError(msg, ent[1])
        ent[1] += 1
        if ent[1] > self.stats.max_attempts:
            self.stats.max_attempts = ent[1]
        self.stats.retransmits += 1
        sim = self.sim
        pb = sim.probe
        if pb is not None and CAT_AUDIT in pb.heard:
            # the wire sat dead from the last attempt to this timer
            pb.span(CAT_AUDIT, "retransmit-wait", ent[2])
        self._note("retransmit", msg.src, counters=True,
                   dst=msg.dst, seq=msg.seq, rel_seq=seq, attempt=ent[1])
        ent[2] = sim.now
        self._launch(ls, msg, attempt + 1)
        self._arm_timer(ls, msg, attempt + 1)

    # -- comm-thread stalls ----------------------------------------------
    def comm_stall(self, node_id: int) -> float:
        """Seconds the comm thread should wedge before servicing the next
        frame (0.0 almost always); called once per drained message."""
        spec = self.plan.stall_for(node_id)
        if spec is None or spec.prob <= 0.0:
            return 0.0
        if self._stall_rng(node_id).random() >= spec.prob:
            return 0.0
        self.stats.comm_stalls += 1
        self._note("comm-stall", node_id, stall=spec.stall_s)
        return spec.stall_s

    # -- observability ----------------------------------------------------
    def _note(self, name: str, node: int, counters: bool = False, **args) -> None:
        """State one injection/recovery instant on the ``chaos`` track, with
        *counters* also a sample of the ``reliability`` series (``ph:"C"``)."""
        pb = self.sim.probe
        if pb is None or CAT_CHAOS not in pb.heard:
            return
        pb.instant(CAT_CHAOS, name, node=node, tid="chaos", **args)
        if counters:
            s = self.stats
            pb.counter(
                CAT_CHAOS, "reliability",
                drops=s.drops + s.flap_drops + s.corrupts,
                dups=s.dup_suppressed,
                retransmits=s.retransmits,
                outstanding=self.outstanding_frames,
            )

    @property
    def outstanding_frames(self) -> int:
        """Frames sent but not yet acked (drains to 0 as timers settle)."""
        return sum(len(ls.outstanding) for ls in self._links.values())

    def summary(self) -> str:
        s = self.stats
        lines = [f"chaos plan {self.plan.name!r} seed {self.seed}:"]
        for k, v in s.as_dict().items():
            if v:
                lines.append(f"  {k:<18}: {v:>8}")
        if len(lines) == 1:
            lines.append("  (nothing injected)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ChaosEngine plan={self.plan.name!r} seed={self.seed} {self.stats!r}>"
