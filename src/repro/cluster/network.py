"""Switched network between nodes.

The switch is a full crossbar (the paper's 3Com / cLAN switches): the only
contention points are the per-node NIC transmit engines and the receiving
node's CPU.  Messages between distinct node pairs flow concurrently.

What happens between the sender's NIC and the receiver's inbox is the
network's **link strategy** (:attr:`Network.link`): ``None``, the perfect
link, is a pure propagation delay; an installed
:class:`repro.chaos.ChaosEngine` plays a lossy link plus the
ack/retransmit layer that hides it.  Either way :meth:`Network.send` is
the single entry and :meth:`Network._deliver` the single exit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.sim.probe import CAT_AUDIT, PH_NET_TX


@dataclass(slots=True)
class Message:
    """A frame in flight (or delivered)."""

    src: int
    dst: int
    nbytes: int
    payload: Any
    tag: Any = None
    seq: int = -1
    send_time: float = 0.0
    deliver_time: float = 0.0
    #: reliability-layer per-(src, dst) sequence number; -1 outside chaos
    #: runs (the perfect network needs no ack/retransmit layer)
    rel_seq: int = -1
    #: ``str(tag)``, formatted once when ``net`` facts are heard at send
    #: and stated by both ``msg-send`` and ``msg-deliver``
    tag_text: Optional[str] = field(default=None, repr=False, compare=False)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Msg #{self.seq} {self.src}->{self.dst} {self.nbytes}B tag={self.tag!r}>"


class Network:
    """Delivers messages between node inboxes with the configured cost model.

    :attr:`link` — ``None`` (perfect) or an object with ``transmit(network,
    msg)`` — is also what comm-thread stalls and DSM re-issue consult.
    """

    #: accounting floor: every message carries headers
    HEADER_BYTES = 42

    def __init__(self, sim, nodes: List, interconnect):
        self.sim = sim
        self.nodes = nodes
        self.interconnect = interconnect
        self._seq = itertools.count()
        self.link = None
        # global statistics
        self.total_messages = 0
        self.total_bytes = 0
        #: per-channel accounting keyed by ``tag[0]`` (the protocol layer:
        #: "dsm", "lock", "barrier", "mpi", ...; ``None`` for untagged
        #: frames) — ``{channel: [messages, bytes]}``.  Feeds the perf
        #: harness's ``msgs_sent``/``bytes_sent`` columns and lets
        #: ``repro.trace diff`` deltas be attributed to one protocol.
        self.channel_stats: Dict[Any, List[int]] = {}

    def send(self, src: int, dst: int, nbytes: int, payload: Any, tag: Any = None):
        """Generator: transmit from the calling thread's context on *src*.

        Charges sender CPU overhead (the caller's thread stalls for it),
        serialises on the source NIC, and schedules delivery into the
        destination inbox after wire time.  Local sends bypass the NIC but
        still pay a small memcpy-scale cost.
        """
        node = self.nodes[src]
        nbytes = max(int(nbytes), 0) + self.HEADER_BYTES
        msg = Message(src, dst, nbytes, payload, tag, next(self._seq), self.sim.now)
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
            msg.tag_text = str(tag)
            pb.instant(
                "net", "msg-send", node=src, dst=dst, nbytes=nbytes,
                tag=msg.tag_text, seq=msg.seq,
            )

        if src == dst:
            # Loopback: no NIC, just a copy cost, delivered immediately.
            # Never handed to the link strategy — a frame that stays on
            # one node does not traverse the (possibly faulty) interconnect.
            yield from node.busy_cpu(0.5e-6 + nbytes * 0.5e-9)
            msg.deliver_time = self.sim.now
            node.msgs_received += 1
            node.bytes_received += nbytes
            if pb is not None and "net" in pb.heard:
                pb.instant(
                    "net", "msg-deliver", node=dst, tid="wire",
                    src=src, nbytes=nbytes, tag=msg.tag_text or str(tag), seq=msg.seq,
                )
            node.inbox.put(msg)
            return msg

        ic = self.interconnect
        # Sender-side protocol processing on a CPU of the calling thread
        # (Interconnect.send_cpu_time, inlined).
        yield from node.busy_cpu(ic.o_send + ic.c_byte_send * nbytes)
        # NIC serialisation: holds the transmit engine for nbytes/bandwidth.
        tx_time = nbytes / ic.bandwidth
        t0 = self.sim.now
        # the engine-queue wait and the transmit occupancy are both net-tx
        yield from node.nic_tx.execute(tx_time, 0, PH_NET_TX, PH_NET_TX)
        if pb is not None and "net" in pb.heard:
            pb.span("net", "nic-tx", t0, node=src, dst=dst, nbytes=nbytes, seq=msg.seq)
        link = self.link
        if link is not None:
            # Fault-injected path: the chaos engine owns propagation —
            # it may drop, duplicate, delay, or corrupt the frame, and its
            # ack/retransmit layer guarantees exactly-once in-order
            # delivery into the inbox via _deliver.
            link.transmit(self, msg)
            return msg
        # Propagation through the switch: pure delay, then delivery.
        self.sim.call_later(ic.latency, self._deliver, msg)
        return msg

    def _deliver(self, msg: Message, flight_t0: Optional[float] = None) -> None:
        """Terminal delivery into the destination inbox.

        Every remote frame — perfect-link or chaos-recovered — funnels
        through here, so receive accounting, the ``msg-deliver`` instant
        and the flight interval cannot be skipped by any delivery path.
        *flight_t0* is the virtual time the frame entered the switch;
        ``None`` means one nominal latency ago (the perfect-link case).
        """
        now = msg.deliver_time = self.sim.now
        node = self.nodes[msg.dst]
        node.msgs_received += 1
        node.bytes_received += msg.nbytes
        pb = self.sim.probe
        if pb is not None and CAT_AUDIT in pb.heard:
            # the switch-propagation leg, on the pseudo-thread "net"
            pb.span(
                CAT_AUDIT, "flight",
                now - self.interconnect.latency if flight_t0 is None else flight_t0,
            )
        if pb is not None and "net" in pb.heard:
            pb.instant(
                "net", "msg-deliver", node=msg.dst, tid="wire", src=msg.src,
                nbytes=msg.nbytes, tag=msg.tag_text or str(msg.tag), seq=msg.seq,
            )
        node.inbox.put(msg)
