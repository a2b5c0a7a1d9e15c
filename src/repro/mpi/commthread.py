"""Per-node communication thread.

ParADE dedicates one thread per node to draining asynchronous incoming
messages (§5.3).  Ours is a simulation process that:

1. blocks on the node inbox,
2. charges the receiver-side CPU cost of the message (competing with the
   node's compute threads for a CPU — the crux of the paper's
   1Thread-1CPU vs 1Thread-2CPU comparison),
3. dispatches by channel to a registered handler (MPI matching, DSM page
   server, lock manager, barrier manager...).

Handlers run *inline* in the communication thread, so protocol service
on a node is serialised exactly like the real single comm thread.  A
handler that needs virtual time (sends, CPU bursts, waits) is a generator
function; one that only updates state in zero time may be a plain
function returning ``None``, and costs no generator per frame.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.sim.probe import PH_COMM_SERVICE

#: sentinel payload that shuts the communication thread down
POISON = object()


class CommThread:
    """Dispatcher process draining one node's inbox."""

    #: grant protocol work ahead of queued compute bursts
    CPU_PRIORITY = -1

    def __init__(self, node, network):
        self.node = node
        self.network = network
        self.sim = node.sim
        self._handlers: Dict[str, Callable] = {}
        self.process = None
        self.messages_handled = 0
        self.service_time = 0.0

    def register(self, channel: str, handler) -> None:
        """Register *handler(msg)* for a tag channel: a generator function,
        or a plain function returning ``None`` (see module docstring).

        Message tags are tuples; ``tag[0]`` selects the channel.
        """
        if channel in self._handlers:
            raise ValueError(f"channel {channel!r} already registered on node {self.node.id}")
        self._handlers[channel] = handler

    def start(self) -> None:
        if self.process is not None:
            raise RuntimeError("comm thread already started")
        self.process = self.sim.process(self._loop(), label=f"comm[{self.node.id}]")

    def shutdown(self) -> None:
        """Deliver the poison pill (processed in FIFO order)."""
        self.node.inbox.put(POISON)

    def _loop(self):
        # one long-lived generator per node: hoist the per-message
        # attribute chains out of the drain loop
        sim = self.sim
        node = self.node
        inbox_get = node.inbox.get
        busy_cpu = node.busy_cpu
        network = self.network
        handlers = self._handlers
        priority = self.CPU_PRIORITY
        while True:
            msg = yield inbox_get()
            if msg is POISON:
                return
            link = network.link
            if link is not None:
                # injected comm-thread stall: the service thread wedges
                # (page-out, interrupt storm ...) before touching the frame
                stall = link.comm_stall(node.id)
                if stall > 0.0:
                    yield sim.timeout(stall)
            t0 = sim.now
            pb = sim.probe
            if pb is not None:
                # the whole drain (recv CPU cost + handler) is one service
                # phase; busy_cpu slices inside inherit the label as active
                # (by hand, not probe.bracket: the loop stays one frame deep)
                pb.push(PH_COMM_SERVICE)
            try:
                # Interconnect.recv_cpu_time, inlined
                ic = network.interconnect
                yield from busy_cpu(ic.o_recv + ic.c_byte_recv * msg.nbytes, priority=priority)
                channel = msg.tag[0] if isinstance(msg.tag, tuple) else msg.tag
                handler = handlers.get(channel)
                if handler is None:
                    raise RuntimeError(
                        f"node {self.node.id}: no handler for channel {channel!r} (msg {msg!r})"
                    )
                service = handler(msg)
                if service is not None:
                    yield from service
            finally:
                if pb is not None:
                    pb.pop()
            self.messages_handled += 1
            self.service_time += sim.now - t0
            if pb is not None and "mpi" in pb.heard:
                # one span per drained message: recv CPU cost + handler run
                pb.span(
                    "mpi", "service", t0, node=self.node.id,
                    channel=str(channel), nbytes=msg.nbytes, src=msg.src,
                )
