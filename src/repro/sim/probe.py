"""The probe bus: the one observer attachment point of a simulation.

``Simulator.probe`` is ``None`` until something subscribes, and again
after the last subscriber leaves.  Instrumentation sites throughout the
stack fetch it once, test it once and state each fact **once**::

    pb = self.sim.probe
    if pb is not None and "dsm.page" in pb.heard:
        pb.instant("dsm.page", "twin", node=self.id, page=page)
        pb.span("dsm.page", "fetch", t0, node=self.id, page=page, nbytes=n)

    yield from bracket(self.sim, PH_FLUSH, self._flush(...))   # phase bracket

A site does not know who listens — only, from :attr:`ProbeBus.heard`,
whether anyone consumes its category at all, so a fact nobody wants is
never assembled.  A fact's **kind** is its trace ``(category, name)``
pair; a subscriber (recorder, sanitizer, profiler, metrics sampler, a
test double) is any object with a ``categories`` set and a
``handler_for(cat, name)`` returning the callable consuming that kind, or
``None``.  Kinds in :data:`CAT_AUDIT` are facts only the analysis
subscribers consume; it is not a trace category, so no recorder's ring
sees them.  ``docs/ARCHITECTURE.md`` ("The probe bus") tabulates every
kind, its consumers and its emitting site.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

_INF = float("inf")

# -- profiler phase labels (taxonomy: repro.profile.phases) ---------------
PH_COMPUTE = "compute"
PH_CPU_WAIT = "cpu-wait"
PH_FAULT_FETCH = "fault-fetch"
PH_FAULT_WORK = "fault-work"
PH_PAGE_WAIT = "page-wait"
PH_FLUSH = "flush"
PH_OVERHEAD = "overhead"
PH_LOCK_WAIT = "lock-wait"
PH_BARRIER = "barrier-wait"
PH_MUTEX_WAIT = "mutex-wait"
PH_TEAM_WAIT = "team-wait"
PH_MPI_COLL = "mpi-coll"
PH_FORK_JOIN = "fork-join"
PH_COMM_SERVICE = "comm-service"
PH_NET_TX = "net-tx"
PH_NET_FLIGHT = "net-flight"
PH_RETRANSMIT = "retransmit-wait"
PH_IDLE = "idle"

#: category of the analysis-only kinds (see module docstring)
CAT_AUDIT = "audit"


def _fan_out(handlers: Tuple):
    """One callable for a handler tuple — the handler itself when alone."""
    if len(handlers) == 1:
        return handlers[0]

    def call(*args):
        for h in handlers:
            h(*args)

    return call


class _Routes(dict):
    """``(cat, name) -> handler tuple``, each kind resolved on first use."""

    def __init__(self, subscribers: Tuple):
        self.subscribers = subscribers

    def __missing__(self, kind):
        handlers = self[kind] = tuple(
            h for h in (s.handler_for(*kind) for s in self.subscribers)
            if h is not None
        )
        return handlers


class ProbeBus:
    """Routes each stated fact to the subscribers that consume its kind
    (a handler tuple resolved on first use, kept until the set changes).

    Handlers are called ``handler(args, node, tid, t0, ph)`` — *args* the
    site's keyword dict (shared, read-only), *tid* ``None`` = the running
    simulation thread, *t0* a span's start, *ph* ``"C"`` for counter
    samples — except the kernel-rate kinds: ``kernel/step``
    (``handler(now, queue_depth)``, from the event loop),
    ``phase/push`` (``handler(phase, active=False)``), ``phase/replace``
    (``handler(phase)``), ``phase/pop`` (``handler()``).  :attr:`steps` is the one kernel decision the bus
    answers from its subscriber set.

    A ``kernel/step`` handler returns when it is next due, as a pair
    ``(events_processed, virtual_time)``: the event loop calls
    :meth:`step` on the first event at which either is reached
    (:attr:`due_n` / :attr:`due_t`, the earliest over the consumers), and
    :meth:`step` calls exactly the consumers that are due.  A consumer
    joining the bus is due at once, so its first call is on the next
    processed event; a consumer called early (the set changed) answers
    with the due it already had.
    """

    __slots__ = ("subscribers", "_routes", "heard", "steps",
                 "push", "replace", "pop", "_due_ns", "_due_ts", "due_n", "due_t")

    def __init__(self):
        #: in subscription order, which is also delivery order
        self.subscribers: Tuple = ()
        self._rewire()

    def _rewire(self) -> None:
        """The subscriber set changed: drop every resolved route and
        re-answer the kernel's question."""
        routes = self._routes = _Routes(self.subscribers)
        #: categories with at least one consumer: what a site tests
        self.heard = frozenset().union(*(s.categories for s in self.subscribers))
        #: ``kernel/step`` consumers; non-empty ⇒ exact ``events_processed``
        self.steps = routes["kernel", "step"]
        #: per consumer, its next due ``events_processed`` / virtual time
        self._due_ns = [0] * len(self.steps)
        self._due_ts = [0.0] * len(self.steps)
        self.due_n, self.due_t = (0, 0.0) if self.steps else (_INF, _INF)
        # phase brackets; ``replace(None)`` swaps in an active copy of the
        # enclosing phase (a raw CPU burst inherits its context), and
        # ``push(None, True)`` pushes one
        self.push = _fan_out(routes["phase", "push"])
        self.replace = _fan_out(routes["phase", "replace"])
        self.pop = _fan_out(routes["phase", "pop"])

    def step(self, n: int, now: float, depth: int) -> None:
        """``kernel/step`` for the consumers due at the *n*-th processed
        event, at virtual time *now* with *depth* events pending."""
        due_ns, due_ts = self._due_ns, self._due_ts
        for i, handler in enumerate(self.steps):
            if n >= due_ns[i] or now >= due_ts[i]:
                due_ns[i], due_ts[i] = handler(now, depth)
        if due_ns is self._due_ns:  # else a handler changed the set: rewired
            self.due_n = min(due_ns)
            self.due_t = min(due_ts)

    # -- facts ------------------------------------------------------------
    def instant(self, cat: str, name: str, node: int = -1,
                tid: Optional[str] = None, **args: Any) -> None:
        """State a point event at the current virtual time."""
        for h in self._routes[cat, name]:
            h(args, node, tid, None, None)

    def span(self, cat: str, name: str, t0: float, node: int = -1,
             tid: Optional[str] = None, **args: Any) -> None:
        """State a completed span that began at virtual time *t0*."""
        for h in self._routes[cat, name]:
            h(args, node, tid, t0, None)

    def counter(self, cat: str, name: str, node: int = -1,
                tid: str = "counters", **values: Any) -> None:
        """State one sample of a numeric series."""
        for h in self._routes[cat, name]:
            h(values, node, tid, None, "C")

    def _bracket(self, phase: str, gen):
        pop = self.pop  # whoever saw the push also sees the pop
        self.push(phase)
        try:
            return (yield from gen)
        finally:
            pop()


def bracket(sim, phase: str, gen):
    """``yield from bracket(sim, phase, gen)``: run generator *gen* as
    one *phase* of the calling simulation thread.  With no phase consumer
    this *is* ``yield from gen`` — the generator is handed back as is."""
    pb = sim.probe
    if pb is None or "phase" not in pb.heard:
        return gen
    return pb._bracket(phase, gen)


def waiting(*events):
    """Generator form of ``yield event`` (for each of *events* in turn;
    returns the last value), so a bare wait can be bracketed."""
    value = None
    for event in events:
        value = yield event
    return value


def subscribe(sim, subscriber) -> None:
    """Start delivering to *subscriber*; creates the bus on first use.
    Subscribing twice is a no-op."""
    bus = sim.probe
    if bus is None:
        bus = sim.probe = ProbeBus()
    if not any(s is subscriber for s in bus.subscribers):
        bus.subscribers += (subscriber,)
        bus._rewire()


def unsubscribe(sim, subscriber) -> None:
    """Stop delivering to *subscriber*; the last one out resets
    ``sim.probe`` to ``None``.  Unsubscribing a stranger is a no-op."""
    bus = sim.probe
    if bus is not None:
        bus.subscribers = tuple(s for s in bus.subscribers if s is not subscriber)
        bus._rewire()
        if not bus.subscribers:
            sim.probe = None


class Subscriber:
    """Mixin for an object with a ``sim`` attribute: ``attach()`` /
    ``detach()``, and ``categories`` / ``handler_for`` answering from a
    ``_handlers`` dict keyed by ``(cat, name)``."""

    __slots__ = ()

    @property
    def categories(self):
        return {cat for cat, _ in self._handlers}

    def handler_for(self, cat: str, name: str):
        return self._handlers.get((cat, name))

    def attach(self):
        subscribe(self.sim, self)
        return self

    def detach(self):
        unsubscribe(self.sim, self)
        return self
