"""Deterministic discrete-event simulation kernel.

A small, SimPy-flavoured kernel purpose-built for the ParADE reproduction.
Application "threads" (OpenMP threads, DSM protocol handlers, communication
threads) are Python generators driven by :class:`Simulator`.  Every yield
point is an :class:`Event`; code between yields executes atomically in
virtual time, so all protocol-level interleavings (page faults, message
deliveries, barrier arrivals) are explicit events with deterministic
ordering (time, priority, FIFO sequence).

Public surface::

    sim = Simulator()
    proc = sim.process(gen_fn())
    sim.run()

    yield sim.timeout(1e-6)          # advance virtual time
    yield some_event                 # wait for another event
    yield from cpu.execute(2e-6)     # occupy a Resource for a while
    value = yield from subroutine()  # compose generators
"""

from repro.sim.events import Event, Timeout, AllOf, AnyOf, Interrupted
from repro.sim.process import Process
from repro.sim.core import Simulator
from repro.sim.resources import Resource, Request, Hold
from repro.sim.store import Store
from repro.sim.sync import Mutex

__all__ = [
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Interrupted",
    "Process",
    "Simulator",
    "Resource",
    "Request",
    "Hold",
    "Store",
    "Mutex",
]
