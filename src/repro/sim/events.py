"""Event primitives for the simulation kernel.

An :class:`Event` has three phases:

* *pending* — created, not yet triggered;
* *triggered* — a value (or failure) is attached and the event is queued for
  processing at some virtual time;
* *processed* — the simulator popped it off the queue and ran its callbacks.

Processes (see :mod:`repro.sim.process`) suspend by yielding an event and are
resumed by the event's callback with the event's value (or have the failure
exception thrown into their generator).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, List, Optional

#: sentinel for "no value yet"
PENDING = object()

#: scheduling priorities — lower runs first at equal virtual time
URGENT = 0
NORMAL = 1


class SimulationError(Exception):
    """Base class for kernel-level errors."""


class Interrupted(SimulationError):
    """Thrown into a process that was interrupted by another process."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """One-shot occurrence in virtual time.

    Events are created in the *pending* state.  Calling :meth:`succeed` or
    :meth:`fail` *triggers* them: the value is attached and the event is
    queued with the simulator.  Callbacks run when the simulator processes
    the event.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused", "name")

    def __init__(self, sim, name: str = ""):
        self.sim = sim
        #: callables invoked with this event once processed; ``None`` after
        #: processing (attempting to add more raises).
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._defused = False
        self.name = name

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if not self.triggered:
            raise SimulationError(f"event {self!r} not yet triggered")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError(f"event {self!r} has no value yet")
        return self._value

    def defuse(self) -> None:
        """Mark a failure as handled so the kernel does not crash on it."""
        self._defused = True

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        if self._value is not PENDING:  # triggered, without the property hop
            raise SimulationError(f"event {self!r} already triggered")
        self._ok = True
        self._value = value
        # zero-delay schedule inlined (mirrors Simulator.schedule): succeed
        # is the single most frequent scheduling call in the simulator
        sim = self.sim
        if priority == NORMAL:
            sim._immediate.append((sim.now, NORMAL, next(sim._seq), self))
        elif priority == URGENT:
            sim._urgent.append((sim.now, URGENT, next(sim._seq), self))
        else:
            sim.schedule(self, delay=0.0, priority=priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        if self._value is not PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.sim.schedule(self, delay=0.0, priority=priority)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger with the same outcome as *event* (callback helper)."""
        if event.ok:
            self.succeed(event.value)
        else:
            event.defuse()
            self.fail(event.value)

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            raise SimulationError(f"event {self!r} already processed")
        self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        label = self.name or self.__class__.__name__
        return f"<{label} {state} at {id(self):#x}>"


class Timeout(Event):
    """Event that fires after a fixed virtual delay."""

    __slots__ = ("delay",)

    def __init__(self, sim, delay: float, value: Any = None, name: str = ""):
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        # Event.__init__ and the schedule call inlined (mirrors
        # Simulator.schedule): timeouts are created once per CPU burst and
        # wire hop, the second-hottest allocation in the simulator
        self.sim = sim
        self.callbacks = []
        self._defused = False
        self.name = name
        self.delay = delay
        self._ok = True
        self._value = value
        if delay == 0.0:
            sim._immediate.append((sim.now, NORMAL, next(sim._seq), self))
        else:
            heapq.heappush(
                sim._heap, (sim.now + delay, NORMAL, next(sim._seq), self)
            )


class _Condition(Event):
    """Base for AllOf / AnyOf composition events."""

    __slots__ = ("events", "_n_done")

    def __init__(self, sim, events: Iterable[Event]):
        super().__init__(sim)
        self.events: List[Event] = list(events)
        self._n_done = 0
        if not self.events:
            self.succeed(self._collect())
            return
        for ev in self.events:
            if ev.processed:
                self._check(ev)
            else:
                ev.add_callback(self._check)

    def _collect(self) -> dict:
        return {
            i: ev.value
            for i, ev in enumerate(self.events)
            if ev.processed and ev.ok
        }

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires once every constituent event has fired (fails fast on failure)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            event.defuse()
            self.fail(event.value)
            return
        self._n_done += 1
        if self._n_done == len(self.events):
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Fires as soon as any constituent event fires."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            event.defuse()
            self.fail(event.value)
            return
        self.succeed(self._collect())
