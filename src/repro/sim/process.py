"""Generator-driven processes.

A :class:`Process` wraps a generator.  Yielding an :class:`Event` suspends
the process until the event fires; a failed event is thrown into the
generator as an exception.  ``return value`` inside the generator sets the
process's own event value (a process *is* an event, so processes can wait on
each other).
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Optional

from repro.sim.events import Event, Interrupted, PENDING, URGENT
from repro.sim.probe import CAT_AUDIT


class Process(Event):
    """An event that fires when its generator terminates."""

    __slots__ = ("_gen", "_target", "_wake", "label")

    def __init__(self, sim, generator, label: str = ""):
        if not isinstance(generator, GeneratorType):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__} "
                "(did you forget a 'yield' in the process function?)"
            )
        super().__init__(sim)
        self._gen = generator
        self._target: Optional[Event] = None
        #: the bound resume callback, created once: every block appends it
        #: to the awaited event's callbacks
        self._wake = self._resume
        self.label = label or getattr(generator, "__name__", "process")
        # Kick-start at current time.
        init = Event(sim, name=f"init:{self.label}")
        init._ok = True
        init._value = None
        sim.schedule(init, delay=0.0, priority=URGENT)
        init.add_callback(self._start)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the process at the current time.

        Only valid while the process is suspended on an event that has not
        yet fired.  The interrupted process stops waiting on its target (the
        target event itself is unaffected).
        """
        if self.triggered:
            raise RuntimeError(f"cannot interrupt terminated process {self.label}")
        ev = Event(self.sim, name=f"interrupt:{self.label}")
        ev._ok = False
        ev._value = Interrupted(cause)
        ev._defused = True
        self.sim.schedule(ev, delay=0.0, priority=URGENT)
        ev.add_callback(self._wake)

    # ------------------------------------------------------------------
    def _start(self, init: Event) -> None:
        """The init event: the thread exists from here (``audit/thread-start``,
        once), then runs to its first block."""
        pb = self.sim.probe
        if pb is not None and CAT_AUDIT in pb.heard:
            pb.instant(CAT_AUDIT, "thread-start", tid=self.label)
        self._resume(init)

    def _ended(self, ok: bool) -> None:
        """The generator terminated: ``audit/thread-end`` and, for a
        recorder of the scheduling category, ``sim/end``."""
        pb = self.sim.probe
        if pb is not None:
            if CAT_AUDIT in pb.heard:
                pb.instant(CAT_AUDIT, "thread-end", tid=self.label)
            if "sim" in pb.heard:
                pb.instant("sim", "end", tid=self.label, ok=ok)

    def _resume(self, event: Event) -> None:
        if self._value is not PENDING:  # triggered, without the property hop
            # Interrupted after termination or double-resume: ignore.
            return
        # Detach from a previous target when resumed by an interrupt.
        target = self._target
        if target is not None:
            self._target = None
            if target is not event and target.callbacks is not None:
                try:
                    target.callbacks.remove(self._wake)
                except ValueError:
                    pass

        sim = self.sim
        pb = sim.probe
        if pb is not None and "sim" not in pb.heard:
            pb = None
        prev_active = sim.active_process
        sim.active_process = self
        if pb is not None:
            pb.instant("sim", "resume", tid=self.label)
        gen = self._gen
        try:
            while True:
                try:
                    if event._ok:
                        next_ev = gen.send(event._value)
                    else:
                        event._defused = True
                        next_ev = gen.throw(event._value)
                except StopIteration as stop:
                    self._ended(True)
                    self.succeed(stop.value, priority=URGENT)
                    return
                except BaseException as exc:
                    # Unhandled failure inside the process: fail the process
                    # event.  If nobody waits on it the simulator will crash
                    # loudly when it processes the failure.
                    self._ended(False)
                    self.fail(exc, priority=URGENT)
                    return

                try:
                    cbs = next_ev.callbacks
                except AttributeError:
                    exc = TypeError(
                        f"process {self.label!r} yielded {next_ev!r}; "
                        "processes may only yield Events"
                    )
                    event = Event(self.sim)
                    event._ok = False
                    event._value = exc
                    continue

                if cbs is None:  # processed: continue
                    # synchronously with its outcome
                    event = next_ev
                    continue

                cbs.append(self._wake)
                self._target = next_ev
                if pb is not None:
                    pb.instant(
                        "sim",
                        "block",
                        tid=self.label,
                        target=next_ev.name
                        or getattr(next_ev, "label", "")
                        or next_ev.__class__.__name__,
                    )
                return
        finally:
            sim.active_process = prev_active

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "done" if self.processed else "finishing" if self.triggered else "running"
        )
        return f"<Process {self.label} {state}>"
