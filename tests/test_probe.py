"""The probe bus (:mod:`repro.sim.probe`): lifecycle, routing, the
kernel query, the detached-is-free contract, the facts-have-consumers
guard, and the source scans that keep per-observer slots and the second
burst path from growing back."""

from __future__ import annotations

import ast
import collections
import pathlib
import re
import time

import pytest

from repro.apps import cg
from repro.metrics import Metrics
from repro.mpi.ops import SUM
from repro.profile import Profiler, ProfileReport
from repro.runtime import ParadeRuntime
from repro.sanitizer import Sanitizer
from repro.sim import Hold, Process, Resource, Simulator
from repro.sim.probe import CAT_AUDIT, ProbeBus, subscribe, unsubscribe
from repro.trace import TraceRecorder

from test_determinism_golden import (
    OBSERVER_GOLDENS,
    OBSERVER_ORDER,
    _cg_workload,
    _observer_golden,
    _sha,
    _trace_digest,
    observed_snapshot,
)

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"


def _attach(observer: str, rt: ParadeRuntime):
    return {
        "trace": lambda: TraceRecorder(rt.sim, capacity=1 << 16),
        "sanitizer": lambda: Sanitizer(
            rt.sim, n_nodes=rt.cluster.n_nodes, page_size=rt.cluster.config.page_size
        ),
        "profiler": lambda: Profiler(rt.sim, record_intervals=False),
        "metrics": lambda: Metrics(rt.sim),
    }[observer]()


# ------------------------------------------------------------ detached is free
@pytest.mark.parametrize("observer", ["trace", "sanitizer", "profiler", "metrics"])
def test_detached_run_pays_no_observer_overhead(observer):
    """Every instrumentation site is guarded by ``sim.probe is None``, so
    a run with nothing subscribed must not be slower than the same run
    with *observer* attached (best-of-3 each; generous margin for host
    noise) — the wall-clock face of the zero-cost-when-detached contract."""

    def best_of(n, attached):
        best = float("inf")
        for _ in range(n):
            rt = ParadeRuntime(n_nodes=2, pool_bytes=1 << 21)
            if attached:
                _attach(observer, rt)
            else:
                assert rt.sim.probe is None
            t0 = time.perf_counter()
            rt.run(cg.make_program("T", niter=1))
            best = min(best, time.perf_counter() - t0)
        return best

    plain = best_of(3, attached=False)
    observed = best_of(3, attached=True)
    assert plain <= observed * 1.5, (
        f"detached run ({plain:.3f}s) slower than with {observer} attached "
        f"({observed:.3f}s): a hook is doing work while detached"
    )


def test_nothing_subscribed_means_no_bus_from_start_to_finish():
    """The deterministic face of the same contract."""
    rt = ParadeRuntime(n_nodes=2, pool_bytes=1 << 20)
    seen = []

    def program(ctx):
        x = ctx.shared_scalar("x")

        def body(tc, x):
            seen.append(rt.sim.probe)
            yield from tc.critical_update(x, 1.0, SUM)
            seen.append(rt.sim.probe)

        seen.append(rt.sim.probe)
        yield from ctx.parallel(body, x)
        seen.append(rt.sim.probe)

    assert rt.sim.probe is None
    rt.run(program)
    assert rt.sim.probe is None
    assert len(seen) > 4 and all(pb is None for pb in seen)


def test_unsubscribing_everything_returns_to_no_bus():
    rt = ParadeRuntime(n_nodes=2, pool_bytes=1 << 20)
    observers = [_attach(o, rt) for o in ("trace", "sanitizer", "profiler", "metrics")]
    assert rt.sim.probe.subscribers == tuple(observers)
    for obs in observers[:-1]:
        obs.detach()
        assert rt.sim.probe is not None
    observers[-1].detach()
    assert rt.sim.probe is None
    observers[0].detach()  # a stranger leaving is harmless
    assert rt.sim.probe is None


# ------------------------------------------------------------------ lifecycle
def _two_region_program(between):
    """Two parallel regions (critical updates, then a shared-array sweep)
    with *between* called from the master between them."""

    def program(ctx):
        x = ctx.shared_scalar("x")
        arr = ctx.shared_array("arr", (2048,))

        def count(tc, x):
            for _ in range(3):
                yield from tc.critical_update(x, 1.0, SUM)

        def sweep(tc, arr):
            lo, hi = tc.for_range(0, 2048)
            view = tc.array(arr)
            yield from view.set([float(tc.tid)] * (hi - lo), start=lo)
            yield from tc.barrier()
            got = yield from view.get()
            return float(got.sum())

        yield from ctx.parallel(count, x)
        between()
        sums = yield from ctx.parallel(sweep, arr)
        return sums[0]

    return program


def _run_pair(first: str, second: str, detach_second: bool):
    rt = ParadeRuntime(n_nodes=4, mode="sdsm", pool_bytes=1 << 20)
    kept = _attach(first, rt)
    other = _attach(second, rt) if second else None
    rt.run(_two_region_program(
        (lambda: other.detach()) if detach_second else (lambda: None)
    ))
    return rt, kept, other


def _output(observer: str, obs):
    if observer == "trace":
        return obs.n_emitted, _trace_digest(obs.events)
    if observer == "sanitizer":
        return obs.format_report()
    if observer == "profiler":
        return _sha(ProfileReport.from_profiler(obs).as_dict())
    obs.finalize()
    return _sha(obs.dump())


@pytest.mark.parametrize(
    "kept,dropped",
    [("trace", "profiler"), ("profiler", "trace"),
     ("sanitizer", "metrics"), ("metrics", "sanitizer")],
)
def test_detaching_one_mid_run_leaves_the_other_a_solo_run(kept, dropped):
    _, solo, _ = _run_pair(kept, "", detach_second=False)
    rt, survivor, gone = _run_pair(kept, dropped, detach_second=True)
    assert rt.sim.probe.subscribers == (survivor,)
    assert _output(kept, survivor) == _output(kept, solo)
    # and the one that left saw a strict prefix of its own solo run
    _, gone_solo, _ = _run_pair(dropped, "", detach_second=False)
    assert _output(dropped, gone) != _output(dropped, gone_solo)


@pytest.mark.parametrize("workload", sorted(OBSERVER_GOLDENS))
def test_subscription_order_changes_no_output(workload):
    """The observer golden was recorded with one attach order; the
    reverse order must reproduce it byte for byte."""
    assert observed_snapshot(workload, order=OBSERVER_ORDER[::-1]) == (
        _observer_golden(workload)
    )


# -------------------------------------------------------------------- routing
class _Listener:
    """Consumes exactly the kinds it was given."""

    def __init__(self, sim, kinds):
        self.kinds = set(kinds)
        self.categories = {cat for cat, _ in self.kinds}
        self.heard = []
        subscribe(sim, self)

    def handler_for(self, cat, name):
        if (cat, name) in self.kinds:
            return lambda args, node, tid, t0, ph: self.heard.append((cat, name))
        return None


def test_subscriber_receives_only_the_kinds_it_declared():
    rt = ParadeRuntime(n_nodes=2, pool_bytes=1 << 20)
    wanted = {("dsm.page", "twin"), (CAT_AUDIT, "fork"), ("mpi", "bcast")}
    picky = _Listener(rt.sim, wanted | {("no", "such-kind")})
    everything = TraceRecorder(rt.sim, capacity=1 << 16)
    rt.run(_two_region_program(lambda: None))
    assert set(picky.heard) == wanted
    twins = sum(1 for ev in everything.events if ev.name == "twin")
    assert picky.heard.count(("dsm.page", "twin")) == twins > 0
    # audit kinds are not trace kinds: the recorder never saw them
    assert all(ev.cat != CAT_AUDIT for ev in everything.events)


def test_fact_reaches_every_consumer_once_in_subscription_order():
    sim = Simulator()
    log = []

    class Tap:
        categories = {"x"}

        def __init__(self, tag):
            self.tag = tag
            subscribe(sim, self)

        def handler_for(self, cat, name):
            return lambda args, node, tid, t0, ph: log.append(
                (self.tag, cat, name, dict(args), node, tid, t0, ph)
            )

    a, b = Tap("a"), Tap("b")
    subscribe(sim, a)  # subscribing twice is a no-op
    assert sim.probe.subscribers == (a, b) and sim.probe.heard == {"x"}
    sim.probe.instant("x", "point", node=3, k=1)
    sim.probe.span("x", "span", 0.5, tid="t", k=2)
    sim.probe.counter("x", "series", depth=7)
    assert log == [
        ("a", "x", "point", {"k": 1}, 3, None, None, None),
        ("b", "x", "point", {"k": 1}, 3, None, None, None),
        ("a", "x", "span", {"k": 2}, -1, "t", 0.5, None),
        ("b", "x", "span", {"k": 2}, -1, "t", 0.5, None),
        ("a", "x", "series", {"depth": 7}, -1, "counters", None, "C"),
        ("b", "x", "series", {"depth": 7}, -1, "counters", None, "C"),
    ]


# -------------------------------------------------------------- kernel query
class _StepConsumer:
    categories = ()

    def handler_for(self, cat, name):
        return self.on_step if (cat, name) == ("kernel", "step") else None

    def on_step(self, now, depth):
        pass


def _burst_is_kernel_resident(sim) -> bool:
    """Is a ``Resource.execute`` burst one :class:`Hold` right now?"""
    gen = Resource(sim, capacity=1).execute(1e-6)
    first = next(gen)
    gen.close()
    return isinstance(first, Hold)


def test_queries_flip_exactly_when_a_consumer_comes_or_goes():
    """``steps`` follows the subscriber set; a burst is kernel-resident
    whoever is subscribed."""
    sim = Simulator()
    assert sim.probe is None and _burst_is_kernel_resident(sim)

    steps = _StepConsumer()
    subscribe(sim, steps)
    assert isinstance(sim.probe, ProbeBus)
    assert sim.probe.steps == (steps.on_step,) and _burst_is_kernel_resident(sim)

    rec = TraceRecorder(sim)
    assert sim.probe.steps == (steps.on_step, rec._on_step)
    assert _burst_is_kernel_resident(sim)

    unsubscribe(sim, steps)
    assert sim.probe.steps == (rec._on_step,) and _burst_is_kernel_resident(sim)

    rec.detach()
    assert sim.probe is None and _burst_is_kernel_resident(sim)


@pytest.mark.parametrize(
    "observer,steps,phases",
    [("trace", True, False), ("profiler", False, True),
     ("metrics", True, False), ("sanitizer", False, False)],
)
def test_stock_observers_answer_the_queries_like_the_old_slots(
    observer, steps, phases
):
    """Same rule as before the bus: exact ``events_processed`` iff trace
    or metrics; a burst states its phases iff profiler — and is one
    ``Hold`` under all four."""
    rt = ParadeRuntime(n_nodes=1, pool_bytes=1 << 20)
    _attach(observer, rt)
    assert bool(rt.sim.probe.steps) is steps
    assert ("phase" in rt.sim.probe.heard) is phases
    assert _burst_is_kernel_resident(rt.sim)


# ------------------------------------------- an observed run pays for no more
class _CountingBus(ProbeBus):
    """Tallies every stated fact by kind, and those no handler consumed."""

    made = []

    def __init__(self):
        self.facts = collections.Counter()  # instant / span / counter
        self.phase_facts = collections.Counter()
        self.unheard = collections.Counter()
        _CountingBus.made.append(self)
        super().__init__()

    def _rewire(self):
        super()._rewire()
        for name in ("push", "replace", "pop"):
            setattr(self, name, self._counted_phase(name, getattr(self, name)))

    def _counted_phase(self, name, deliver):
        def state(*phase):
            self.phase_facts[name] += 1
            if not self._routes["phase", name]:
                self.unheard["phase", name] += 1
            deliver(*phase)

        return state

    def _count(self, cat, name):
        self.facts[cat, name] += 1
        if not self._routes[cat, name]:
            self.unheard[cat, name] += 1

    def instant(self, cat, name, *args, **kw):
        self._count(cat, name)
        super().instant(cat, name, *args, **kw)

    def span(self, cat, name, *args, **kw):
        self._count(cat, name)
        super().span(cat, name, *args, **kw)

    def counter(self, cat, name, *args, **kw):
        self._count(cat, name)
        super().counter(cat, name, *args, **kw)


@pytest.fixture
def counting(monkeypatch):
    """Every bus created from here on counts; ``resumes[0]`` counts
    ``Process._resume`` calls.  Returns ``(buses, resumes)``."""
    monkeypatch.setattr("repro.sim.probe.ProbeBus", _CountingBus)
    monkeypatch.setattr(_CountingBus, "made", [])
    resumes = [0]
    resume = Process._resume

    def counted(self, event):
        resumes[0] += 1
        resume(self, event)

    monkeypatch.setattr(Process, "_resume", counted)
    return _CountingBus.made, resumes


def test_an_observed_run_states_only_facts_somebody_consumes(counting):
    """The observer-golden CG run, all four attached: every stated kind
    has a consumer, the assembled facts (``instant`` / ``span`` /
    ``counter``; the profiler's phase brackets on top) stay under a
    ceiling a per-resume fact would triple, and observing costs no
    process resume — a burst is one resume attached or detached."""
    buses, resumes = counting
    assert observed_snapshot("cg") == _observer_golden("cg")
    (bus,) = buses
    assert not bus.unheard
    assert 50_000 < sum(bus.facts.values()) <= 58_500  # 57 930; was 179 192
    assert not any(cat == "sim" for cat, _ in bus.facts)
    assert bus.phase_facts["push"] == bus.phase_facts["pop"] > bus.phase_facts["replace"] > 0
    attached = resumes[0]

    rt, program = _cg_workload()
    rt.run(program)
    assert len(buses) == 1 and rt.sim.probe is None
    assert resumes[0] - attached == attached == 34_767  # was 60 647 attached


def test_a_profiler_alone_hears_no_scheduling_fact(counting):
    """The profiler's thread-lifecycle kinds are ``audit`` kinds, so with
    only a profiler attached ``Process._resume`` assembles nothing."""
    buses, _ = counting
    rt, program = _cg_workload()
    prof = Profiler(rt.sim)
    rt.run(program)
    (bus,) = buses
    assert "sim" not in bus.heard
    assert not any(cat == "sim" for cat, _ in bus.facts)
    # stated once per thread, not once per resume
    assert (bus.facts[CAT_AUDIT, "thread-start"] == bus.facts[CAT_AUDIT, "thread-end"]
            == len(prof.threads) > 4)


def test_sites_are_told_which_categories_have_a_consumer():
    """``bus.heard`` is the union of the subscribers' categories, so a
    site never assembles a fact of a category nobody consumes."""
    rt = ParadeRuntime(n_nodes=1, pool_bytes=1 << 20)
    san = _attach("sanitizer", rt)
    assert rt.sim.probe.heard == {CAT_AUDIT, "dsm.page", "dsm.barrier"}
    mx = _attach("metrics", rt)
    assert rt.sim.probe.heard == {CAT_AUDIT, "dsm.page", "dsm.barrier", "net", "kernel"}
    san.detach()
    assert rt.sim.probe.heard == {CAT_AUDIT, "net", "kernel"}
    mx.detach()
    rec = _attach("trace", rt)
    assert rt.sim.probe.heard == rec.categories


# ---------------------------------------------------------------- source scan
STACK = ("sim", "cluster", "vm", "dsm", "mpi", "runtime")
OBSERVER_PACKAGES = ("trace", "sanitizer", "profile", "metrics", "chaos")
_SLOT_READ = re.compile(r"\bsim\.(trace|san|prof|metrics|chaos)\b")


def _imports_with_scope(tree):
    """Yield ``(module, enclosing function path)`` for every import."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Import):
                for alias in child.names:
                    yield alias.name, scope
            elif isinstance(child, ast.ImportFrom) and child.module:
                yield child.module, scope
            yield from walk(child, scope)

    yield from walk(tree, ())


def test_stack_has_one_observer_mechanism():
    """Keep it from growing back: below the observers, nothing reads a
    per-observer ``Simulator`` slot and nothing imports an observer
    package — except ``ParadeRuntime.__init__``, which wires them."""
    offences = []
    for pkg in STACK:
        for path in sorted((SRC / pkg).glob("*.py")):
            text = path.read_text()
            rel = f"{pkg}/{path.name}"
            for n, line in enumerate(text.splitlines(), 1):
                if _SLOT_READ.search(line):
                    offences.append(f"{rel}:{n}: reads an observer slot: {line.strip()}")
            for module, scope in _imports_with_scope(ast.parse(text)):
                parts = module.split(".")
                if parts[0] != "repro" or len(parts) < 2:
                    continue
                if parts[1] in OBSERVER_PACKAGES and (
                    rel, scope
                ) != ("runtime/runtime.py", ("ParadeRuntime", "__init__")):
                    offences.append(f"{rel}: imports {module} in {'.'.join(scope) or 'module'}")
    assert not offences, "\n".join(offences)


def test_one_burst_path_and_no_scheduling_query():
    """Keep the fork from growing back: the bus query and the subscriber
    attribute that selected the second burst implementation are named
    nowhere (``tests/conftest.py::reference_execute`` is the only other
    implementation, and it is the oracle)."""
    gone = re.compile("|".join(("scheduling" + "_heard", "watches" + "_scheduling")))
    offences = [
        f"{path.relative_to(REPO)}:{n}: {line.strip()}"
        for top in ("src", "tests", "docs")
        for path in sorted((REPO / top).rglob("*"))
        if path.suffix in (".py", ".md")
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if gone.search(line)
    ]
    assert not offences, "\n".join(offences)


def test_no_function_level_phase_label_imports():
    """The phase labels are module-level names next to the bus; an import
    statement inside a hot function costs a dict lookup per call."""
    offences = []
    for path in sorted(SRC.rglob("*.py")):
        for module, scope in _imports_with_scope(ast.parse(path.read_text())):
            if module == "repro.profile.phases" and scope:
                offences.append(f"{path.relative_to(SRC)}: in {'.'.join(scope)}")
    assert not offences, "\n".join(offences)


def test_simulator_declares_exactly_one_observer_attribute():
    attrs = set(vars(Simulator()))
    assert "probe" in attrs
    assert not attrs & {"trace", "san", "prof", "metrics", "chaos"}
