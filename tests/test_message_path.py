"""The remote message path without spare Python frames, against the forms
it replaced.

``Network.send`` schedules the flight as one :meth:`Simulator.call_later`
entry, ``RankComm.send`` and the collectives hand back the generator that
waits instead of delegating to it, and the MPI match handler is a plain
function.  None of that may move a queue key: with the old forms
monkeypatched back in (``conftest.use_reference_message_path``) every
remote frame must be sent and delivered at the same virtual instants
with the same sequence number, and every event count, virtual time and
value must be the same — on the Fig 6/7 sync program in both
translations, on CG, and under a lossy chaos link.
"""

from __future__ import annotations

import pytest

from conftest import use_reference_message_path
from repro.cluster.network import Network
from repro.mpi.ops import SUM

_DELIVER = Network._deliver


def _sync_program(iters):
    """The Fig 6/7 ``critical`` and ``single`` loops; returns the counter
    and every value ``single`` handed back."""

    def program(ctx):
        x = ctx.shared_scalar("x")
        v = ctx.shared_scalar("v")
        got = []

        def critical_loop(tc, x):
            for _ in range(iters):
                yield from tc.critical_update(x, 1.0, SUM)

        def single_loop(tc, v):
            for i in range(iters):
                def init(i=i):
                    return float(i)
                    yield  # makes init a generator, as `single` requires

                got.append((yield from tc.single(body_gen_fn=init, shared_scalar=v)))

        yield from ctx.parallel(critical_loop, x)
        total = yield from ctx.scalar(x).get()
        yield from ctx.parallel(single_loop, v)
        return float(total), got

    return program


def _run(monkeypatch, app, mode, nodes, plan):
    from repro.apps import cg
    from repro.chaos.plan import plan_by_name
    from repro.runtime import ParadeRuntime

    frames = []

    def recording_deliver(self, msg, flight_t0=None):
        _DELIVER(self, msg, flight_t0)
        frames.append((msg.seq, msg.send_time, msg.deliver_time))

    monkeypatch.setattr(Network, "_deliver", recording_deliver)
    rt = ParadeRuntime(n_nodes=nodes, mode=mode, pool_bytes=1 << 20, chaos_seed=0,
                       fault_plan=plan_by_name(plan) if plan else None)
    if app == "sync":
        res = rt.run(_sync_program(3))
        value = repr(res.value)
    else:
        res = rt.run(cg.make_program("T", niter=1))
        value = (res.value.zeta.hex(), res.value.rnorm.hex())
    return {
        "frames": frames,
        "events": rt.sim.events_processed,
        "virtual_s": res.elapsed,
        "value": value,
        "messages": res.cluster_stats["total_messages"],
        "chaos": rt.cluster.network.link.stats.as_dict() if plan else None,
    }


@pytest.mark.parametrize("app,mode,nodes,plan", [
    ("sync", "parade", 8, None),
    ("sync", "sdsm", 8, None),
    ("cg", "parade", 4, None),
    ("sync", "parade", 8, "lossy-mix"),  # the Network.link path
])
def test_message_path_matches_the_reference_forms(monkeypatch, app, mode, nodes, plan):
    new = _run(monkeypatch, app, mode, nodes, plan)
    use_reference_message_path(monkeypatch)
    old = _run(monkeypatch, app, mode, nodes, plan)
    assert len(new["frames"]) > 0
    assert new == old


def test_a_remote_mpi_frame_costs_no_generator_in_service():
    """The MPI channel's handler is a plain function: servicing a frame
    makes no generator object (the comm thread runs it as a call)."""
    import inspect

    from repro.testing import build_cluster, build_comm

    cluster = build_cluster(2)
    cts, comm = build_comm(cluster)
    handler = cts[1]._handlers[comm._channel]
    assert not inspect.isgeneratorfunction(handler)
