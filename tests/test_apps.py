"""Application tests: sequential references vs cluster-parallel versions,
plus the NPB published verification values."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime import ParadeRuntime, TWO_THREAD_TWO_CPU, ONE_THREAD_ONE_CPU
from repro.apps import ep, cg, helmholtz, md
from repro.apps.nas_random import A, MOD

from conftest import reference_generate, reference_makea, reference_tally


# ------------------------------------------------------------- EP
def test_ep_segments_compose():
    whole = ep.ep_segment(0, 1 << 14)
    left = ep.ep_segment(0, 1 << 13)
    right = ep.ep_segment(1 << 13, 1 << 13)
    assert whole.sx == pytest.approx(left.sx + right.sx, abs=1e-9)
    assert whole.sy == pytest.approx(left.sy + right.sy, abs=1e-9)
    assert np.array_equal(whole.counts, left.counts + right.counts)


def _reference_segment(first_pair, n_pairs, seed):
    """``ep_segment`` composed from the conftest oracles: same jump-ahead,
    same chunking, same accumulation order."""
    state = pow(A, 2 * first_pair, MOD) * seed % MOD
    sx = sy = 0.0
    counts = np.zeros(10)
    for done in range(0, n_pairs, ep.CHUNK_PAIRS):
        u, state = reference_generate(state, 2 * min(ep.CHUNK_PAIRS, n_pairs - done))
        dx, dy, dc = reference_tally(u)
        sx += dx
        sy += dy
        counts += dc
    return sx, sy, counts


#: sizes straddling empty, one pair and the chunk boundary, plus anything
_EP_SIZES = st.sampled_from(
    [0, 1, 2, ep.CHUNK_PAIRS - 1, ep.CHUNK_PAIRS, ep.CHUNK_PAIRS + 1, 2 * ep.CHUNK_PAIRS + 3]
) | st.integers(0, 3 * ep.CHUNK_PAIRS)


@settings(max_examples=25, deadline=None)
@given(first=st.integers(0, 1 << 40), n=_EP_SIZES, seed=st.integers(1, MOD - 1))
def test_ep_segment_is_bit_identical_to_reference(first, n, seed):
    """The one-pass kernels change no bit: sums compared as ``float.hex``,
    counts as bytes, for odd sizes and offsets and any seed."""
    got = ep.ep_segment(first, n, seed)
    sx, sy, counts = _reference_segment(first, n, seed)
    assert (got.sx.hex(), got.sy.hex()) == (sx.hex(), sy.hex())
    assert got.counts.tobytes() == counts.tobytes()
    assert got.n_pairs == n


@pytest.mark.slow
def test_ep_class_s_matches_published_sums():
    res = ep.ep_reference("S")
    assert res.verify("S", rtol=1e-10)


def test_ep_verify_rejects_wrong_sums():
    res = ep.EpResult(sx=0.0, sy=0.0, counts=np.zeros(10), n_pairs=1)
    assert not res.verify("S")
    with pytest.raises(KeyError):
        res.verify("T")


@pytest.mark.parametrize("mode", ["parade", "sdsm"])
def test_ep_parallel_matches_reference(mode):
    ref = ep.ep_segment(0, 1 << 16)
    rt = ParadeRuntime(n_nodes=4, mode=mode, pool_bytes=1 << 20)
    res = rt.run(ep.make_program("T"))
    assert res.value.sx == pytest.approx(ref.sx, abs=1e-8)
    assert res.value.sy == pytest.approx(ref.sy, abs=1e-8)
    assert np.array_equal(res.value.counts, ref.counts)


def test_ep_counts_sum_to_accepted_pairs():
    res = ep.ep_segment(0, 1 << 14)
    # acceptance rate of the polar method is pi/4
    accepted = res.counts.sum()
    assert 0.7 < accepted / res.n_pairs < 0.85


# ------------------------------------------------------------- CG
def test_cg_matrix_is_symmetric_with_finite_zeta():
    a = cg.make_matrix("T")
    na = cg.CLASSES["T"][0]
    assert a.shape == (na, na)
    asym = abs(a - a.T)
    assert asym.max() < 1e-12
    ref = cg.cg_reference("T", a=a)
    assert np.isfinite(ref.zeta)


def _csr_bytes(a):
    return a.shape, [(x.dtype.str, x.tobytes()) for x in (a.indptr, a.indices, a.data)]


def _traced_peak(build, klass):
    """(matrix, tracemalloc peak bytes) of one build."""
    tracemalloc.start()
    try:
        a = build(klass)
        return a, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("klass", ["T", "S", pytest.param("W", marks=pytest.mark.slow),
                                   pytest.param("A", marks=pytest.mark.slow)])
def test_cg_make_matrix_is_byte_identical_to_reference_makea(klass):
    """The array ``makea`` hands scipy the loop's triplets in the loop's
    order, so the CSR is the same to the byte; at class S it also holds at
    most half the traced memory at its peak (a count, not a clock)."""
    if klass == "S":
        got, peak = _traced_peak(cg.make_matrix, klass)
        want, ref_peak = _traced_peak(reference_makea, klass)
        assert peak <= ref_peak / 2, (peak, ref_peak)
    else:
        got, want = cg.make_matrix(klass), reference_makea(klass)
    assert _csr_bytes(got) == _csr_bytes(want)


@pytest.mark.slow
def test_cg_class_s_matches_published_zeta():
    res = cg.cg_reference("S")
    assert res.verify(tol=1e-10), res.zeta


def test_cg_parallel_matches_sequential():
    a = cg.make_matrix("T")
    seq = cg.cg_reference("T", a=a, niter=3)
    rt = ParadeRuntime(n_nodes=4, pool_bytes=1 << 21)
    res = rt.run(cg.make_program("T", a=a, niter=3))
    assert res.value.zeta == pytest.approx(seq.zeta, abs=1e-9)
    assert res.value.rnorm == pytest.approx(seq.rnorm, rel=1e-6, abs=1e-12)


def test_cg_parallel_single_node_degenerate():
    a = cg.make_matrix("T")
    seq = cg.cg_reference("T", a=a, niter=2)
    rt = ParadeRuntime(n_nodes=1, exec_config=ONE_THREAD_ONE_CPU, pool_bytes=1 << 21)
    res = rt.run(cg.make_program("T", a=a, niter=2))
    assert res.value.zeta == pytest.approx(seq.zeta, abs=1e-9)


def test_cg_sdsm_two_nodes_matches_sequential():
    """Diverged (zeta 5.99998 vs 5.26239) from PR 11 until the lock path
    stopped losing writes: see tests/test_lock_lost_update.py."""
    a = cg.make_matrix("T")
    seq = cg.cg_reference("T", a=a, niter=2)
    rt = ParadeRuntime(n_nodes=2, mode="sdsm", pool_bytes=1 << 21)
    res = rt.run(cg.make_program("T", a=a, niter=2))
    assert res.value.zeta == pytest.approx(seq.zeta, abs=1e-9)
    assert res.value.rnorm == pytest.approx(seq.rnorm, rel=1e-6, abs=1e-12)


# ------------------------------------------------------------- Helmholtz
def test_helmholtz_reference_converges_toward_exact_solution():
    coarse = helmholtz.helmholtz_reference(n=24, m=24, max_iters=400)
    late = coarse.solution_error()
    early = helmholtz.helmholtz_reference(n=24, m=24, max_iters=20).solution_error()
    assert late < early  # Jacobi iteration reduces the error


def test_helmholtz_error_decreases_monotonically():
    r1 = helmholtz.helmholtz_reference(n=32, m=32, max_iters=10)
    r2 = helmholtz.helmholtz_reference(n=32, m=32, max_iters=30)
    assert r2.error < r1.error


def test_helmholtz_parallel_matches_sequential():
    seq = helmholtz.helmholtz_reference(n=32, m=32, max_iters=25)
    rt = ParadeRuntime(n_nodes=4, pool_bytes=1 << 21)
    res = rt.run(helmholtz.make_program(n=32, m=32, max_iters=25))
    assert res.value.iterations == seq.iterations
    assert np.allclose(res.value.u, seq.u, atol=1e-12)
    assert res.value.error == pytest.approx(seq.error, rel=1e-9)


def test_helmholtz_parallel_respects_tolerance_termination():
    # loose tolerance: should stop before max_iters, consistently everywhere
    seq = helmholtz.helmholtz_reference(n=24, m=24, tol=1e-4, max_iters=500)
    assert seq.iterations < 500
    rt = ParadeRuntime(n_nodes=2, pool_bytes=1 << 21)
    res = rt.run(helmholtz.make_program(n=24, m=24, tol=1e-4, max_iters=500))
    assert res.value.iterations == seq.iterations


# ------------------------------------------------------------- MD
def test_md_reference_is_deterministic():
    a = md.md_reference(n_particles=16, steps=3)
    b = md.md_reference(n_particles=16, steps=3)
    assert np.array_equal(a.pos, b.pos)


def test_md_forces_newtons_third_law():
    pos = md.initial_positions(12)
    vel = np.zeros_like(pos)
    f, _pot, _kin = md.compute_forces(pos, vel)
    # with the full force matrix, total force is ~0
    assert np.allclose(f.sum(axis=0), 0.0, atol=1e-9)


def test_md_force_partials_compose():
    pos = md.initial_positions(20)
    vel = np.zeros_like(pos)
    full, pot, kin = md.compute_forces(pos, vel)
    f1, p1, k1 = md.compute_forces(pos, vel, 0, 10)
    f2, p2, k2 = md.compute_forces(pos, vel, 10, 20)
    assert np.allclose(np.vstack([f1, f2]), full, atol=1e-12)
    assert pot == pytest.approx(p1 + p2)
    assert kin == pytest.approx(k1 + k2)


def test_md_energy_roughly_conserved():
    r0 = md.md_reference(n_particles=24, steps=1)
    r1 = md.md_reference(n_particles=24, steps=20)
    # dt is tiny; total energy should drift very little
    assert r1.energy == pytest.approx(r0.energy, rel=1e-3)


def test_md_parallel_matches_sequential():
    seq = md.md_reference(n_particles=24, steps=4)
    rt = ParadeRuntime(n_nodes=4, pool_bytes=1 << 21)
    res = rt.run(md.make_program(n_particles=24, steps=4))
    assert np.allclose(res.value.pos, seq.pos, atol=1e-12)
    assert np.allclose(res.value.vel, seq.vel, atol=1e-12)
    assert res.value.potential == pytest.approx(seq.potential, rel=1e-9)
    assert res.value.kinetic == pytest.approx(seq.kinetic, rel=1e-9, abs=1e-15)


def test_md_parallel_on_one_thread_config():
    seq = md.md_reference(n_particles=12, steps=2)
    rt = ParadeRuntime(n_nodes=2, exec_config=ONE_THREAD_ONE_CPU, pool_bytes=1 << 21)
    res = rt.run(md.make_program(n_particles=12, steps=2))
    assert np.allclose(res.value.pos, seq.pos, atol=1e-12)
