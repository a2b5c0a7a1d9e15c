"""Tests for the NAS LCG stream: exactness, jump-ahead, vectorisation."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.apps.nas_random import (
    NasRandom,
    randlc,
    ipow46,
    A,
    MOD,
    DEFAULT_SEED,
)

from conftest import reference_generate

#: the old lane width and its neighbours, a two-row block, one EP chunk
BLOCK_SIZES = (1, 2, 3, 4095, 4096, 4097, 2 * 4096 + 17, 1 << 17)


def _sequential(n, seed=DEFAULT_SEED):
    s = seed
    out = []
    for _ in range(n):
        s, r = randlc(s)
        out.append(r)
    return np.array(out)


def test_randlc_first_values_exact():
    s, r = randlc(DEFAULT_SEED)
    assert s == (A * DEFAULT_SEED) % MOD
    assert r == s * 0.5 ** 46


def test_generate_matches_sequential_exactly():
    rng = NasRandom()
    got = rng.generate(5000)
    assert np.array_equal(got, _sequential(5000))


def test_generate_across_lane_boundary():
    """Every block size — one element, non-powers of two, the doubling
    fill's last partial step — is the scalar ``randlc`` stream, and a
    split call continues it."""
    ref = _sequential(max(BLOCK_SIZES) + 5)
    for n in BLOCK_SIZES:
        rng = NasRandom()
        assert np.array_equal(rng.generate(n), ref[:n])
        assert np.array_equal(rng.generate(5), ref[n : n + 5])
        split = NasRandom()
        head = split.generate(n // 3)
        assert np.array_equal(np.concatenate([head, split.generate(n - n // 3)]), ref[:n])


@settings(max_examples=200, deadline=None)
@given(
    a=st.integers(0, MOD - 1),
    xs=st.lists(st.integers(0, MOD - 1), min_size=1, max_size=8),
)
@example(a=MOD - 1, xs=[MOD - 1, 1, 0])
def test_wrapped_uint64_product_is_the_product_mod_2_46(a, xs):
    """2^46 divides 2^64: the low 46 bits of the wrapped product are the
    product mod 2^46 — what ``NasRandom.fill`` relies on."""
    got = (np.uint64(a) * np.array(xs, dtype=np.uint64)) & np.uint64(MOD - 1)
    assert got.tolist() == [(a * x) % MOD for x in xs]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(1, MOD - 1),
    a=st.integers(1, MOD - 1),
    n=st.integers(1, 3 * 4096),
)
def test_generate_matches_reference_for_any_multiplier(seed, a, n):
    """Against the 23-bit-split oracle (no wrapping anywhere), with
    multipliers and seeds up to 2^46 - 1, values and final state."""
    rng = NasRandom(seed, a)
    ref, state = reference_generate(seed, n, a)
    assert np.array_equal(rng.generate(n), ref)
    assert rng.state == state


def test_generate_continues_state():
    rng = NasRandom()
    first = rng.generate(100)
    second = rng.generate(100)
    ref = _sequential(200)
    assert np.array_equal(np.concatenate([first, second]), ref)


def test_skip_equals_generate_prefix():
    rng = NasRandom()
    rng.skip(1234)
    ref = _sequential(1240)
    assert rng.next() == ref[1234]


def test_skip_zero_is_noop():
    rng = NasRandom()
    rng.skip(0)
    assert rng.next() == _sequential(1)[0]


@settings(max_examples=30, deadline=None)
@given(k=st.integers(0, 100_000))
def test_ipow46_matches_repeated_multiplication(k):
    assert ipow46(A, k) == pow(A, k, MOD)


@settings(max_examples=20, deadline=None)
@given(n1=st.integers(1, 2000), n2=st.integers(1, 2000))
def test_stream_split_property(n1, n2):
    """generate(n1) + generate(n2) == generate(n1+n2) (stream consistency)."""
    a = NasRandom()
    left = np.concatenate([a.generate(n1), a.generate(n2)])
    b = NasRandom()
    right = b.generate(n1 + n2)
    assert np.array_equal(left, right)


@settings(max_examples=20, deadline=None)
@given(offset=st.integers(0, 50_000), n=st.integers(1, 500))
def test_jump_ahead_consistency_property(offset, n):
    """skip(offset) then generate(n) equals the slice of the full stream —
    the property NPB's EP parallelisation relies on."""
    jump = NasRandom()
    jump.skip(offset)
    got = jump.generate(n)
    full = NasRandom()
    ref = full.generate(offset + n)[offset:]
    assert np.array_equal(got, ref)


def test_values_in_unit_interval():
    v = NasRandom().generate(10000)
    assert np.all(v > 0.0) and np.all(v < 1.0)


def test_invalid_seed_rejected():
    with pytest.raises(ValueError):
        NasRandom(0)
    with pytest.raises(ValueError):
        NasRandom(MOD)


def test_negative_counts_rejected():
    rng = NasRandom()
    with pytest.raises(ValueError):
        rng.generate(-1)
    with pytest.raises(ValueError):
        rng.skip(-5)


def test_generate_zero_returns_empty():
    rng = NasRandom()
    out = rng.generate(0)
    assert out.size == 0
    assert rng.next() == _sequential(1)[0]
