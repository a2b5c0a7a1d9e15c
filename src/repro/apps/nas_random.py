"""The NAS parallel benchmarks pseudorandom stream.

NPB's ``randlc`` is the 46-bit linear congruential generator

    x_{k+1} = a * x_k  mod 2^46,      a = 5^13,  r_k = x_k * 2^-46

The reference implementation works in double-double arithmetic; we use
exact 64-bit integer arithmetic, which is bit-identical: 2^46 divides
2^64, so the low 46 bits of a wrapped ``uint64`` product *are* the
product mod 2^46 — one multiply and one mask, no operand splitting.

Two idioms the benchmarks need:

* ``ipow46(a, k)`` — O(log k) jump-ahead, so thread *t* can seed itself at
  stream offset ``k`` without generating the prefix (how NPB parallelises
  EP);
* :meth:`NasRandom.generate` — vectorised block generation by the same
  jump-ahead, doubling: once the first *m* states exist the next *m* are
  ``a^m`` times them, so a block of *n* fills in log2(n) numpy calls that
  together touch each state once.

Validated against the published EP class S/W/A reference sums (see
``tests/apps/test_ep.py``).
"""

from __future__ import annotations

import numpy as np

#: multiplier 5^13
A = 1220703125
#: modulus 2^46
MOD = 1 << 46
_MASK46 = MOD - 1
#: default NPB seed
DEFAULT_SEED = 271828183
#: 2^-46 as float
R46 = 0.5 ** 46


def _modmul46_scalar(a: int, x: int) -> int:
    """Exact (a * x) mod 2^46 for Python ints."""
    return (a * x) & _MASK46


def randlc(x: int, a: int = A) -> tuple:
    """One step of the NAS LCG: returns (new_state, uniform double)."""
    x = _modmul46_scalar(a, x)
    return x, x * R46


def ipow46(a: int, exponent: int) -> int:
    """a^exponent mod 2^46 (jump-ahead multiplier)."""
    if exponent < 0:
        raise ValueError("negative exponent")
    return pow(a, exponent, MOD)


class NasRandom:
    """Stateful NAS stream with vectorised bulk generation.

    >>> rng = NasRandom()
    >>> u = rng.generate(4)          # the first four randlc outputs
    """

    def __init__(self, seed: int = DEFAULT_SEED, a: int = A):
        if not (0 < seed < MOD):
            raise ValueError(f"seed must be in (0, 2^46), got {seed}")
        self.a = int(a)
        self.state = int(seed)

    def skip(self, n: int) -> None:
        """Advance the stream by *n* outputs in O(log n)."""
        if n < 0:
            raise ValueError("cannot skip backwards")
        self.state = _modmul46_scalar(ipow46(self.a, n), self.state)

    def next(self) -> float:
        self.state, value = randlc(self.state, self.a)
        return value

    def fill(self, states: np.ndarray) -> None:
        """Advance the stream by ``len(states)`` outputs, storing the raw
        46-bit states x_1 .. x_n into the ``uint64`` array *states*."""
        n = states.shape[0]
        if n == 0:
            return
        states[0] = _modmul46_scalar(self.a, self.state)
        m = 1
        while m < n:
            # x_{j+m} = a^m x_j: the filled prefix yields the next block
            k = min(m, n - m)
            block = states[m : m + k]
            np.multiply(states[:k], np.uint64(ipow46(self.a, m)), out=block)
            block &= np.uint64(_MASK46)
            m += k
        self.state = int(states[n - 1])

    def generate(self, n: int) -> np.ndarray:
        """The next *n* uniform doubles in stream order (vectorised)."""
        if n < 0:
            raise ValueError("n must be >= 0")
        states = np.empty(n, dtype=np.uint64)
        self.fill(states)
        return states * R46
