"""Instrument-level tests for repro.metrics.registry.

The load-bearing properties: power-of-two bucket boundaries are *exact*
(no float-log rounding), merges are associative across nodes, and the
bucket-resolution quantiles bracket the brute-force order statistics
within the documented factor of 2.
"""

from __future__ import annotations

import random

import pytest

from repro.metrics.registry import (
    Counter,
    Histogram,
    MetricsRegistry,
    bucket_index,
    bucket_upper,
)
from repro.util.tables import percentile


# ----------------------------------------------------------------------
# bucket boundaries
# ----------------------------------------------------------------------
def test_bucket_boundaries_exact_at_powers_of_two():
    """2**k must land in bucket k (inclusive upper bound), for positive
    and negative exponents — the frexp construction makes this exact
    where a log2-and-round implementation drifts."""
    for k in range(-60, 61):
        v = 2.0 ** k
        assert bucket_index(v) == k, f"2**{k} misbucketed to {bucket_index(v)}"
        # one ulp above the boundary belongs to the next bucket
        import math

        above = math.nextafter(v, float("inf"))
        assert bucket_index(above) == k + 1


def test_bucket_interval_is_half_open_from_below():
    assert bucket_index(3.0) == 2          # (2, 4]
    assert bucket_index(4.0) == 2
    assert bucket_index(4.0000001) == 3
    assert bucket_upper(2) == 4.0


def test_nonpositive_values_hit_the_zero_bucket():
    assert bucket_index(0.0) is None
    assert bucket_index(-1.5) is None
    h = Histogram("h")
    h.observe(0.0)
    h.observe(-2.0)
    h.observe(1.0)
    assert h.zero_count == 2 and h.count == 3
    assert h.quantile(50) == 0.0  # rank 2 of 3 is in the zero bucket


# ----------------------------------------------------------------------
# merge
# ----------------------------------------------------------------------
def _filled(seed: int, n: int = 500) -> Histogram:
    rng = random.Random(seed)
    h = Histogram("lat")
    for _ in range(n):
        h.observe(rng.expovariate(1.0 / 50e-6))
    return h


def test_merge_is_associative_across_nodes():
    """(a+b)+c == a+(b+c) on buckets/count/min/max (integer adds and
    order-free min/max); float ``sum`` agrees to rounding."""
    a, b, c = _filled(1), _filled(2), _filled(3)

    left = _filled(1).merge(_filled(2)).merge(_filled(3))
    bc = _filled(2).merge(_filled(3))
    right = _filled(1).merge(bc)

    assert left.buckets == right.buckets
    assert left.zero_count == right.zero_count
    assert left.count == right.count == a.count + b.count + c.count
    assert left.min == right.min == min(a.min, b.min, c.min)
    assert left.max == right.max == max(a.max, b.max, c.max)
    assert left.sum == pytest.approx(right.sum, rel=1e-12)


def test_merge_equals_observing_everything_on_one_node():
    rng = random.Random(7)
    values = [rng.uniform(1e-7, 1e-3) for _ in range(400)]
    whole = Histogram("h")
    parts = [Histogram("h") for _ in range(4)]
    for i, v in enumerate(values):
        whole.observe(v)
        parts[i % 4].observe(v)
    merged = parts[0]
    for p in parts[1:]:
        merged.merge(p)
    assert merged.buckets == whole.buckets
    assert merged.count == whole.count
    assert (merged.min, merged.max) == (whole.min, whole.max)


# ----------------------------------------------------------------------
# quantiles vs brute force
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [11, 23, 47])
def test_quantiles_bracket_brute_force_within_factor_two(seed):
    rng = random.Random(seed)
    values = [rng.expovariate(1.0 / 100e-6) for _ in range(1000)]
    h = Histogram("h")
    for v in values:
        h.observe(v)
    s = sorted(values)
    for q in (50, 90, 99):
        true = percentile(s, q)
        est = h.quantile(q)
        assert true <= est <= 2.0 * true, (
            f"p{q}: estimate {est} not in [{true}, {2 * true}]"
        )
    assert h.percentiles()["max"] == s[-1]


def test_quantile_exact_at_bucket_boundaries():
    h = Histogram("h")
    for v in (1.0, 2.0, 4.0, 8.0):  # every value sits ON a boundary
        h.observe(v)
    assert h.quantile(25) == 1.0
    assert h.quantile(50) == 2.0
    assert h.quantile(75) == 4.0
    assert h.quantile(100) == 8.0


def test_quantile_clamps_to_observed_max():
    h = Histogram("h")
    h.observe(5.0)  # bucket (4, 8], upper bound 8 — but max is 5
    assert h.quantile(99) == 5.0


# ----------------------------------------------------------------------
# registry + serialisation
# ----------------------------------------------------------------------
def test_registry_get_or_create_and_kind_clash():
    reg = MetricsRegistry()
    c = reg.counter("frames", src=0, dst=1)
    assert reg.counter("frames", dst=1, src=0) is c  # label order irrelevant
    c.inc(3)
    assert c.value == 3
    with pytest.raises(ValueError):
        c.inc(-1)
    with pytest.raises(TypeError):
        reg.histogram("frames", src=0, dst=1)
    assert reg.histogram("depth") is reg.histogram("depth")
    assert len(reg) == 2


def test_registry_iteration_is_deterministic():
    reg = MetricsRegistry()
    reg.histogram("h")
    reg.counter("x", node=1)
    reg.counter("x", node=0)
    reg.counter("a")
    assert [(inst.name, inst.labels) for inst in reg] == [
        ("a", ()), ("h", ()), ("x", (("node", "0"),)), ("x", (("node", "1"),)),
    ]


def test_histogram_round_trips_through_dict():
    h = _filled(5)
    h2 = Histogram.from_dict(h.name, h.labels, h.as_dict())
    assert h2.as_dict() == h.as_dict()
    assert h2.quantile(90) == h.quantile(90)


def test_instrument_kinds():
    assert Counter("c").kind == "counter"
    assert Histogram("h").kind == "histogram"
