"""Properties of the maximin-share kernel, drawn with Hypothesis.

Pools are small enough for the brute-force oracle.  Values are rationals
with zeros mixed in, plus huge integers that push the two-part sweep from
its bitset onto its set of sums.
"""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from tempfair.fairness import mms_share

from oracles import naive_mms_share

values = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=0, max_value=20, max_denominator=12),
    st.integers(min_value=0, max_value=2**45).map(F),
)
pools = st.lists(values, max_size=7)
parts = st.integers(min_value=2, max_value=4)
factors = st.fractions(min_value=F(1, 60), max_value=1000, max_denominator=60)


@settings(max_examples=60)  # the oracle walks up to 4**7 assignments
@given(pools, parts)
def test_matches_bruteforce(vals, n_parts):
    assert mms_share(vals, n_parts) == naive_mms_share(vals, n_parts)


@settings(max_examples=150)
@given(pools, parts, factors)
def test_scales_with_the_values(vals, n_parts, c):
    assert mms_share([c * v for v in vals], n_parts) == c * mms_share(vals, n_parts)


@settings(max_examples=150)
@given(pools, parts, st.randoms(use_true_random=False))
def test_ignores_pool_order(vals, n_parts, rng):
    shuffled = list(vals)
    rng.shuffle(shuffled)
    assert mms_share(shuffled, n_parts) == mms_share(vals, n_parts)
