"""Differential tests: the integer Gram slices of ``rank_at`` against the
rational Gram computed independently through the vacuum engine.

The oracle pairs every two words of a slice with ``shapovalov`` (the trie
walk ``_evaluate`` over the Gaussian-rational ring), maps the values to the
numeric point with ``scalar_to_qqi`` and clears denominators row by row.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsphere.scalars import SpecMode, scalar_to_qqi
from qsphere.verma import (
    EvalContext,
    _qqi_rows_to_gauss,
    fword_elt,
    fwords_of_weight,
    gram_int_rows,
    rank_at,
    rank_gauss,
    shapovalov,
)
from qsphere.words import Weight, alpha_vec

POINTS = [2, Fraction(5, 2), (3, 1)]
PROPERTY = settings(derandomize=True, deadline=None, max_examples=25, database=None)
MAX_WORDS = 30


def weights(n):
    """Weights -(sum of a_j alpha_j) with at most MAX_WORDS lowering words."""

    def to_coords(counts):
        return tuple(-sum(a * alpha_vec(j, n)[c] for j, a in enumerate(counts, 1)) for c in range(n))

    return (
        st.lists(st.integers(0, 3), min_size=n, max_size=n)
        .filter(lambda counts: 0 < sum(counts) <= 5)
        .map(to_coords)
        .filter(lambda mu: len(fwords_of_weight(mu, n)) <= MAX_WORDS)
    )


def rational_gram(words, ctx):
    elts = [fword_elt(w) for w in words]
    return [[scalar_to_qqi(shapovalov(a, b, ctx), ctx.mode) for b in elts] for a in elts]


@pytest.mark.parametrize("n", [2, 3])
def test_integer_gram_is_the_scaled_rational_gram(n):
    contexts = [EvalContext(n, SpecMode.numeric(v0, s)) for v0 in POINTS for s in (1, -1)]

    @PROPERTY
    @given(weights(n))
    def check(mu):
        words = fwords_of_weight(mu, n)
        for ctx in contexts:
            rows = gram_int_rows(words, ctx)
            scale = ctx.int_levels(len(words[0]))[1]
            want = rational_gram(words, ctx)
            for row, want_row in zip(rows, want):
                for (re, im), (wre, wim) in zip(row, want_row):
                    assert (re, im) == (wre * scale, wim * scale), (mu, ctx.mode)
            assert rank_at(Weight(mu), ctx) == rank_gauss(_qqi_rows_to_gauss(want)), (mu, ctx.mode)

    check()


def test_level_tables_are_the_ecoefs_times_the_lcm_of_their_denominators():
    ctx = EvalContext(3, SpecMode.numeric((3, 1), -1))
    tables, _scale = ctx.int_levels(6)
    for level in range(1, 7):
        s = ctx.int_levels(level)[1] // ctx.int_levels(level - 1)[1]
        span = 2 * (level - 1)
        vals = {(i, a): ctx.ecoef(i, a) for i in range(1, 4) for a in range(-span, span + 1)}
        assert s == lcm(*(x.denominator for v in vals.values() if v is not None for x in v))
        for (i, a), val in vals.items():
            want = None if val is None else (val[0] * s, val[1] * s)
            assert tables[level][i].get(a) == want, (level, i, a)
