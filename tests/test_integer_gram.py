"""Differential tests: the ranks of ``rank_at``, taken from row-space bases
one letter up, against the full integer Gram slices of ``oracles`` and the
rational Gram computed independently through the vacuum engine.

The rational oracle pairs every two words of a slice with ``shapovalov``
(the trie walk ``_evaluate`` of the specialized context) and evaluates the
values at the point with ``scalar_to_qqi``; its rank comes from the
Gauss-Jordan kernel of ``nullspace_qqi``, not from the Bareiss routine under
test.  The level tables are checked against the ecoef formula at the
specialized weight, evaluated at the point independently of the engine ring.
"""

from fractions import Fraction
from itertools import groupby
from math import lcm
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsphere.plane import nullspace_qqi
from qsphere.scalars import ONE, QQI_ZERO, Scalar, SpecMode, _gmul, peval_qqi, qqi_inv, qqi_mul, scalar_to_qqi, weight_symbol
from qsphere import suites, verma
from qsphere.suites import _IRR_WORD_LIMIT, Session, _check_points, _rank_weights
from qsphere.verma import (
    EvalContext,
    _row_basis,
    _unpack_poly,
    fword_count,
    fword_elt,
    fwords_of_weight,
    pair_words_qqi,
    rank_at,
    rank_gauss,
    shapovalov,
)
from qsphere.words import alpha_vec

from oracles import gram_int_rows

POINTS = [2, Fraction(5, 2), (3, 1)]
PROPERTY = settings(derandomize=True, deadline=None, max_examples=25, database=None)
MAX_WORDS = 30


def weights(n, max_words=MAX_WORDS):
    """Weights -(sum of a_j alpha_j) with at most max_words lowering words."""

    def to_coords(counts):
        return tuple(-sum(a * alpha_vec(j, n)[c] for j, a in enumerate(counts, 1)) for c in range(n))

    return (
        st.lists(st.integers(0, 3), min_size=n, max_size=n)
        .filter(lambda counts: 0 < sum(counts) <= 5)
        .map(to_coords)
        .filter(lambda mu: len(fwords_of_weight(mu, n)) <= max_words)
    )


def rational_gram(words, ctx, mode):
    elts = [fword_elt(w) for w in words]
    return [[scalar_to_qqi(shapovalov(a, b, ctx), mode) for b in elts] for a in elts]


@pytest.mark.parametrize("n", [2, 3])
def test_integer_gram_is_the_scaled_rational_gram(n):
    contexts = [EvalContext(n, SpecMode.specialized(s)) for s in (1, -1)]

    @PROPERTY
    @given(weights(n))
    def check(mu):
        words = fwords_of_weight(mu, n)
        for ctx in contexts:
            for v0 in POINTS:
                mode = SpecMode.numeric(v0)
                rows = gram_int_rows(words, ctx, v0)
                scale = ctx.int_levels(len(words[0]), v0)[1]
                want = rational_gram(words, ctx, mode)
                for row, want_row in zip(rows, want):
                    for (re, im), (wre, wim) in zip(row, want_row):
                        assert (re, im) == (wre * scale, wim * scale), (mu, mode)
                rank = len(words) - len(nullspace_qqi(want, len(words)))
                assert rank_at(mu, ctx, v0) == rank, (mu, mode)

    check()


# The largest rank-3 slice that ``verify_irreducibility(3, 4)`` ranks: 168
# words of length 8, each with five letters 1, two 2 and one 3.
LARGEST_R3 = (-3, -1, -1)


def test_largest_ranked_rank3_slice_is_pinned():
    """The suite's scope: its rank weights, less those beyond the word limit
    and the basis weights above height max_deg + 1."""
    ranked = [
        mu
        for mu in _rank_weights(3, 4)
        if 0 < fword_count(mu, 3) <= _IRR_WORD_LIMIT and (any(c > 0 for c in mu) or -sum(mu) <= 5)
    ]
    assert LARGEST_R3 in ranked
    assert max(fword_count(mu, 3) for mu in ranked) == fword_count(LARGEST_R3, 3) == 168


@pytest.fixture(scope="module")
def largest_r3_slices():
    """The level fill of LARGEST_R3 at both signs and at v0 = 2 and 3 + i."""
    words = fwords_of_weight(LARGEST_R3, 3)
    out = []
    for sigma in (1, -1):
        ctx = EvalContext(3, SpecMode.specialized(sigma))
        for v0 in (2, (3, 1)):
            out.append((ctx, v0, gram_int_rows(words, ctx, v0), ctx.int_levels(len(words[0]), v0)[1]))
    return words, out


def test_level_fill_at_the_largest_ranked_slice_matches_the_entry_recursion(largest_r3_slices):
    """Sampled entries of the 168-word fill against ``pair_words_qqi``, the
    symbolic engine at v0, times the scale."""
    words, slices = largest_r3_slices

    @PROPERTY
    @given(st.integers(0, len(words) - 1), st.integers(0, len(words) - 1))
    def check(i, j):
        for ctx, v0, rows, scale in slices:
            re, im = pair_words_qqi(tuple(reversed(words[i])), words[j], ctx, v0)
            assert rows[i][j] == (re * scale, im * scale), (ctx.mode, v0, words[i], words[j])

    check()


@pytest.mark.parametrize("n", [2, 3])
def test_row_basis_spans_the_row_space_of_every_ranked_slice(n):
    """At every weight that ``verify_irreducibility(n, 4)`` ranks, both signs
    and three points: ``rank_at`` is the rank of the full integer Gram, and
    the basis stacked under the Gram's rows leaves that rank unchanged, so
    it spans the Gram's row space and not just a space of its dimension."""
    ranked = [mu for mu in _rank_weights(n, 4) if 0 < fword_count(mu, n) <= _IRR_WORD_LIMIT]
    for sigma in (1, -1):
        ctx = EvalContext(n, SpecMode.specialized(sigma))
        for v0 in (2, 3, (3, 1)):
            for mu in ranked:
                words = fwords_of_weight(mu, n)
                rows = gram_int_rows(words, ctx, v0)
                rank = rank_gauss(rows)
                assert rank_at(mu, ctx, v0) == rank, (sigma, v0, mu)
                tables, _scale = ctx.int_levels(len(words[0]), v0)
                basis = _row_basis(words, tables, ctx.cart, {})
                assert len(basis) == rank and rank_gauss(rows + basis) == rank, (sigma, v0, mu)


def unmirrored_gram(words, tables, cart):
    """The slice of the lex-ordered words of one weight under the level
    tables: for each word x = (c,) + x', row x' of the slice of the tails
    times the dense matrix E_c, with no entry mirrored, so any tables do."""
    k = len(words[0])
    if not k:
        return [[(1, 0)]]
    rows = []
    for c, block in groupby(words, itemgetter(0)):
        tails = [w[1:] for w in block]
        e_c = [[(0, 0)] * len(words) for _ in tails]
        for col, w in enumerate(words):
            for t in range(k):
                if w[t] == c:
                    re, im = tables[k][c].get(-sum(cart[c][j] for j in w[t + 1 :]), (0, 0))
                    r = tails.index(w[:t] + w[t + 1 :])
                    e_c[r][col] = (e_c[r][col][0] + re, e_c[r][col][1] + im)
        for g in unmirrored_gram(tails, tables, cart):
            row = []
            for col in range(len(words)):
                terms = [_gmul(x, e[col]) for x, e in zip(g, e_c)]
                row.append((sum(t[0] for t in terms), sum(t[1] for t in terms)))
            rows.append(row)
    return rows


@pytest.mark.parametrize("n", [2, 3])
def test_row_basis_ranks_random_level_tables_like_the_full_product(n):
    """Random Gaussian-integer level tables reach ranks that no slice of the
    true form has; the basis has the rank of the unmirrored full product
    and spans its row space."""
    cart = EvalContext(n, SpecMode.specialized(1)).cart
    entry = st.tuples(st.integers(-3, 3), st.integers(-3, 3))

    @settings(PROPERTY, max_examples=60)
    @given(weights(n, max_words=40), st.data())
    def check(mu, data):
        words = fwords_of_weight(mu, n)
        tables = [None]
        for level in range(1, len(words[0]) + 1):
            span = range(-2 * (level - 1), 2 * (level - 1) + 1)
            draws = [data.draw(st.lists(entry, min_size=len(span), max_size=len(span))) for _ in range(n)]
            tables.append([None] + [{a: e for a, e in zip(span, d) if e != (0, 0)} for d in draws])
        rows = unmirrored_gram(words, tables, cart)
        rank = rank_gauss(rows)
        basis = _row_basis(words, tables, cart, {})
        assert len(basis) == rank and rank_gauss(rows + basis) == rank, (mu, tables)

    check()


@PROPERTY
@given(st.integers(1, 7), st.integers(0, 7), st.data())
def test_rank_gauss_is_the_rank_of_a_product_of_known_inner_dimension(size, inner, data):
    """A size x size product A B over Z[i] of the given inner dimension,
    ranked by Bareiss as pairs and as Scalars, against size less the
    Gauss-Jordan nullity; the rank is at most the inner dimension."""
    entries = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
    a = data.draw(st.lists(st.lists(entries, min_size=inner, max_size=inner), min_size=size, max_size=size))
    b = data.draw(st.lists(st.lists(entries, min_size=size, max_size=size), min_size=inner, max_size=inner))
    rows = []
    for r in a:
        terms = [[_gmul(x, brow[c]) for x, brow in zip(r, b)] for c in range(size)]
        rows.append([(sum(t[0] for t in ts), sum(t[1] for t in ts)) for ts in terms])
    qqi_rows = [[(Fraction(x), Fraction(y)) for x, y in r] for r in rows]
    rank = rank_gauss(rows)
    assert rank == len(rows) - len(nullspace_qqi(qqi_rows, size)), rows
    assert rank_gauss([[Scalar.gauss(*x) for x in r] for r in rows]) == rank, rows
    assert rank <= inner


def weight_ecoef(i, a, sigma):
    """(v^{2a} L_i/L_{i-1} - v^{-2a} L_{i-1}/L_i) / (q - q^{-1}), L_0 = 1 and
    every other L_j the weight symbol of the branch sigma."""
    lj = [ONE] + [weight_symbol(sigma)] * i
    ratio = lj[i] / lj[i - 1]
    q = Scalar.v_power(2)
    return (Scalar.v_power(2 * a) * ratio - Scalar.v_power(-2 * a) / ratio) / (q - 1 / q)


def test_level_tables_are_the_ecoefs_times_the_lcm_of_their_denominators():
    mode = SpecMode.numeric((3, 1))
    ctx = EvalContext(3, SpecMode.specialized(-1))
    tables, _scale = ctx.int_levels(6, (3, 1))
    for level in range(1, 7):
        s = ctx.int_levels(level, (3, 1))[1] // ctx.int_levels(level - 1, (3, 1))[1]
        span = 2 * (level - 1)
        keys = [(i, a) for i in range(1, 4) for a in range(-span, span + 1)]
        vals = {(i, a): scalar_to_qqi(weight_ecoef(i, a, -1), mode) for i, a in keys}
        nonzero = [v for v in vals.values() if v != QQI_ZERO]
        assert s == lcm(*(x.denominator for v in nonzero for x in v))
        for (i, a), val in vals.items():
            want = None if val == QQI_ZERO else (val[0] * s, val[1] * s)
            assert tables[level][i].get(a) == want, (level, i, a)


@pytest.mark.parametrize("v0", [2, 3, Fraction(7, 3), (3, 1)])
def test_level_tables_equal_the_rational_evaluation_route(v0):
    """The integer evaluation of the packed ecoef numerators against the
    same numerators unpacked and evaluated at v0 over the Gaussian
    rationals, one level at a time."""
    ctx = EvalContext(3, SpecMode.specialized(1))
    tables, scale = ctx.int_levels(6, v0)
    point = SpecMode.numeric(v0).v0
    eunit = qqi_inv(peval_qqi({2: (1, 0), -2: (-1, 0)}, point))
    want_scale = 1
    for level in range(1, 7):
        span = 2 * (level - 1)
        vals = {
            (i, a): qqi_mul(peval_qqi(_unpack_poly(e), point), eunit)
            for i in range(1, 4)
            for a in range(-span, span + 1)
            if (e := ctx.ecoef(i, a))
        }
        s = lcm(*(x.denominator for v in vals.values() for x in v))
        want = [None] + [{} for _ in range(3)]
        for (i, a), (re, im) in vals.items():
            want[i][a] = (int(re * s), int(im * s))
        assert tables[level] == want, (v0, level)
        want_scale *= s
    assert scale == want_scale


@pytest.mark.parametrize("n", [2, 3])
def test_minus_tables_are_the_plus_tables_with_letter_1_negated(n):
    """The sign enters the level tables through letter 1 alone: ecoef(1, a)
    changes sign with sigma (checked on the formula, symbolically), every
    other ecoef is free of it, and each level's lcm, hence every scale, is
    the same at both signs.  The sigma = -1 context's tables are checked
    against the sigma = +1 context's, one evaluation each."""
    for i in range(1, n + 1):
        for a in range(-18, 19):
            plus = weight_ecoef(i, a, 1)
            assert weight_ecoef(i, a, -1) == (-plus if i == 1 else plus), (i, a)
    plus_ctx, minus_ctx = (EvalContext(n, SpecMode.specialized(s)) for s in (1, -1))
    for v0 in (2, 3, (3, 1)):
        for level in range(1, 11):
            plus, plus_scale = plus_ctx.int_levels(level, v0)
            minus, minus_scale = minus_ctx.int_levels(level, v0)
            assert minus_scale == plus_scale, (v0, level)
            want = {a: (-re, -im) for a, (re, im) in plus[level][1].items()}
            assert minus[level][1] == want, (v0, level)
            assert minus[level][2:] == plus[level][2:], (v0, level)


@pytest.mark.parametrize("n", [2, 3])
def test_minus_basis_spans_the_shared_row_space(n):
    """At every weight that ``verify_irreducibility(n, 4)`` ranks and at both
    check points, the basis built from the sigma = -1 tables and the one
    ``rank_at`` keeps for both signs span one row space: stacked, they have
    the rank of each (the induction in ``rank_at``'s docstring)."""
    ranked = [mu for mu in _rank_weights(n, 4) if 0 < fword_count(mu, n) <= _IRR_WORD_LIMIT]
    ctx = EvalContext(n, SpecMode.specialized())
    for v0 in _check_points(2):
        for mu in ranked:
            words = fwords_of_weight(mu, n)
            plus_rank, minus_rank = rank_at(mu, ctx, v0)
            plus_tables, minus_tables = (ctx.int_levels(len(words[0]), v0, s)[0] for s in (1, -1))
            shared = _row_basis(words, plus_tables, ctx.cart, ctx._int_points[v0][-1])  # the kept basis
            minus = _row_basis(words, minus_tables, ctx.cart, {})
            assert plus_rank == minus_rank == len(shared) == len(minus), (v0, mu)
            assert rank_gauss(shared + minus) == len(shared), (v0, mu)


def test_irreducibility_builds_one_basis_per_point_for_both_signs(monkeypatch):
    """``verify_irreducibility(3)`` ranks 47 weights at two points: one
    top-level ``_row_basis`` call per ``rank_at`` call, 94 in all, and one
    integer record per point in the run's sign-free context."""
    calls = {"rank_at": 0, "top": 0, "depth": 0}
    row_basis, ranks = verma._row_basis, suites.rank_at

    def counted_row_basis(*args):
        calls["top"] += calls["depth"] == 0
        calls["depth"] += 1
        try:
            return row_basis(*args)
        finally:
            calls["depth"] -= 1

    def counted_rank_at(*args):
        calls["rank_at"] += 1
        return ranks(*args)

    monkeypatch.setattr(verma, "_row_basis", counted_row_basis)
    monkeypatch.setattr(suites, "rank_at", counted_rank_at)
    session = Session()
    assert suites.verify_irreducibility(3, session=session).passed
    assert calls["rank_at"] == calls["top"] == 94
    (ctx,) = [c for c in session.contexts.values() if c._int_points]
    assert sorted(ctx._int_points) == [2, 3]
