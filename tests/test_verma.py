import random
from fractions import Fraction

import pytest

from qsphere.scalars import I_UNIT, ONE, ZERO, Scalar, SpecMode, _gmul, scalar_to_qqi, theta, weight_symbol
import qsphere.verma as verma
from qsphere.suites import _rank_weights
from qsphere.words import AlgElt, alpha_vec, antipode, gen_k, omega, root_vector
from qsphere.verma import (
    SIGNS,
    EvalContext,
    b_monomial,
    fword_count,
    fword_elt,
    fwords_of_weight,
    invariant_form,
    is_zero_in_M,
    is_zero_in_U,
    pair_lowering,
    pair_words_qqi,
    rank_at,
    shapovalov,
    vacuum_eval,
    weight_alpha_counts,
)

from oracles import gram_int_rows

Q = Scalar.v_power(2)
QBAR = Scalar.v_power(-2)


# ---------------------------------------------------------------------------
# An independent reference implementation of the vacuum functional: term
# rewriting on raw words with a pluggable resolution strategy.  Slow, but it
# shares nothing with the production state-evolution engine.
# ---------------------------------------------------------------------------

def _lambda_eval(mu, mode, sigma):
    """The eigenvalue prod L_j^{mu_j} of K_mu on the highest-weight vector,
    every L_j the weight symbol sigma*i*v^{-1}; Kashiwara's form drops it."""
    if mode.kind == "kashiwara":
        return ONE
    return weight_symbol(sigma) ** sum(mu)


def reference_vacuum(word, ctx, sigma=None, strategy="leftmost", rng=None):
    """The vacuum value of a word at the weight on the branch sigma, one
    value per call; under Kashiwara's form (words without Cartan letters),
    which takes no sigma, each commutator [e_i, f_i] keeps only its term
    -K_i^{-1} / (q - q^{-1})."""
    if (sigma is None) != (ctx.mode.kind == "kashiwara"):
        raise ValueError("a branch sign is given at the weight and only there")
    n = ctx.n
    mode = ctx.mode
    qdiff = Q - QBAR
    terms = [(ONE, tuple(word))]
    done = []
    while terms:
        coeff, w = terms.pop()
        pos = []
        for t in range(len(w) - 1):
            a, b = w[t], w[t + 1]
            if a[0] == "e" and b[0] == "f":
                pos.append(t)
            elif a[0] == "e" and b[0] == "K":
                pos.append(t)
            elif a[0] == "K" and b[0] == "f":
                pos.append(t)
            elif a[0] == "K" and b[0] == "K":
                pos.append(t)
        if not pos:
            done.append((coeff, w))
            continue
        t = pos[0] if strategy == "leftmost" else rng.choice(pos)
        a, b = w[t], w[t + 1]
        head, tail = w[:t], w[t + 2 :]
        if a[0] == "e" and b[0] == "f":
            i, j = a[1], b[1]
            terms.append((coeff, head + (b, a) + tail))
            if i == j:
                av = alpha_vec(i, n)
                if mode.kind != "kashiwara":
                    terms.append((coeff / qdiff, head + (gen_k(av),) + tail))
                terms.append((-coeff / qdiff, head + (gen_k(tuple(-c for c in av)),) + tail))
        elif a[0] == "e" and b[0] == "K":
            mu = b[1]
            dot = sum(m * c for m, c in zip(mu, alpha_vec(a[1], n)))
            terms.append((coeff * Scalar.v_power(-2 * dot), head + (b, a) + tail))
        elif a[0] == "K" and b[0] == "f":
            mu = a[1]
            dot = sum(m * c for m, c in zip(mu, alpha_vec(b[1], n)))
            terms.append((coeff * Scalar.v_power(-2 * dot), head + (b, a) + tail))
        else:  # merge adjacent Cartan letters
            mu = tuple(x + y for x, y in zip(a[1], b[1]))
            terms.append((coeff, head + (gen_k(mu),) + tail))
    total = ZERO
    for coeff, w in done:
        if any(g[0] in ("e", "f") for g in w):
            continue
        val = coeff
        for g in w:
            val = val * _lambda_eval(g[1], mode, sigma)
        total = total + val
    return total


def reference_pair(word, ctx):
    """The reference values of a word at the weight, (at +1, at -1)."""
    return tuple(reference_vacuum(word, ctx, s) for s in SIGNS)


def _random_word(rng, n, max_len=5):
    w = []
    for _ in range(rng.randint(0, max_len)):
        kind = rng.choice(("e", "f", "f", "K"))
        if kind == "K":
            w.append(gen_k(tuple(rng.randint(-1, 1) for _ in range(n))))
        else:
            w.append((kind, rng.randint(1, n)))
    return tuple(w)


def test_engine_matches_reference_rewriter():
    rng = random.Random(100)
    ctx = EvalContext(2, SpecMode.specialized())
    for _ in range(80):
        w = _random_word(rng, 2)
        assert vacuum_eval(AlgElt({w: ONE}), ctx) == reference_pair(w, ctx), w


def test_rewriting_order_does_not_matter():
    rng = random.Random(101)
    ctx = EvalContext(2, SpecMode.specialized())
    for trial in range(25):
        w = _random_word(rng, 2)
        for sigma in SIGNS:
            base = reference_vacuum(w, ctx, sigma, strategy="leftmost")
            for rep in range(3):
                alt = reference_vacuum(w, ctx, sigma, strategy="random", rng=random.Random(trial * 10 + rep))
                assert alt == base, (w, sigma)


def test_vacuum_basics():
    ctx = EvalContext(2, SpecMode.specialized())
    assert vacuum_eval(AlgElt.unit(), ctx) == (ONE, ONE)
    assert vacuum_eval(AlgElt.f(1), ctx) == (ZERO, ZERO)
    # one e_1: the two branches differ by a sign
    assert vacuum_eval(AlgElt.e(1) * AlgElt.f(1), ctx) == (I_UNIT / theta(), -I_UNIT / theta())


def test_vacuum_generic_mode():
    """Kashiwara's form, which needs no weight, keeps the K_2^{-1} half of
    (K_2 - K_2^{-1}) / (q - q^{-1}): e2 f2 pairs to -1/(q - q^{-1}) there,
    and to zero at the specialized weight, where L2/L1 = 1."""
    x = AlgElt.e(2) * AlgElt.f(2)
    assert vacuum_eval(x, EvalContext(2, SpecMode.kashiwara())) == -ONE / (Q - QBAR)
    assert vacuum_eval(x, EvalContext(2, SpecMode.specialized())) == (ZERO, ZERO)


def test_invariant_form_examples():
    ctx = EvalContext(2, SpecMode.specialized())
    assert invariant_form(AlgElt.unit(), AlgElt.unit(), ctx) == (ONE, ONE)
    # mismatched weights pair to zero
    fe1 = root_vector("f_eps", 1, 2)
    assert invariant_form(fe1 * fe1, root_vector("et_eps", 1, 2), ctx) == (ZERO, ZERO)
    # one lowering letter against one raising letter
    got = invariant_form(AlgElt.f(1), AlgElt.e(1), ctx)
    assert got[0] == -Scalar.v_power(1) / theta()


def test_shapovalov_examples():
    ctx = EvalContext(2, SpecMode.specialized())
    assert shapovalov(AlgElt.unit(), AlgElt.unit(), ctx) == (ONE, ONE)
    fe1 = root_vector("f_eps", 1, 2)
    assert shapovalov(fe1, fe1, ctx)[0] == I_UNIT / theta()
    assert shapovalov(fe1, root_vector("f_eps", 2, 2), ctx) == (ZERO, ZERO)


def test_pair_lowering_rejects_a_left_factor_with_raising_letters():
    ctx = EvalContext(2, SpecMode.specialized())
    with pytest.raises(ValueError, match="left factor"):
        pair_lowering(AlgElt.e(1) * AlgElt.f(1), AlgElt.f(1), ctx)


def test_invariant_form_rejects_a_raising_factor_with_lowering_letters():
    ctx = EvalContext(2, SpecMode.specialized())
    with pytest.raises(ValueError, match="raising factor"):
        invariant_form(AlgElt.f(1), AlgElt.f(1) * AlgElt.e(1), ctx)
    with pytest.raises(ValueError, match="raising factor"):
        invariant_form(AlgElt.f(1), (AlgElt.e(1), AlgElt.f(1)), ctx)
    # the lowering side is checked by pair_left
    with pytest.raises(ValueError, match="right factor"):
        invariant_form(AlgElt.e(1), AlgElt.e(1), ctx)


def test_pair_engine_agrees_with_direct_product_evaluation():
    rng = random.Random(55)
    for n in (2, 3):
        ctx = EvalContext(n, SpecMode.specialized())
        for _ in range(30):
            wx = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 4)))
            wy = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 4)))
            x, y = fword_elt(wx), fword_elt(wy)
            assert pair_lowering(x, y, ctx) == vacuum_eval(omega(x) * y, ctx)


def test_pair_words_memoized_numeric():
    ctx = EvalContext(2, SpecMode.specialized())
    x = (1, 1, 2)
    val = pair_words_qqi(tuple(reversed(x)), x, ctx, 2)
    direct = vacuum_eval(omega(fword_elt(x)) * fword_elt(x), ctx)
    assert val == tuple(scalar_to_qqi(d, SpecMode.numeric(2)) for d in direct)


def test_orthogonality_twist_between_plain_and_involuted_raising():
    # <plain-raising version> = q^{sum 2 k_i (i-1)} <involuted version>
    n = 3
    ctx = EvalContext(n, SpecMode.specialized())
    for k in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1)]:
        epart = AlgElt.unit()
        for i in range(n, 0, -1):
            epart = epart * root_vector("e_eps", i, n) ** k[i - 1]
        fpart = b_monomial(k, n)
        plain = vacuum_eval(epart * fpart, ctx)
        invol = pair_lowering(fpart, fpart, ctx)
        twist = Scalar.v_power(sum(4 * ki * (i - 1) for i, ki in enumerate(k, start=1)))
        assert plain == tuple(twist * x for x in invol), k


def test_weight_combinatorics():
    assert weight_alpha_counts((-1, -1), 2) == [2, 1]
    assert weight_alpha_counts((1, 0), 2) is None
    assert len(fwords_of_weight((-1, -1), 2)) == 3
    assert fwords_of_weight((0, 0), 2) == [()]
    assert sorted(fwords_of_weight((1, -1), 2)) == [(2,)]


def _count_by_last_letter(mu, n, memo):
    """Reference word count that shares nothing with the root-count
    expansion: a word of length L and weight wt ends in f_j after a word of
    length L - 1 and weight wt + alpha_j.  A word of weight mu has at most
    n * sum|mu_c| letters, since each root count is a tail sum of -mu."""
    alphas = [alpha_vec(j, n) for j in range(1, n + 1)]

    def count(wt, length):
        if length == 0:
            return int(not any(wt))
        key = (wt, length)
        if key not in memo:
            memo[key] = sum(
                count(tuple(c + a for c, a in zip(wt, al)), length - 1) for al in alphas
            )
        return memo[key]

    return sum(count(tuple(mu), length) for length in range(n * sum(abs(c) for c in mu) + 1))


OUTSIDE_CONE = {
    1: [(1,), (2,)],
    2: [(1, 0), (0, 1), (1, 1), (-1, 2)],
    3: [(1, 0, 0), (0, 0, 1), (3, -1, -1), (0, 1, 0)],
}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_word_count_is_the_enumeration_length(n):
    memo = {}
    for mu in _rank_weights(n, 4) + OUTSIDE_CONE[n]:
        count = fword_count(mu, n)
        assert count == _count_by_last_letter(mu, n, memo), mu
        assert len(fwords_of_weight(mu, n)) == count, mu
    for mu in OUTSIDE_CONE[n]:
        assert fword_count(mu, n) == 0, mu


def test_rank_examples():
    ctx = EvalContext(2, SpecMode.specialized())
    for v0 in (2, 3, Fraction(5, 2)):
        assert rank_at((-1, -1), ctx, v0) == 1
        assert rank_at((-2, 0), ctx, v0) == 1
        assert rank_at((1, 0), ctx, v0) == 0
        assert rank_at((1, -1), ctx, v0) == 0  # the singular direction
        assert rank_at((0, -1), ctx, v0) == 1


def test_rank_requires_numeric_mode():
    """The point must be admissible for SpecMode.numeric: nonzero and no
    root of unity."""
    ctx = EvalContext(2, SpecMode.specialized())
    for v0 in (0, 1, -1, (0, 1)):
        with pytest.raises(ValueError):
            rank_at((-1, 0), ctx, v0)


def test_rank_refuses_a_generic_context():
    """Kashiwara's form has no weight, so no rank at a weight."""
    with pytest.raises(ValueError):
        rank_at((-1, 0), EvalContext(2, SpecMode.kashiwara()), 2)


def test_a_numeric_mode_opens_no_context():
    with pytest.raises(ValueError):
        EvalContext(2, SpecMode.numeric(2))


def test_module_oracle():
    ctx = EvalContext(2, SpecMode.specialized())
    assert is_zero_in_M(AlgElt(), ctx) == (True, True)
    assert is_zero_in_M(AlgElt.f(2), ctx) == (True, True)
    assert is_zero_in_M(AlgElt.f(1), ctx) == (False, False)
    # the action relation f2 f1 = -q f_{eps_2} holds in the module
    x = AlgElt.f(2) * AlgElt.f(1) + root_vector("f_eps", 2, 2).scaled(Q)
    assert is_zero_in_M(x, ctx) == (True, True)
    assert is_zero_in_M(AlgElt.f(2) * AlgElt.f(1) - root_vector("f_eps", 2, 2).scaled(Q), ctx) == (False, False)


def _reference_elt(x, ctx):
    """The reference values of an element at the weight, (at +1, at -1)."""
    return tuple(sum((c * reference_vacuum(w, ctx, s) for w, c in x.terms.items()), ZERO) for s in SIGNS)


def test_the_pair_is_the_reference_value_at_each_sign():
    """Every entry point of the engine returns the pair (at +1, at -1): each
    value is the reference rewriter's at its sign, and each rank that of the
    full integer Gram slice on its sign's level tables."""
    n = 2
    ctx = EvalContext(n, SpecMode.specialized())
    e21 = AlgElt({(("e", 2), ("e", 1)): ONE})
    # both parities live: K_(1,0) flips the sign parity of its word
    mixed = AlgElt({(gen_k((1, 0)), ("e", 2), ("e", 1)): ONE}) + e21.scaled(Q)
    cases = [
        (vacuum_eval(omega(fword_elt((1, 2))) * fword_elt((2, 1)), ctx), omega(fword_elt((1, 2))) * fword_elt((2, 1))),
        (pair_lowering(fword_elt((1,)), fword_elt((1,)), ctx), omega(fword_elt((1,))) * fword_elt((1,))),
        (pair_lowering(fword_elt((2, 1)), fword_elt((1, 2)), ctx), omega(fword_elt((2, 1))) * fword_elt((1, 2))),
        (invariant_form(fword_elt((2, 1)), e21, ctx), antipode(e21, n, inverse=True) * fword_elt((2, 1))),
        (invariant_form(fword_elt((2, 1)), mixed, ctx), antipode(mixed, n, inverse=True) * fword_elt((2, 1))),
    ]
    for got, x in cases:
        assert got == _reference_elt(x, ctx), x
    plus, minus = cases[1][0]  # one e_1: the signs' values differ by a sign
    assert minus == -plus != ZERO
    plus, minus = cases[-1][0]  # both parts live: neither equal nor opposite
    assert plus not in (minus, -minus)
    for u, w in [((1, 2), (2, 1)), ((1,), (1,)), ((2, 1, 1), (1, 2, 1))]:
        word = tuple(("e", j) for j in u) + tuple(("f", j) for j in w)
        for v0 in (3, (3, 1)):
            mode = SpecMode.numeric(v0)
            want = tuple(scalar_to_qqi(reference_vacuum(word, ctx, s), mode) for s in SIGNS)
            assert pair_words_qqi(u, w, ctx, v0) == want, (u, w, v0)
    for mu in _rank_weights(n, 3):
        words = fwords_of_weight(mu, n)
        for v0 in (3, (3, 1)):
            ranks = {verma.rank_gauss(gram_int_rows(words, ctx, v0, s)) for s in SIGNS} if words else {0}
            assert {rank_at(mu, ctx, v0)} == ranks, (mu, v0)


def test_spanning_set_is_built_once_per_context_and_weight(monkeypatch):
    """The rank gate and every zero test at one weight share one spanning set."""
    built = []
    original = verma.root_factors
    monkeypatch.setattr(verma, "root_factors", lambda kind, m, n: built.append(m) or original(kind, m, n))
    ctx = EvalContext(2, SpecMode.specialized())
    x = AlgElt.f(2) * AlgElt.f(1) + root_vector("f_eps", 2, 2).scaled(Q)
    assert is_zero_in_M(x, ctx) == is_zero_in_M(x.scaled(2), ctx) == (True, True)
    assert len(built) == len(verma.ladder_spanning_set(x.weight(2), ctx)) > 0


def test_module_oracle_refuses_generic_and_numeric_contexts():
    """Neither the weight-free Kashiwara form nor a numeric point is the
    module's weight."""
    for mode in (SpecMode.kashiwara(), SpecMode.numeric(2)):
        with pytest.raises(ValueError):
            is_zero_in_M(AlgElt.f(1), EvalContext(2, mode))


def _gate_by_word_pairings(coords, sigma):
    """The ladder verdict recomputed on a route the gate does not take: each
    spanning element is expanded into its lowering words, the words are
    paired at v0 = 2 and 3 by the integer recursion of ``pair_words_qqi``
    and combined with the word coefficients evaluated at the point; the
    rank there, from the Gauss-Jordan kernel of ``nullspace_qqi``, is
    compared with 1 for a basis weight and 0 otherwise."""
    from qsphere.plane import nullspace_qqi
    from qsphere.scalars import qqi_add, qqi_mul

    n = len(coords)
    expected = 1 if all(c <= 0 for c in coords) else 0
    sctx = EvalContext(n, SpecMode.specialized())
    span = [
        [(tuple(j for _f, j in w), c) for w, c in verma.expand(x).terms.items()]
        for x in verma.ladder_spanning_set(coords, sctx)
    ]
    for v0 in (2, 3):
        mode = SpecMode.numeric(v0)

        def entry(x, y):
            total = (Fraction(0), Fraction(0))
            for a, c in x:
                for b, d in y:
                    pair = pair_words_qqi(tuple(reversed(a)), b, sctx, v0)[SIGNS.index(sigma)]
                    coef = qqi_mul(scalar_to_qqi(c, mode), scalar_to_qqi(d, mode))
                    total = qqi_add(total, qqi_mul(coef, pair))
            return total

        rows = [[entry(x, y) for y in span] for x in span]
        if len(span) - len(nullspace_qqi(rows, len(span))) != expected:
            return False
    return True


@pytest.mark.parametrize("sigma", [1, -1])
def test_ladder_gate_agrees_with_numeric_walks(sigma):
    """The gate's verdicts, which hold at both signs or fail, against the
    integer word-pairing route at sigma."""
    ctx = EvalContext(2, SpecMode.specialized())
    verdicts = {}
    for mu in _rank_weights(2, 4):
        verdicts[mu] = verma._ladder_rank_ok(mu, ctx)
        assert verdicts[mu] == _gate_by_word_pairings(mu, sigma), mu
    assert verdicts[(0, 0)] is True
    assert False not in verdicts.values()
    assert any(any(c > 0 for c in mu) for mu in verdicts)


def test_zero_weight_is_spanned_by_the_unit():
    """The ladder's base case: M_0 is spanned by b_0 = 1, so a nonzero
    constant is nonzero in the module and its gate holds."""
    ctx = EvalContext(2, SpecMode.specialized())
    assert verma.ladder_spanning_set((0, 0), ctx) == [()]
    assert is_zero_in_M(AlgElt.unit(), ctx) == (False, False)
    assert is_zero_in_M(AlgElt.unit().scaled(Q), ctx) == (False, False)


def test_rank_gauss_ranks_gaussian_integers_and_scalars_alike():
    """Low-rank products of random Gaussian-integer matrices, ranked as
    pairs and as Scalars, against the Gauss-Jordan kernel of
    ``nullspace_qqi``; and a Scalar matrix of rank 1 over Q(i)(v)."""
    from qsphere.plane import nullspace_qqi

    rng = random.Random(16)
    for _ in range(40):
        nrows, ncols, inner = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 4)
        a = [[(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(inner)] for _ in range(nrows)]
        b = [[(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(inner)]
        terms = [[[_gmul(x, y[c]) for x, y in zip(r, b)] for c in range(ncols)] for r in a]
        rows = [[(sum(t[0] for t in ts), sum(t[1] for t in ts)) for ts in r] for r in terms]
        want = ncols - len(nullspace_qqi([[tuple(map(Fraction, x)) for x in r] for r in rows], ncols))
        assert verma.rank_gauss(rows) == want, rows
        assert verma.rank_gauss([[Scalar.gauss(*x) for x in r] for r in rows]) == want, rows
    v = Scalar.v_power(1)
    assert verma.rank_gauss([[v, v * v], [ONE, v], [v - 1, v * v - v]]) == 1


def test_ladder_gate_hands_the_specialized_gram_to_rank_gauss(monkeypatch):
    """One exact rank per gate and sign, on the spanning-set Gram of
    specialized Scalars itself: no entry is evaluated at a point first."""
    ranked = []
    original = verma.rank_gauss
    monkeypatch.setattr(verma, "rank_gauss", lambda rows: ranked.append(rows) or original(rows))
    coords = (-1, -1, -1)
    ctx = EvalContext(3, SpecMode.specialized())
    span = verma.ladder_spanning_set(coords, ctx)
    assert len(span) > 1 and verma._ladder_rank_ok(coords, ctx)
    assert ranked == [[[shapovalov(x, verma.expand(y), ctx)[k] for y in span] for x in span] for k in (0, 1)]
    assert all(isinstance(x, Scalar) for gram in ranked for row in gram for x in row)


# (v^2 - 4)(v^2 - 9): zero at v0 = 2 and 3, nonzero over Q(i)(v)
_VANISHES_AT_2_AND_3 = (Scalar.v_power(2) - 4) * (Scalar.v_power(2) - 9)


def _gate_with_gram(monkeypatch, coords, gram):
    ctx = EvalContext(2, SpecMode.specialized())
    span = verma.ladder_spanning_set(coords, ctx)
    assert len(span) == len(gram)

    elts = [verma.expand(s) for s in span]

    def fake(x, y, _ctx):
        i = next(k for k, s in enumerate(span) if s is x)
        j = next(k for k, s in enumerate(elts) if s == y)
        return gram[i][j], gram[i][j]

    monkeypatch.setattr(verma, "shapovalov", fake)
    return verma._ladder_rank_ok(coords, ctx)


def test_ladder_gate_refuses_a_nonzero_entry_that_vanishes_at_points(monkeypatch):
    """Off the basis cone the Gram must vanish; an entry that is zero at
    v0 = 2 and 3 but not over Q(i)(v) fails the gate."""
    assert not _gate_with_gram(monkeypatch, (1, -2), [[_VANISHES_AT_2_AND_3]])


def test_ladder_gate_refuses_a_minor_that_vanishes_at_points(monkeypatch):
    """A basis weight needs rank 1; this Gram has determinant
    (v^2 - 4)(v^2 - 9), so rank 2 over Q(i)(v), though rank 1 at 2 and 3."""
    gram = [[ONE, ONE], [ONE, ONE + _VANISHES_AT_2_AND_3]]
    assert not _gate_with_gram(monkeypatch, (-1, -1), gram)


def test_generic_zero_oracle():
    """The weight-free zero test: in U_q^-, by Kashiwara's form."""
    ctx = EvalContext(2, SpecMode.kashiwara())
    assert is_zero_in_U(AlgElt(), ctx)
    f2 = AlgElt.f(2)
    serre = (
        f2 * f2 * AlgElt.f(1)
        - (f2 * AlgElt.f(1) * f2).scaled(Q + QBAR)
        + AlgElt.f(1) * f2 * f2
    )
    assert is_zero_in_U(serre, ctx)
    assert not is_zero_in_U(AlgElt.f(1), ctx)
    with pytest.raises(ValueError):
        is_zero_in_U(serre, EvalContext(2, SpecMode.specialized()))


def test_numeric_mode_at_a_complex_rational_point():
    # v0 = 3 + i is admissible (not a root of unity) and stays exact
    ctx = EvalContext(2, SpecMode.specialized())
    mode = SpecMode.numeric((3, 1))
    want = scalar_to_qqi(I_UNIT / theta(), mode)
    assert scalar_to_qqi(vacuum_eval(AlgElt.e(1) * AlgElt.f(1), ctx)[0], mode) == want
    assert pair_words_qqi((1,), (1,), ctx, (3, 1))[0] == want


def test_pair_lowering_handles_fractional_coefficients():
    # the state grouping must split by coefficient denominator
    ctx = EvalContext(2, SpecMode.specialized())
    f1 = AlgElt.f(1)
    half_ish = ONE / (Q + ONE)
    y = f1.scaled(half_ish) + root_vector("f_eps", 1, 2).scaled(Q)
    direct = vacuum_eval(omega(f1) * y, ctx)
    assert pair_lowering(f1, y, ctx) == direct
    assert direct[0] == (half_ish + Q) * (I_UNIT / theta())


def test_quotient_generator_vanishes_and_detects_sign():
    ctx = EvalContext(2, SpecMode.specialized())
    fd = root_vector("f_delta", 1, 2)
    assert is_zero_in_M(fd, ctx) == (True, True)
    # but it is NOT zero in U_q^- (it only dies in the quotient)
    assert not is_zero_in_U(fd, EvalContext(2, SpecMode.kashiwara()))
