"""Property tests: the vacuum engine against the independent reference
rewriter, at both branches of the specialized weight and under Kashiwara's
form, at ranks 2 and 3, and the packed coefficient ring of the engine
against a dict convolution.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsphere import verma
from qsphere.scalars import I_UNIT, ONE, Q, ZERO, Scalar, SpecMode, scalar_to_qqi
from qsphere.verma import (
    _PZERO,
    EvalContext,
    _kiadd,
    _kmul,
    _pack_poly,
    _unpack_poly,
    fword_elt,
    invariant_form,
    pair_lowering,
    pair_words_qqi,
    vacuum_eval,
)
from qsphere.words import AlgElt, antipode, gen_k, omega

from test_verma import reference_vacuum

MODES = [SpecMode.specialized(1), SpecMode.specialized(-1)]
KASHIWARA = SpecMode.kashiwara()

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60, database=None)


def cartan_letters(n):
    return st.lists(st.integers(-1, 1), min_size=n, max_size=n).map(gen_k)


def letters(n):
    return st.one_of(st.tuples(st.sampled_from("ef"), st.integers(1, n)), cartan_letters(n))


def free_words(n, max_len=6):
    return st.lists(letters(n), max_size=max_len).map(tuple)


def lowering_words(n, max_len=4):
    return st.lists(st.integers(1, n), max_size=max_len).map(tuple)


@st.composite
def ef_words(draw, n):
    """Words without Cartan letters, the words Kashiwara's form takes, most
    of which reach the vacuum: a lowering word after the raising letters of
    a permutation of it, with up to two random letters inserted."""
    w = draw(lowering_words(n))
    word = [("e", j) for j in draw(st.permutations(w))] + [("f", j) for j in w]
    at = draw(st.integers(0, len(word)))
    word[at:at] = draw(st.lists(st.tuples(st.sampled_from("ef"), st.integers(1, n)), max_size=2))
    return tuple(word)


# small coefficients, including two with distinct nontrivial denominators,
# so that one side may carry both and the engine must clear it by their
# lcm
COEFFS = st.sampled_from(
    [
        ONE,
        Scalar.integer(-2),
        Scalar.gauss(1, 1),
        Scalar.v_power(-1),
        ONE / (Scalar.v_power(2) + ONE),
        ONE / (Scalar.v_power(1) + Scalar.integer(2)),
    ]
)


def lowering_elements(n):
    return st.lists(st.tuples(lowering_words(n, 3), COEFFS), min_size=1, max_size=3).map(
        lambda terms: sum((fword_elt(w).scaled(c) for w, c in terms), AlgElt())
    )


@pytest.mark.parametrize("n", [2, 3])
def test_vacuum_eval_is_the_specialized_generic_value(n):
    """At each branch of the weight, the engine's value of a word times a
    coefficient, which may carry a denominator, is the coefficient times
    the reference rewriter's value of the word at that weight."""
    contexts = [EvalContext(n, mode) for mode in MODES]

    @PROPERTY
    @given(free_words(n), st.one_of(COEFFS, st.sampled_from([Scalar.gauss(0, 1), Scalar.v_power(-3)])))
    def check(word, c):
        x = AlgElt({word: c})
        for ctx in contexts:
            assert vacuum_eval(x, ctx) == c * reference_vacuum(word, ctx), (word, c, ctx.mode)

    check()


@pytest.mark.parametrize("n", [2, 3])
def test_kashiwara_value_is_the_reference_value(n):
    """Under Kashiwara's form, the engine's value of a word of raising and
    lowering letters against the rewriter that keeps only the K_i^{-1} term
    of each commutator [e_i, f_i]."""
    ctx = EvalContext(n, KASHIWARA)

    @PROPERTY
    @given(ef_words(n), COEFFS)
    def check(word, c):
        assert vacuum_eval(AlgElt({word: c}), ctx) == c * reference_vacuum(word, ctx), (word, c)

    check()


V = Scalar.v_power(1)


def test_right_sides_over_v_plus_2_and_its_square_clear_to_its_square():
    """The lcm (v + 2)^2, not the product (v + 2)^3."""
    d = V + Scalar.integer(2)
    _terms, den = verma._cleared([((1,), ONE / d, 0), ((2,), ONE / (d * d), 0)])
    assert den == (d * d).num


@pytest.mark.parametrize(
    "d, e", [(V + Scalar.integer(2), V + Scalar.integer(3)), (Scalar.integer(2) * V + ONE, V * V + Scalar.integer(3))]
)
def test_clearing_takes_the_lcm_of_the_denominators(d, e):
    """Coefficients over d and d*e clear to a denominator of the degree of
    d*e, their lcm, not of their product d^2*e; each cleared term over it
    is its coefficient, and a pairing keeps the termwise value."""
    right = [((1,), ONE / d), ((2,), Scalar.gauss(1, 1) / (d * e))]
    cleared, den = verma._cleared([(w, c, 0) for w, c in right])
    assert max(den) == max((d * e).num)
    for (_w, c), (_w2, packed) in zip(right, cleared):
        assert Scalar(_unpack_poly(packed), den) == c
    ctx = EvalContext(2, MODES[0])
    x = fword_elt((1,)) + fword_elt((2,))
    y = sum((fword_elt(w).scaled(c) for w, c in right), AlgElt())
    assert pair_lowering(x, y, ctx) == sum((pair_lowering(x, fword_elt(w), ctx) * c for w, c in right), ZERO)


@pytest.mark.parametrize("n", [2, 3])
def test_pair_lowering_is_vacuum_of_the_product(n):
    contexts = [EvalContext(n, mode) for mode in MODES + [KASHIWARA]]

    @PROPERTY
    @given(lowering_elements(n), lowering_elements(n))
    def check(x, y):
        for ctx in contexts:
            assert pair_lowering(x, y, ctx) == vacuum_eval(omega(x) * y, ctx), ctx.mode

    check()


@st.composite
def engine_pairings(draw, n):
    """Left terms (free word, coefficient) and right terms (lowering word,
    coefficient) of one pairing.  The right words repeat their letters, so
    that a raising letter meets two equal slots and the state's sums
    collide.  Each left word shuffles the raising letters of some right
    word around a random free word of raising, lowering and Cartan letters,
    so the heights are mixed and many words reach the vacuum."""
    right = draw(st.lists(st.lists(st.integers(1, 2), max_size=3).map(tuple), min_size=2, max_size=3, unique=True))
    left = []
    for _ in range(draw(st.integers(2, 3))):
        word = [("e", j) for j in draw(st.permutations(draw(st.sampled_from(right))))]
        at = draw(st.integers(0, len(word)))
        word[at:at] = draw(free_words(n, 3))
        left.append((tuple(word), draw(COEFFS)))
    return left, [(w, draw(COEFFS)) for w in right]


@pytest.mark.parametrize("n", [2, 3])
def test_pairing_of_multi_term_elements_is_the_termwise_reference(n):
    """The engine's pairing of multi-term elements against the sum of the
    reference values of every pair of terms: a filter or a sum that drops a
    pair reaching the vacuum changes the value."""
    contexts = [EvalContext(n, mode) for mode in MODES]

    @PROPERTY
    @given(engine_pairings(n))
    def check(case):
        left, right = case
        engine_left = [(tuple(reversed(u)), c) for u, c in left]
        for ctx in contexts:
            want = sum(
                (c * d * reference_vacuum(u + tuple(("f", j) for j in w), ctx) for u, c in left for w, d in right),
                ZERO,
            )
            assert verma._evaluate([engine_left], right, ctx) == want, (left, right, ctx.mode)

    check()


def exact_words(n, length):
    return st.lists(st.integers(1, n), min_size=length, max_size=length).map(tuple)


# coefficients without denominators: a pairing value whose denominator
# joins (q - q^{-1})^3 to products of (v + 2) and (v^2 + 1) can take seconds
# to put in canonical form, on the flat path as well; the flat tests above
# cover coefficient denominators
FACTOR_COEFFS = st.sampled_from([ONE, Scalar.integer(-2), Scalar.gauss(1, 1), Scalar.v_power(-1)])


def factor_elements(n, max_len):
    return st.lists(st.tuples(lowering_words(n, max_len), FACTOR_COEFFS), min_size=1, max_size=3).map(
        lambda terms: sum((fword_elt(w).scaled(c) for w, c in terms), AlgElt())
    )


@st.composite
def factor_lists(draw, n):
    """One to four nonzero lowering factors, each a sum of one to three
    words of up to two letters, three letters at most over all factors.
    A factor's words may differ in length, so its heights are mixed."""
    factors, budget = [], 3
    for _ in range(draw(st.integers(1, 4))):
        max_len = draw(st.integers(0, min(2, budget)))
        budget -= max_len
        factors.append(draw(factor_elements(n, max_len).filter(bool)))
    return tuple(factors)


@st.composite
def factored_pairings(draw, n):
    """Factors as ``factor_lists`` draws them, and a right element that
    holds, scaled, the words of their product with one factor dropped or
    two neighbours swapped, so that most pairings reach the vacuum, plus a
    random lowering element."""
    factors = draw(factor_lists(n))
    shuffled = list(factors)
    if len(shuffled) > 1 and draw(st.booleans()):
        i = draw(st.integers(0, len(shuffled) - 2))
        shuffled[i], shuffled[i + 1] = shuffled[i + 1], shuffled[i]
    elif draw(st.booleans()):
        del shuffled[draw(st.integers(0, len(shuffled) - 1))]
    right = verma.expand(shuffled).scaled(draw(FACTOR_COEFFS)) + draw(factor_elements(n, 3))
    return factors, right


@pytest.mark.parametrize("n", [2, 3])
def test_factored_pairing_is_the_pairing_of_the_expanded_product(n):
    """Pairing a left side factor by factor, one merged state per factor,
    against ``pair_lowering`` of the expanded product, one state per word,
    at both branches and under Kashiwara's form."""
    contexts = [EvalContext(n, mode) for mode in MODES + [KASHIWARA]]

    @PROPERTY
    @given(factored_pairings(n))
    def check(case):
        factors, right = case
        product = verma.expand(factors)
        for ctx in contexts:
            got = pair_lowering(factors, right, ctx)
            assert got == pair_lowering(product, right, ctx), (factors, right, ctx.mode)

    check()


@pytest.mark.parametrize("n", [2, 3])
def test_factored_pairing_off_the_heights_clears_nothing(n, monkeypatch):
    """When no sum of one net height per factor is the length of a right
    word, the pairing is zero before any coefficient is cleared; when one
    is, it is cleared."""
    cleared = []
    original = verma._cleared
    monkeypatch.setattr(verma, "_cleared", lambda terms: cleared.append(terms) or original(terms))
    ctx = EvalContext(n, MODES[0])

    @PROPERTY
    @given(factor_lists(n), st.data())
    def check(factors, data):
        sums = {0}
        for x in factors:
            sums = {s + len(w) for s in sums for w in x.terms}
        miss = data.draw(st.sampled_from([k for k in range(max(sums) + 2) if k not in sums]))
        right = fword_elt(data.draw(exact_words(n, miss)))
        del cleared[:]
        assert pair_lowering(factors, right, ctx) == ZERO
        assert cleared == [], (factors, right)
        hit = fword_elt(data.draw(exact_words(n, data.draw(st.sampled_from(sorted(sums))))))
        pair_lowering(factors, hit + right, ctx)
        assert cleared, (factors, hit)

    check()


@st.composite
def raising_factor_lists(draw, n):
    """One to three nonzero factors without lowering letters, each a sum of
    one or two words of up to two raising letters and at most one Cartan
    letter, three raising letters at most over all factors, and a lowering
    element that holds, scaled, a permutation of the lowering letters of
    one word per factor, plus a random lowering element.  The antipodes of
    the factors carry the Cartan letters of their raising letters."""
    factors, budget, letters = [], 3, []
    for _ in range(draw(st.integers(1, 3))):
        words = []
        for _ in range(draw(st.integers(1, 2))):
            word = [("e", j) for j in draw(lowering_words(n, min(2, budget)))]
            if draw(st.booleans()):
                word.insert(draw(st.integers(0, len(word))), draw(cartan_letters(n)))
            words.append((tuple(word), draw(FACTOR_COEFFS)))
        budget -= max(sum(g[0] == "e" for g in w) for w, _c in words)
        letters += [g[1] for g in draw(st.sampled_from(words))[0] if g[0] == "e"]
        factors.append(sum((AlgElt({w: c}) for w, c in words), AlgElt()))
    x = fword_elt(draw(st.permutations(letters))).scaled(draw(FACTOR_COEFFS)) + draw(factor_elements(n, 3))
    return tuple(factors), x


@pytest.mark.parametrize("n", [2, 3])
def test_invariant_form_of_factors_is_that_of_their_product(n):
    """The invariant pairing given the raising side by its factors, whose
    inverse antipodes the engine applies first factor first, against the
    pairing of the expanded product, at both branches."""
    contexts = [EvalContext(n, mode) for mode in MODES]

    @PROPERTY
    @given(raising_factor_lists(n))
    def check(case):
        factors, x = case
        product = verma.expand(factors)
        for ctx in contexts:
            got = invariant_form(x, factors, ctx)
            assert got == invariant_form(x, product, ctx), (factors, x, ctx.mode)

    check()


# real coefficients, some with denominators
REAL_COEFFS = st.sampled_from(
    [ONE, Scalar.integer(-2), Scalar.v_power(-1), Q, ONE / (Scalar.v_power(2) + ONE)]
)


@st.composite
def real_weight_pairs(draw, n):
    """Two lowering elements of one weight with real coefficients: each a
    sum of one to three permutations of one lowering word."""
    w = draw(lowering_words(n))

    def element():
        terms = draw(st.lists(st.tuples(st.permutations(w), REAL_COEFFS), min_size=1, max_size=3))
        return sum((fword_elt(u).scaled(c) for u, c in terms), AlgElt())

    return w, element(), element()


@pytest.mark.parametrize("n", [2, 3])
def test_the_branch_sign_multiplies_real_pairings_by_a_weight_sign(n):
    """On real inputs a lowering pairing of weight mu is (sigma*i)^{a_1} times
    a value in Q(v) that does not depend on sigma, a_1 the number of alpha_1
    in mu: every e_1 contributes one sigma*i, every other raising letter a
    real coefficient.  So the value at sigma = -1 is (-1)^{a_1} times the
    value at sigma = +1."""
    plus, minus = (EvalContext(n, mode) for mode in MODES)

    @PROPERTY
    @given(real_weight_pairs(n))
    def check(case):
        w, x, y = case
        a1 = w.count(1)
        value = pair_lowering(x, y, plus)
        assert pair_lowering(x, y, minus) == (-value if a1 % 2 else value), (x, y)
        real = value / I_UNIT**a1
        assert all(im == 0 for poly in (real.num, real.den) for _re, im in poly.values()), (x, y)

    check()


# Gaussian-integer coefficients, for the values that split by sign parity
GAUSS_COEFFS = st.sampled_from([ONE, Scalar.integer(-2), Scalar.gauss(1, 1), Scalar.gauss(2, -1), Scalar.gauss(0, 1)])


def _walked_parity(u, n):
    """The sign parity of the raising word u as the engine walks it: the
    count of e_1 letters and of Cartan letters of odd sum(mu) in the one
    word of its inverse antipode, mod 2, the power of sigma its value
    carries (e_1's own K_1^{-1} cancels its sigma)."""
    (image,) = antipode(AlgElt({u: ONE}), n, inverse=True).terms
    return sum(g == ("e", 1) or (g[0] == "K" and sum(g[1]) % 2 == 1) for g in image) % 2


@st.composite
def weight_invariant_pairs(draw, n, mixed):
    """A lowering element x, a raising side y of one weight, and the sign
    parity of y's first word, with Gaussian-integer coefficients: x sums
    permutations of a lowering word w, and each word of y permutes the
    raising letters of w around up to two Cartan letters.  Unless mixed, y
    keeps only the words of its first word's parity; if mixed, y also
    holds its first word with a Cartan letter of sum 1 inserted, so that
    both parities occur."""
    w = draw(lowering_words(n, 3))
    words = []
    for _ in range(draw(st.integers(1, 3))):
        word = [("e", j) for j in draw(st.permutations(w))]
        for k in draw(st.lists(cartan_letters(n), max_size=2)):
            word.insert(draw(st.integers(0, len(word))), k)
        words.append(tuple(word))
    parity = _walked_parity(words[0], n)
    if mixed:
        at = draw(st.integers(0, len(words[0])))
        words.append(words[0][:at] + (gen_k((1,) + (0,) * (n - 1)),) + words[0][at:])
    else:
        words = [u for u in words if _walked_parity(u, n) == parity]
    y = sum((AlgElt({u: draw(GAUSS_COEFFS)}) for u in words), AlgElt())
    terms = draw(st.lists(st.tuples(st.permutations(w), GAUSS_COEFFS), min_size=1, max_size=3))
    x = sum((fword_elt(u).scaled(c) for u, c in terms), AlgElt())
    return x, y, parity


def _spy_parities(monkeypatch):
    """The (even, odd) parts of every walk, in call order."""
    parts = []
    original = verma._parities

    def spy(*args):
        parts.append(original(*args))
        return parts[-1]

    monkeypatch.setattr(verma, "_parities", spy)
    return parts


@pytest.mark.parametrize("n", [2, 3])
def test_weight_homogeneous_invariant_pairings_live_in_their_predicted_parity(n, monkeypatch):
    """On inputs of one weight and one sign parity, with Gaussian-integer
    coefficients and Cartan letters, exactly the part of the predicted
    parity may be nonzero, and the sign-free context's pair is the values
    of the two per-sign contexts."""
    both, plus, minus = (EvalContext(n, mode) for mode in [SpecMode.specialized()] + MODES)
    parts = _spy_parities(monkeypatch)

    @PROPERTY
    @given(weight_invariant_pairs(n, mixed=False))
    def check(case):
        x, y, parity = case
        del parts[:]
        pair = invariant_form(x, y, both)
        assert parts[0][1 - parity] == ZERO, (x, y, parity)
        assert pair == (invariant_form(x, y, plus), invariant_form(x, y, minus)), (x, y)

    check()


@pytest.mark.parametrize("n", [2, 3])
def test_mixed_parity_invariant_pairings_are_the_reference_values(n, monkeypatch):
    """With both sign parities in the raising side, both parts are live,
    and even + sigma*odd is the reference rewriter's value at each sign."""
    contexts = [EvalContext(n, mode) for mode in MODES]
    both = EvalContext(n, SpecMode.specialized())
    parts = _spy_parities(monkeypatch)
    live = []

    @PROPERTY
    @given(weight_invariant_pairs(n, mixed=True))
    def check(case):
        x, y, _parity = case
        left = antipode(y, n, inverse=True).terms.items()
        wants = []
        for ctx in contexts:
            ref = (c * d * reference_vacuum(u + tuple(("f", j) for j in w), ctx) for u, c in left for w, d in _pure(x))
            wants.append(sum(ref, ZERO))
            assert invariant_form(x, y, ctx) == wants[-1], (x, y, ctx.mode)
        del parts[:]
        assert invariant_form(x, y, both) == tuple(wants), (x, y)
        live.append(all(parts[0]))

    check()
    assert any(live)


def _pure(x):
    """The (index word, coefficient) terms of a pure lowering element."""
    return [(tuple(g[1] for g in w), c) for w, c in x.terms.items()]


@pytest.mark.parametrize("n", [2, 3])
def test_memoized_numeric_pairing_matches_vacuum_eval(n):
    contexts = [EvalContext(n, mode) for mode in MODES]

    @PROPERTY
    @given(lowering_words(n), lowering_words(n))
    def check(u, w):
        direct = omega(fword_elt(u)) * fword_elt(w)
        for ctx in contexts:
            value = vacuum_eval(direct, ctx)
            for v0 in (2, (3, 1)):
                want = scalar_to_qqi(value, SpecMode.numeric(v0))
                assert pair_words_qqi(tuple(reversed(u)), w, ctx, v0) == want, (ctx.mode, v0)

    check()


# ---------------------------------------------------------------------------
# The packed ring of the engine against a dict convolution
# ---------------------------------------------------------------------------


def dict_mul(p, r):
    """Product of Laurent polynomials in v over Z[i] keyed by exponent: a
    plain convolution, the oracle for the packed product."""
    out = {}
    for k1, (a, b) in p.items():
        for k2, (c, d) in r.items():
            re, im = out.get(k1 + k2, (0, 0))
            out[k1 + k2] = (re + a * c - b * d, im + a * d + b * c)
    return {e: g for e, g in out.items() if g != (0, 0)}


def dict_add(p, r):
    out = dict(p)
    for k, (c, d) in r.items():
        re, im = out.get(k, (0, 0))
        out[k] = (re + c, im + d)
    return {k: g for k, g in out.items() if g != (0, 0)}


# coefficients from units to 2^40, so that packing, sums and products cross
# the 32-, 64- and 96-bit slots
PARTS = st.one_of(st.integers(-3, 3), st.integers(-(2**20), 2**20), st.integers(-(2**40), 2**40))
GAUSS = st.tuples(PARTS, PARTS)
VPOLYS = st.dictionaries(st.integers(-12, 12), GAUSS, max_size=6).map(
    lambda p: {k: g for k, g in p.items() if g != (0, 0)}
)


def _fold(polys, ops, mul, add, pack=lambda p: p):
    acc = pack(polys[0])
    for op, p in zip(ops, polys[1:]):
        acc = mul(acc, pack(p)) if op else add(acc, pack(p))
    return acc


def _packed_add(x, y):
    acc = {"k": x}
    _kiadd(acc, "k", y)
    return acc["k"]


def _packed_fold(polys, ops):
    return _fold(polys, ops, _kmul, _packed_add, _pack_poly)


@PROPERTY
@given(st.lists(VPOLYS, min_size=1, max_size=6), st.lists(st.booleans(), min_size=5, max_size=5))
def test_packed_ring_matches_the_dict_convolution(polys, ops):
    """Chains of products and sums, unpacked once at the end; a zero result,
    a sum that cancels and a product by zero are the one packed zero."""
    for chain in (polys, polys[::-1]):
        want = _fold(chain, ops, dict_mul, dict_add)
        got = _packed_fold(chain, ops)
        assert _unpack_poly(got) == want
        assert (got == _PZERO) == (not want)
        assert _packed_add(got, _pack_poly({k: (-a, -b) for k, (a, b) in want.items()})) == _PZERO
        assert _kmul(got, _PZERO) == _kmul(_PZERO, got) == _PZERO


@PROPERTY
@given(st.lists(st.tuples(st.sampled_from("ab"), VPOLYS), max_size=8))
def test_packed_iadd_matches_the_dict_sum(items):
    got, want = {}, {}
    for key, p in items:
        _kiadd(got, key, _pack_poly(p))
        want[key] = dict_add(want.get(key, {}), p)
    assert {k: _unpack_poly(v) for k, v in got.items()} == want


# The l1 norm of (1 + v)^k is 2^k, and (2 v^-1)^k and (-2i v^-1)^k have one
# coefficient of that size, the bound itself: the products and the doubled
# sums of these chains cross 2^31 and 2^63, some exactly at +2^31 or +2^63i
CHAINS = [[{0: (1, 0), 1: (1, 0)}] * k for k in (34, 71)] + [
    [{-1: g}] * k for g, k in (((2, 0), 30), ((0, -2), 31), ((0, -2), 63))
]


def _chain(chain):
    """The chain's product and doubled product, packed and by the oracle."""
    ops = [True] * (len(chain) - 1)
    want = _fold(chain, ops, dict_mul, dict_add)
    got = _packed_fold(chain, ops)
    return [got, _packed_add(got, got)], [want, dict_add(want, want)]


@pytest.mark.parametrize("chain", CHAINS)
def test_packed_chains_widen_across_the_slot_bound(chain):
    got, want = _chain(chain)
    assert [_unpack_poly(x) for x in got] == want
    assert got[1][4] > 32


@pytest.mark.parametrize("chain", CHAINS)
def test_an_undersized_slot_fails_the_comparison(chain, monkeypatch):
    """The same chains with the width rule fixed at 32 bits: the slots
    overflow and the unpacked values differ from the convolution."""
    monkeypatch.setattr(verma, "_slot_width", lambda bound: 32)
    got, want = _chain(chain)
    assert [_unpack_poly(x) for x in got] != want
