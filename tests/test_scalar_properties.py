"""Property tests for the coefficient field: the field axioms of ``Scalar``,
inverses of its nonzero elements, canonical forms against evaluation at
random points, and evaluation at a numeric point as a ring homomorphism.

A ``Scalar`` is a fraction whose numerator is a Laurent polynomial in v and
whose canonical denominator is a polynomial in v with a nonzero constant
term: v-powers live in the numerator.  Scalars are drawn as short sums of
products of v-powers, Gaussian integers, q-numbers (plain and shifted by
the weight symbol sigma*i*v^{-1}) and powers of the weight symbol, so
canonicalization has gcds and units to cancel.
"""

from fractions import Fraction
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsphere.scalars import (
    ONE,
    PONE,
    QQI_ZERO,
    ZERO,
    Scalar,
    SpecMode,
    _canonical_pair,
    padd,
    peval_qqi,
    pmul,
    pneg,
    pscale,
    qnum,
    qqi_add,
    qqi_inv,
    qqi_mul,
    scalar_to_qqi,
    weight_symbol,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, database=None)

SIGMAS = st.sampled_from([1, -1])
L_POWERS = st.tuples(SIGMAS, st.integers(-2, 2)).map(lambda t: weight_symbol(t[0]) ** t[1])
V_ATOMS = st.one_of(
    st.integers(-3, 3).map(Scalar.v_power),
    st.tuples(st.integers(-3, 3), st.integers(-2, 2)).map(lambda g: Scalar.gauss(*g)),
    st.integers(1, 3).map(qnum),
)
ATOMS = st.one_of(
    V_ATOMS,
    st.tuples(st.integers(1, 2), SIGMAS).map(lambda t: qnum(t[0], weight_symbol(t[1]))),
    L_POWERS,
)


def _product(atoms):
    out = ONE
    for a in atoms:
        out = out * a
    return out


def _sum(terms):
    out = ZERO
    for t in terms:
        out = out + t
    return out


def _sums_of_products(atoms):
    return st.lists(st.lists(atoms, min_size=1, max_size=2).map(_product), min_size=1, max_size=2).map(_sum)


SCALARS = _sums_of_products(ATOMS)
# a v-fraction times a power of the weight symbol
UNITS = st.tuples(_sums_of_products(V_ATOMS), L_POWERS).map(lambda t: t[0] * t[1])

NUMERIC = [SpecMode.numeric(2), SpecMode.numeric(Fraction(5, 2)), SpecMode.numeric((3, 1))]


@PROPERTY
@given(SCALARS, SCALARS, SCALARS)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a + b == b + a and a * b == b * a
    assert a - a == ZERO and a * ONE == a and a + ZERO == a


@PROPERTY
@given(UNITS, SCALARS)
def test_nonzero_scalars_are_invertible(a, b):
    if not a.is_zero():
        assert a * (1 / a) == ONE
        assert a / a == ONE
        assert (b / a) * a == b


LAURENT = st.dictionaries(
    st.integers(-2, 3),
    st.tuples(st.integers(-3, 3), st.integers(-2, 2)).filter(lambda c: c != (0, 0)),
    min_size=1,
    max_size=4,
)
# a v-power times a unit of Z[i]
MONOMIALS = st.tuples(st.integers(-2, 2), st.sampled_from([(1, 0), (0, 1), (-1, 0), (0, -1)])).map(
    lambda t: {t[0]: t[1]}
)
POINTS = st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 4)).filter(
    lambda t: t[:2] != (0, 0)
).map(lambda t: (Fraction(t[0], t[2]), Fraction(t[1], t[2])))


def _value(num, den, v0):
    d = peval_qqi(den, v0)
    assert d != QQI_ZERO
    return qqi_mul(peval_qqi(num, v0), qqi_inv(d))


@PROPERTY
@given(LAURENT, LAURENT, LAURENT, MONOMIALS, POINTS)
def test_canonical_form_keeps_the_value_at_random_points(num0, den0, common, mono, v0):
    # a numerator over a denominator times a monomial, with a common factor
    # to cancel; evaluation at v0 is the oracle
    num = pmul(num0, common)
    den = pmul(pmul(den0, common), mono)
    s = Scalar(num, den)
    # the common factor cancels: the same canonical form as without it
    assert s.key() == Scalar(num0, pmul(den0, mono)).key()
    # a polynomial in v with a nonzero constant term
    assert 0 in s.den and all(k >= 0 for k in s.den)
    # a positive-integer leading coefficient, and integer content 1
    lead = s.den[max(s.den)]
    assert lead[1] == 0 and lead[0] > 0
    assert _integer_content(s) == 1
    assume(peval_qqi(den, v0) != QQI_ZERO)
    assert _value(s.num, s.den, v0) == _value(num, den, v0)


def _integer_content(s):
    return gcd(*(x for c in (*s.num.values(), *s.den.values()) for x in c))


# Gaussian integers that are no units: 1+i and 2-i are primes of Z[i],
# 3 = 3 and 3+4i = (2+i)^2 are not
NON_UNITS = st.one_of(
    st.sampled_from([(1, 1), (2, -1), (3, 0), (3, 4)]),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(lambda g: g[0] ** 2 + g[1] ** 2 > 1),
)


@PROPERTY
@given(LAURENT, LAURENT, MONOMIALS, NON_UNITS)
def test_a_gaussian_factor_of_numerator_and_denominator_cancels(num, den0, mono, lam):
    """The positive-integer leading coefficient and the integer content fix
    one form for every constant multiple of the pair."""
    den = pmul(den0, mono)
    s = Scalar(num, den)
    assert Scalar(pscale(num, lam), pscale(den, lam)).key() == s.key()
    assert _integer_content(s) == 1


@PROPERTY
@given(SCALARS, SCALARS)
def test_scalar_to_qqi_is_a_ring_homomorphism(a, b):
    for mode in NUMERIC:
        qa, qb = scalar_to_qqi(a, mode), scalar_to_qqi(b, mode)
        assert scalar_to_qqi(a + b, mode) == qqi_add(qa, qb), mode
        assert scalar_to_qqi(a * b, mode) == qqi_mul(qa, qb), mode


# Laurent polynomials in v, as scalars with denominator 1
POLYS = st.dictionaries(
    st.integers(-3, 3),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    max_size=4,
).map(lambda p: Scalar({k: g for k, g in p.items() if g != (0, 0)}))


@PROPERTY
@given(POLYS, POLYS)
def test_products_and_sums_over_denominator_one_are_canonical(a, b):
    """Over denominator 1 a product or sum skips canonicalization; its
    numerator must be the canonical pair of the same numerator."""
    assert a.den == b.den == PONE
    for got, num in ((a * b, pmul(a.num, b.num)), (a + b, padd(a.num, b.num)), (a - b, padd(a.num, pneg(b.num)))):
        assert (got.num, got.den) == _canonical_pair(num, PONE)


# factors of positive degree for operands to share across numerator and
# denominator: 1 + v, 1 + v^2, 2 + v, 1 + (1+i) v, i + 3 v^2
SHARED = st.sampled_from(
    [{0: (1, 0), 1: (1, 0)}, {0: (1, 0), 2: (1, 0)}, {0: (2, 0), 1: (1, 0)}, {0: (1, 0), 1: (1, 1)}, {0: (0, 1), 2: (3, 0)}]
)
GAUSS = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda c: c != (0, 0))
OPERANDS = st.one_of(
    st.tuples(st.integers(-3, 3), GAUSS).map(lambda t: Scalar({t[0]: t[1]})),  # monomials
    POLYS,  # Laurent polynomials over 1
    st.tuples(LAURENT, LAURENT).map(lambda t: Scalar(*t)),  # fractions
)


@st.composite
def operand_pairs(draw):
    """Two canonical scalars: drawn apart, or a/f and b/g with f | b's
    numerator and g | a's numerator, so both cross pairs cancel, or a/f and
    (z f - a)/f, whose sum z cancels f."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(OPERANDS), draw(OPERANDS)
    f, g = draw(SHARED), draw(SHARED)
    a, b = draw(LAURENT), draw(LAURENT)
    if kind == 1:
        return Scalar(pmul(a, g), pmul(draw(LAURENT), f)), Scalar(pmul(b, f), pmul(draw(LAURENT), g))
    z = draw(LAURENT)
    return Scalar(a, f), Scalar(padd(pmul(z, f), pneg(a)), f)


@PROPERTY
@given(operand_pairs())
def test_products_and_sums_are_the_canonical_pair_of_the_unreduced_result(pair):
    """A product reduces only its two cross pairs, and a sum only by the gcd
    of the denominators; both must give, field by field, the canonical pair
    of the unreduced result, with the unit denominator PONE itself."""
    a, b = pair
    (n1, d1), (n2, d2) = (a.num, a.den), (b.num, b.den)
    cases = [
        (a * b, pmul(n1, n2), pmul(d1, d2)),
        (b * a, pmul(n1, n2), pmul(d1, d2)),
        (a + b, padd(pmul(n1, d2), pmul(n2, d1)), pmul(d1, d2)),
        (a - b, padd(pmul(n1, d2), pneg(pmul(n2, d1))), pmul(d1, d2)),
    ]
    if b:
        cases.append((a / b, pmul(n1, d2), pmul(d1, n2)))
    for got, num, den in cases:
        assert (got.num, got.den) == _canonical_pair(num, den), (a, b)
        assert (got.den is PONE) == (got.den == PONE), (a, b)
