"""Property tests for the coefficient ring: the ring axioms of ``Scalar``,
inverses of its units, canonical forms against evaluation at random points,
and the specialization maps as ring homomorphisms.

A ``Scalar`` is a fraction whose numerator is a Laurent polynomial in v and
the L_j and whose canonical denominator is a polynomial in v with a nonzero
constant term: v-powers and L-monomials live in the numerator.
Scalars are drawn as short sums of products of v-powers, Gaussian integers,
q-numbers (plain and Cartan-shifted) and L-powers, so numerators are
multivariate and canonicalization has gcds to cancel.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsphere.scalars import (
    G1,
    ONE,
    PONE,
    QQI_ZERO,
    ZERO,
    Scalar,
    SpecMode,
    _canonical_pair,
    _strip,
    padd,
    peval_qqi,
    pmul,
    pneg,
    qnum,
    qqi_add,
    qqi_inv,
    qqi_mul,
    scalar_to_qqi,
    specialize,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, database=None)

L_POWERS = st.tuples(st.integers(1, 2), st.integers(-2, 2)).map(lambda t: Scalar.L_power(*t))
V_ATOMS = st.one_of(
    st.integers(-3, 3).map(Scalar.v_power),
    st.tuples(st.integers(-3, 3), st.integers(-2, 2)).map(lambda g: Scalar.gauss(*g)),
    st.integers(1, 3).map(qnum),
)
ATOMS = st.one_of(
    V_ATOMS,
    st.tuples(st.integers(1, 2), st.integers(1, 2)).map(
        lambda t: qnum(t[0], Scalar.L_power(t[1], 1))
    ),
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
# a v-fraction times an L-monomial: a unit of the ring once it is nonzero
UNITS = st.tuples(_sums_of_products(V_ATOMS), L_POWERS).map(lambda t: t[0] * t[1])

SPECIALIZED = [SpecMode.specialized(1), SpecMode.specialized(-1)]
NUMERIC = [SpecMode.numeric(2, 1), SpecMode.numeric(Fraction(5, 2), -1), SpecMode.numeric((3, 1), 1)]


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


def _strip(k):
    while k and k[-1] == 0:
        k = k[:-1]
    return k


def _laurent(nvars):
    keys = st.tuples(*[st.integers(-2, 3)] * nvars).map(_strip)
    coeffs = st.tuples(st.integers(-3, 3), st.integers(-2, 2)).filter(lambda c: c != (0, 0))
    return st.dictionaries(keys, coeffs, min_size=1, max_size=4)


L_MONOMIALS = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(lambda t: _strip((0,) + t))
POINTS = st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 4)).filter(
    lambda t: t[:2] != (0, 0)
).map(lambda t: (Fraction(t[0], t[2]), Fraction(t[1], t[2])))


def _value(num, den, v0, lvals):
    d = peval_qqi(den, v0, lvals)
    assert d != QQI_ZERO
    return qqi_mul(peval_qqi(num, v0, lvals), qqi_inv(d))


@PROPERTY
@given(_laurent(3), _laurent(1), _laurent(1), L_MONOMIALS, st.lists(POINTS, min_size=3, max_size=3))
def test_canonical_form_keeps_the_value_at_random_points(num0, den0, common, lmono, point):
    # an L-numerator over a v-only denominator times an L-monomial, with a
    # common v-factor to cancel; evaluation at (v0, L_1, L_2) is the oracle
    num = pmul(num0, common)
    den = pmul(pmul(den0, common), {lmono: G1})
    s = Scalar(num, den)
    # the common factor cancels: the same canonical form as without it
    assert s.key() == Scalar(num0, pmul(den0, {lmono: G1})).key()
    # a polynomial in v with a nonzero constant term
    assert () in s.den and all(k == () or (len(k) == 1 and k[0] > 0) for k in s.den)
    lead = s.den[max(s.den)]
    assert lead[0] > 0 and lead[1] >= 0
    v0, lvals = point[0], point[1:]
    assume(peval_qqi(den, v0, lvals) != QQI_ZERO)
    assert _value(s.num, s.den, v0, lvals) == _value(num, den, v0, lvals)


@PROPERTY
@given(SCALARS, SCALARS)
def test_specialize_is_a_ring_homomorphism(a, b):
    for mode in SPECIALIZED:
        sa, sb = specialize(a, mode), specialize(b, mode)
        assert specialize(a + b, mode) == sa + sb, mode
        assert specialize(a * b, mode) == sa * sb, mode
        assert specialize(ONE, mode) == ONE


@PROPERTY
@given(SCALARS, SCALARS)
def test_scalar_to_qqi_is_a_ring_homomorphism(a, b):
    for mode in NUMERIC:
        qa, qb = scalar_to_qqi(a, mode), scalar_to_qqi(b, mode)
        assert scalar_to_qqi(a + b, mode) == qqi_add(qa, qb), mode
        assert scalar_to_qqi(a * b, mode) == qqi_mul(qa, qb), mode
        # the numeric map factors through the specialized one
        spec = SpecMode.specialized(mode.sigma)
        assert scalar_to_qqi(specialize(a, spec), mode) == qa, mode


# Laurent polynomials in v and the L_j, as scalars with denominator 1
POLYS = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-2, 2), st.integers(-2, 2)).map(_strip),
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
