"""Property tests for the coefficient field: the field axioms of ``Scalar``,
and the specialization maps as ring homomorphisms.

Scalars are drawn as short sums of products of v-powers, Gaussian integers,
q-numbers (plain and Cartan-shifted) and L-powers, so numerators and
denominators are multivariate and canonicalization has gcds to cancel.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qsphere.scalars import (
    ONE,
    ZERO,
    Scalar,
    SpecMode,
    qnum,
    qqi_add,
    qqi_mul,
    scalar_to_qqi,
    specialize,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, database=None)

ATOMS = st.one_of(
    st.integers(-3, 3).map(Scalar.v_power),
    st.tuples(st.integers(-3, 3), st.integers(-2, 2)).map(lambda g: Scalar.gauss(*g)),
    st.integers(1, 3).map(qnum),
    st.tuples(st.integers(1, 2), st.integers(1, 2)).map(
        lambda t: qnum(t[0], Scalar.L_power(t[1], 1))
    ),
    st.tuples(st.integers(1, 2), st.integers(-2, 2)).map(lambda t: Scalar.L_power(*t)),
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


SCALARS = st.lists(st.lists(ATOMS, min_size=1, max_size=2).map(_product), min_size=1, max_size=2).map(_sum)

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
@given(SCALARS)
def test_nonzero_scalars_are_invertible(a):
    if not a.is_zero():
        assert a * (1 / a) == ONE
        assert a / a == ONE


@PROPERTY
@given(SCALARS, SCALARS)
def test_specialize_is_a_ring_homomorphism(a, b):
    for mode in SPECIALIZED + NUMERIC:
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
