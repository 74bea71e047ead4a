import random
from fractions import Fraction

import pytest

from qsphere.scalars import (
    I_UNIT,
    ONE,
    ZERO,
    Scalar,
    SpecMode,
    qfact,
    qnum,
    qqi,
    qqi_inv,
    qqi_mul,
    qqi_pow,
    scalar_to_qqi,
    theta,
    weight_symbol,
)


V = Scalar.v_power


def test_inverse_pair():
    assert V(1) * V(-1) == ONE


def test_cancellation():
    assert (ONE / (V(1) - ONE)) * (V(1) - ONE) == ONE


def test_reduction_to_canonical_form():
    assert (V(2) - ONE) / (V(1) - ONE) == V(1) + ONE


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_specialized_weight_square():
    # the weight symbol L squares to -q^{-1} on either branch
    for sigma in (1, -1):
        L = weight_symbol(sigma)
        assert L * L + V(-2) == ZERO
        assert L == Scalar.gauss(0, sigma) * V(-1)
        for k in range(-5, 6):
            assert weight_symbol(sigma, k) == L ** k


def test_qnum_basic_values():
    assert qnum(1) == ONE
    assert qnum(2) == V(2) + V(-2)
    assert qnum(0) == ZERO


def test_qnum_odd_symmetry():
    for twice_z in range(-20, 21):
        z = Fraction(twice_z, 2)
        assert qnum(-z) == -qnum(z)


def test_qnum_with_cartan_shift():
    # at the distinguished weight the zero-shifted value is sigma*i / theta
    assert qnum(0, shift=weight_symbol(1)) == I_UNIT / theta()
    assert qnum(0, shift=weight_symbol(-1)) == -I_UNIT / theta()


def test_qfact():
    assert qfact(0) == ONE
    assert qfact(2) == V(2) + V(-2)
    assert qfact(3) == (V(2) + V(-2)) * (V(4) + ONE + V(-4))
    with pytest.raises(ValueError):
        qfact(-1)


def test_theta_at_numeric_point():
    assert scalar_to_qqi(theta(), SpecMode.numeric(2)) == qqi(Fraction(3, 2))


@pytest.mark.parametrize("point", [2, Fraction(-5, 3), (3, 1), (Fraction(1, 2), -2)])
def test_qqi_pow_is_repeated_multiplication(point):
    """Real points take one Fraction power; both kinds against k factors of
    the point, or of its inverse for k < 0."""
    a = SpecMode.numeric(point).v0
    for k in range(-7, 8):
        want = qqi(1)
        for _ in range(abs(k)):
            want = qqi_mul(want, a if k > 0 else qqi_inv(a))
        assert qqi_pow(a, k) == want, (point, k)


def test_numeric_mode_guards():
    with pytest.raises(ValueError):
        SpecMode.numeric(0)
    with pytest.raises(ValueError):
        SpecMode.numeric(1)
    with pytest.raises(ValueError):
        SpecMode.numeric(-1)
    with pytest.raises(ValueError):
        SpecMode.numeric((Fraction(0), Fraction(1)))  # v0 = i is a root of unity
    with pytest.raises(ValueError):
        SpecMode.numeric((Fraction(0), Fraction(-1)))  # and so is -i
    SpecMode.numeric(Fraction(3, 2))  # fine
    # modulus 1 but no root of unity
    SpecMode.numeric((Fraction(3, 5), Fraction(4, 5)))


def test_numeric_denominator_vanishing_reported():
    s = ONE / (V(1) - Scalar.integer(2))
    with pytest.raises(ZeroDivisionError):
        scalar_to_qqi(s, SpecMode.numeric(2))


def test_canonicalization_idempotent_and_equality_is_structural():
    rng = random.Random(7)
    for _ in range(40):
        num = ZERO
        den = ZERO
        while den.is_zero():
            num = Scalar.gauss(rng.randint(-4, 4), rng.randint(-4, 4)) * V(rng.randint(-3, 3))
            den = Scalar.gauss(rng.randint(-4, 4), rng.randint(-4, 4)) + V(rng.randint(0, 2))
        s = num / den
        t = Scalar(dict(s.num), dict(s.den))  # re-canonicalize the stored pair
        assert s == t
        assert (s.num, s.den) == (t.num, t.den)


def test_field_axioms_spot_checks():
    rng = random.Random(3)

    def rand_scalar():
        a = Scalar.gauss(rng.randint(-3, 3), rng.randint(-3, 3)) * V(rng.randint(-2, 2))
        b = ONE + V(rng.randint(1, 3))
        return a / b

    for _ in range(30):
        a, b, c = rand_scalar(), rand_scalar(), rand_scalar()
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == ZERO
        if not a.is_zero():
            assert a * a.inverse() == ONE


def test_common_factors_cancel_in_canonical_form():
    rng = random.Random(77)

    def rand_poly_scalar():
        s = ZERO
        for _ in range(rng.randint(1, 3)):
            s = s + Scalar.gauss(rng.randint(-3, 3), rng.randint(-2, 2)) * V(rng.randint(0, 2))
        return s

    for _ in range(25):
        a = rand_poly_scalar()
        b = rand_poly_scalar() * V(rng.randint(-1, 1))
        g = rand_poly_scalar()
        if b.is_zero() or g.is_zero():
            continue
        lhs = (a * g) / (b * g)
        rhs = a / b
        assert lhs == rhs
        assert (lhs.num, lhs.den) == (rhs.num, rhs.den)


def test_denominators_are_v_polynomials():
    """A v-power of a denominator moves into the numerator: the stored
    denominator is a polynomial in v with a nonzero constant term."""
    den = V(3) * (V(1) - ONE)
    s = (V(1) + ONE) / den
    assert s * den == V(1) + ONE
    assert s.num == {-3: (1, 0), -2: (1, 0)}
    assert s.den == {0: (-1, 0), 1: (1, 0)}
    assert (V(1) / V(-2)).den == ONE.den == {0: (1, 0)}


def test_serialization_shape():
    s = (V(1) + ONE) / (V(1) - ONE)
    text = str(s)
    assert "/" in text and "v^1" in text
    assert str(ZERO) == "0"
    assert str(weight_symbol(-1)) == "-i v^-1"
    assert str(V(2) - Scalar.gauss(2, 1)) == "( v^2 + (-2-i) )"
