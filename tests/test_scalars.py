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
    scalar_to_qqi,
    specialize,
    theta,
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
    # L^2 specializes onto -q^{-1} on either branch
    L1 = Scalar.L_power(1, 1)
    for sigma in (1, -1):
        mode = SpecMode.specialized(sigma)
        assert specialize(L1 * L1 + V(-2), mode) == ZERO
        assert specialize(L1, mode) == Scalar.gauss(0, sigma) * V(-1)


def test_specialize_is_ring_homomorphism():
    rng = random.Random(42)

    def rand_scalar():
        num = ZERO
        for _ in range(rng.randint(1, 3)):
            num = num + Scalar.gauss(rng.randint(-3, 3), rng.randint(-2, 2)) * V(
                rng.randint(-3, 3)
            ) * Scalar.L_power(1, rng.randint(-1, 1))
        return num

    modes = [SpecMode.specialized(1), SpecMode.specialized(-1)]
    for _ in range(60):
        a, b = rand_scalar(), rand_scalar()
        for mode in modes:
            assert specialize(a + b, mode) == specialize(a, mode) + specialize(b, mode)
            assert specialize(a * b, mode) == specialize(a, mode) * specialize(b, mode)


def test_qnum_basic_values():
    assert qnum(1) == ONE
    assert qnum(2) == V(2) + V(-2)
    assert qnum(0) == ZERO


def test_qnum_odd_symmetry():
    for twice_z in range(-20, 21):
        z = Fraction(twice_z, 2)
        assert qnum(-z) == -qnum(z)


def test_qnum_with_cartan_shift():
    # at the distinguished weight the zero-shifted value is i / theta
    shifted = qnum(0, shift=Scalar.L_power(1, 1))
    val = specialize(shifted, SpecMode.specialized(1))
    assert val == I_UNIT / theta()
    val_neg = specialize(shifted, SpecMode.specialized(-1))
    assert val_neg == -I_UNIT / theta()


def test_qfact():
    assert qfact(0) == ONE
    assert qfact(2) == V(2) + V(-2)
    assert qfact(3) == (V(2) + V(-2)) * (V(4) + ONE + V(-4))
    with pytest.raises(ValueError):
        qfact(-1)


def test_theta_at_numeric_point():
    assert scalar_to_qqi(theta(), SpecMode.numeric(2, 1)) == qqi(Fraction(3, 2))


def test_specialize_refuses_a_numeric_point():
    with pytest.raises(ValueError):
        specialize(V(1), SpecMode.numeric(2))


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
        scalar_to_qqi(s, SpecMode.numeric(2, 1))


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

    def rand_poly_scalar(with_l=True):
        s = ZERO
        for _ in range(rng.randint(1, 3)):
            t = Scalar.gauss(rng.randint(-3, 3), rng.randint(-2, 2)) * V(rng.randint(0, 2))
            if with_l and rng.random() < 0.5:
                t = t * Scalar.L_power(rng.randint(1, 2), rng.randint(0, 2))
            s = s + t
        return s

    for _ in range(25):
        # denominators are v-polynomials, up to an L-monomial
        a = rand_poly_scalar()
        b = rand_poly_scalar(with_l=False) * Scalar.L_power(rng.randint(1, 2), rng.randint(-1, 1))
        g = rand_poly_scalar(with_l=False)
        if b.is_zero() or g.is_zero():
            continue
        lhs = (a * g) / (b * g)
        rhs = a / b
        assert lhs == rhs
        assert (lhs.num, lhs.den) == (rhs.num, rhs.den)


def test_denominators_are_v_polynomials_up_to_an_L_monomial():
    L1, L2 = Scalar.L_power(1, 1), Scalar.L_power(2, 1)
    den = L1 * L2 * L2 * (V(1) - ONE)
    s = (V(1) + L1) / den
    assert s * den == V(1) + L1
    assert all(len(k) <= 1 for k in s.den)
    assert (L1 / L2).den == ONE.den
    with pytest.raises(ArithmeticError, match="not a polynomial in v"):
        ONE / (ONE + L1)
    with pytest.raises(ArithmeticError, match="not a polynomial in v"):
        V(1) / (V(1) * L1 - L2 * L2)


def test_serialization_shape():
    s = (V(1) + ONE) / (V(1) - ONE)
    text = str(s)
    assert "/" in text and "v^1" in text
    assert str(ZERO) == "0"
    assert "L1" in str(Scalar.L_power(1, 2))
