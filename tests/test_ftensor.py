import pytest

from qsphere.scalars import (
    ONE,
    QQI_ZERO,
    Scalar,
    SpecMode,
    peval_qqi,
    qqi,
    theta,
)
from qsphere.verma import EvalContext, invariant_form
from qsphere.ftensor import build_F

from oracles import ftensor_coeff, ftensor_to_json


def test_trivial_entry():
    F = build_F(2, 3)
    assert ftensor_coeff(F, (0, 0)) == ONE
    m0 = [e for e in F.entries if e[0] == (0, 0)][0]
    assert m0[2].terms == {(): ONE} and m0[3].terms == {(): ONE}


def test_first_level_coefficients():
    F = build_F(2, 2)
    th = theta()
    assert ftensor_coeff(F, (1, 0)) == -th * Scalar.v_power(-1)
    assert ftensor_coeff(F, (0, 1)) == -th * Scalar.v_power(3)


def test_entry_enumeration():
    F = build_F(2, 4)
    assert len(F.entries) == 15  # all multi-indices with total degree <= 4
    assert build_F(3, 2).entries[0][0] == (0, 0, 0)
    with pytest.raises(ValueError):
        build_F(2, -1)


def test_inverse_normalization_small_range():
    # full range is exercised by the acceptance suite
    F = build_F(2, 2)
    ctx = EvalContext(2, SpecMode.specialized())
    for m, c, ep, fp in F.entries:
        assert tuple(c * x for x in invariant_form(fp, ep, ctx)) == (ONE, ONE), m


def test_no_poles_at_admissible_points():
    F = build_F(2, 4)
    for v0 in (2, 3):
        pt = qqi(v0)
        for m, c, _e, _f in F.entries:
            assert peval_qqi(c.den, pt) != QQI_ZERO, (v0, m)


def test_classical_degeneration():
    # every entry above the unit one vanishes at v = 1 (the gap closes)
    F = build_F(2, 4)
    one = qqi(1)
    for m, c, _e, _f in F.entries:
        assert peval_qqi(c.den, one) != QQI_ZERO, m
        if sum(m) >= 1:
            assert peval_qqi(c.num, one) == QQI_ZERO, m
        else:
            assert peval_qqi(c.num, one) != QQI_ZERO


def test_json_dump_shape():
    F = build_F(2, 1)
    blob = ftensor_to_json(F)
    assert all(set(e) == {"m", "coeff"} for e in blob)
    assert blob[0]["m"] == [0, 0]
