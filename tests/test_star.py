import pytest

from qsphere.scalars import QQI_ZERO, Scalar, peval_qqi, qqi, qqi_inv, qqi_mul, theta
from qsphere.plane import PlanePoly, act, casimir, isotropy_operators, star
from qsphere.ftensor import build_F
from qsphere.suites import verify_star


def x(k, n=2):
    return PlanePoly.coordinate(k, n)


def _limit_at_one(p):
    pt = qqi(1)
    out = {}
    for m, c in p.terms.items():
        nv = peval_qqi(c.num, pt)
        dv = peval_qqi(c.den, pt)
        assert dv != QQI_ZERO
        val = qqi_mul(nv, qqi_inv(dv))
        if val != QQI_ZERO:
            out[m] = val
    return out


def test_star_with_unit():
    F = build_F(2, 2)
    C = casimir(2)
    assert star(PlanePoly.unit(2), C, F) == C
    assert star(C, PlanePoly.unit(2), F) == C


def test_star_of_central_coordinates_hand_expansion():
    # x_0 * x_0 picks up exactly the two mirror corrections, with the gap
    # factor and one power of v each way
    n = 2
    F = build_F(n, 2)
    th = theta()
    got = star(x(0), x(0), F)
    want = (
        x(0) * x(0)
        + (x(1) * x(-1)).scaled(th * Scalar.v_power(-1))
        + (x(2) * x(-2)).scaled(th * Scalar.v_power(1))
    )
    assert got == want


def test_star_truncation_guard():
    F = build_F(2, 1)
    p = x(0) * x(0)
    with pytest.raises(ValueError):
        star(p, p, F)


def test_star_classical_limit():
    n = 2
    F = build_F(n, 4)
    C = casimir(n)
    for a, b in [(x(0), x(0)), (C, x(0)), (C, C), (x(1), x(-1))]:
        assert _limit_at_one(star(a, b, F)) == _limit_at_one(a * b)


def test_star_preserves_weight():
    n = 2
    F = build_F(n, 2)
    s = star(x(1), x(-1), F)
    comps = s.weight_components()
    assert set(comps) == {(0, 0)}


def test_star_closure_and_associativity_on_invariants():
    n = 2
    F = build_F(n, 4)
    C = casimir(n)
    cands = [PlanePoly.unit(n), x(0), x(0) * x(0), C]
    ops = isotropy_operators(n)
    for a in cands:
        for b in cands:
            sab = star(a, b, F)
            assert all(act(op, sab).is_zero() for op in ops)
    trip = [x(0), C]
    for a in trip:
        for b in trip:
            for c in trip:
                assert star(star(a, b, F), c, F) == star(a, star(b, c, F), F)


def test_star_is_not_associative_globally():
    n = 2
    F = build_F(n, 4)
    a, b, c = x(-1), x(1), x(1)
    assert star(star(a, b, F), c, F) != star(a, star(b, c, F), F)


def test_rank_three_star_suite():
    rep = verify_star(3)
    assert rep.passed
    assert len(rep.checks) == 97


def test_classical_limit_covers_every_candidate_pair():
    """At degree 3 there are six candidates; the limit checks pair all of
    them, not the first four."""
    rep = verify_star(2, 3)
    names = [c.name for c in rep.checks]
    assert rep.passed
    assert len(names) == 289
    assert "limit:deg3[1]*deg3[1]" in names
    assert sum(name.startswith("limit:") for name in names) == 36
