import random

import pytest

from qsphere import plane
from qsphere.scalars import ONE, Scalar, SpecMode
from qsphere.words import AlgElt, alpha_vec, root_vector
from qsphere.plane import (
    PlanePoly,
    act,
    act_gen_on_word,
    candidate_invariants,
    casimir,
    chev_twist,
    invariant_subspace,
    iota,
    isotropy_operators,
    monomials_of_degree,
    nullspace_qqi,
    operator_matrix,
)

Q = Scalar.v_power(2)
QBAR = Scalar.v_power(-2)


def x(k, n=2):
    return PlanePoly.coordinate(k, n)


def test_normalize_ordered_word_is_itself():
    assert PlanePoly.from_word((0, 1), 2) == PlanePoly(2, {(0, 0, 1, 1, 0): ONE})


def test_normalize_first_mirror_pair():
    got = PlanePoly.from_word((1, -1), 2)
    want = PlanePoly(2, {(0, 1, 0, 1, 0): ONE, (0, 0, 2, 0, 0): Q - ONE})
    assert got == want


def test_normalize_second_mirror_pair_cascades():
    got = PlanePoly.from_word((2, -2), 2)
    want = PlanePoly(
        2,
        {
            (1, 0, 0, 0, 1): ONE,
            (0, 1, 0, 1, 0): Q - QBAR,
            (0, 0, 2, 0, 0): Q * Q - Q,
        },
    )
    assert got == want


def test_plain_exchange():
    # x_1 x_0 with 1 > 0 picks up one inverse power of q
    assert PlanePoly.from_word((1, 0), 2) == PlanePoly(2, {(0, 0, 1, 1, 0): QBAR})


def test_multiply():
    n = 2
    one = PlanePoly.unit(n)
    p = x(1) * x(-1)
    assert one * p == p
    assert p == PlanePoly.from_word((1, -1), n)
    assert (x(0) * x(0)) * x(0) == PlanePoly(n, {(0, 0, 3, 0, 0): ONE})


def test_powers():
    p = x(1) + x(-1)
    assert p ** 0 == PlanePoly.unit(2)
    assert p ** 2 == p * p
    with pytest.raises(ValueError):
        p ** -1


def test_normalization_is_associative_on_random_words():
    rng = random.Random(17)
    for n in (2, 3):
        idxs = list(range(-n, n + 1))
        for _ in range(50):
            words = [
                tuple(rng.choice(idxs) for _ in range(rng.randint(0, 2))) for _ in range(3)
            ]
            a, b, c = (PlanePoly.from_word(w, n) for w in words)
            assert (a * b) * c == a * (b * c), words


def test_action_on_coordinates():
    n = 2
    e1, f1 = AlgElt.e(1), AlgElt.f(1)
    assert act(e1, x(0)) == x(1)
    assert act(f1, x(1)) == x(0)
    assert act(f1, x(0)) == -x(-1)
    assert act(AlgElt.e(2), x(1)) == x(2)
    assert act(AlgElt.e(2), x(-2)) == -x(-1)
    assert act(f1, x(-1)).is_zero()


def test_cartan_action_scales_by_weight():
    n = 2
    K = AlgElt.K((1, 0))
    assert act(K, x(1)) == x(1).scaled(Q)
    assert act(K, x(-1)) == x(-1).scaled(QBAR)
    assert act(K, x(0)) == x(0)
    assert act(K, casimir(n)) == casimir(n)


def test_action_is_a_representation_on_random_words():
    rng = random.Random(23)
    n = 2
    gens = [("e", 1), ("e", 2), ("f", 1), ("f", 2), ("K", (1, 0)), ("K", (0, -1))]
    for _ in range(25):
        w = tuple(rng.choice(gens) for _ in range(rng.randint(1, 3)))
        p = PlanePoly.from_word(
            tuple(rng.choice(range(-n, n + 1)) for _ in range(rng.randint(0, 3))), n
        )
        composed = p
        for g in reversed(w):
            composed = act(AlgElt.generator(g), composed)
        assert act(AlgElt({w: ONE}), p) == composed, w


def test_action_respects_relations_on_raw_words():
    n = 2
    rels = [
        ((1, 0), {(0, 1): QBAR}),
        ((2, -1), {(-1, 2): QBAR}),
        ((1, -1), {(-1, 1): ONE, (0, 0): Q - ONE}),
        ((2, -2), {(-2, 2): ONE, (1, -1): Q, (-1, 1): -QBAR}),
    ]
    gens = [("e", 1), ("e", 2), ("f", 1), ("f", 2), ("K", (1, 0)), ("K", (0, 1))]
    for lw, rdict in rels:
        for g in gens:
            lhs = act_gen_on_word(g, lw, n)
            acc = {}
            for w, c in rdict.items():
                for tm, tc in act_gen_on_word(g, w, n).items():
                    cur = acc.get(tm)
                    cur = c * tc if cur is None else cur + c * tc
                    if cur:
                        acc[tm] = cur
                    else:
                        acc.pop(tm, None)
            lp = PlanePoly(n)
            lp.terms = {m: c for m, c in lhs.items() if c}
            rp = PlanePoly(n)
            rp.terms = acc
            assert lp == rp, (lw, g)


def test_casimir_normal_form_and_invariance():
    for n in (1, 2, 3):
        C = casimir(n)
        for i in range(1, n + 1):
            assert act(AlgElt.e(i), C).is_zero(), (n, i)
            assert act(AlgElt.f(i), C).is_zero(), (n, i)


def test_involution_compatibility_on_generators():
    n = 2
    for i in range(1, n + 1):
        for k in range(-n, n + 1):
            xk = x(k, n)
            for u in (AlgElt.e(i), AlgElt.f(i), AlgElt.K(alpha_vec(i, n))):
                assert iota(act(u, xk)) == act(chev_twist(u), iota(xk)), (i, k)


def test_chev_twist_is_involutive():
    u = AlgElt.e(1) * AlgElt.f(2) * AlgElt.K((1, -1))
    assert chev_twist(chev_twist(u)) == u


def test_delta_operators_kill_central_column():
    for n in (2, 3):
        fd = root_vector("f_delta", 1, n)
        ed = root_vector("e_delta", 1, n)
        col = PlanePoly.coordinate(0, n)
        for k in range(0, 5):
            p = col ** k
            assert act(fd, p).is_zero(), (n, k)
            assert act(ed, p).is_zero(), (n, k)


def test_lowering_cascade_constants():
    n = 2
    f1 = AlgElt.f(1)

    def c_of(k):
        return (Scalar.v_power(-2 * k) - ONE) / (QBAR - ONE)

    for k in (1, 2, 3, 4):
        got = act(f1, x(0) ** k)
        want = (x(-1) * x(0) ** (k - 1)).scaled(-c_of(k))
        assert got == want, k


def test_weight_zero_monomial_enumeration():
    monos = monomials_of_degree(2, 2, weight=(0, 0))
    # x_0^2, x_{-1}x_1, x_{-2}x_2
    assert len(monos) == 3
    assert (0, 0, 2, 0, 0) in monos


def test_invariant_subspace_dimensions_and_candidates():
    sl = invariant_subspace(2, 2)
    assert sl.dimension == 2
    assert sl.candidates_inside and sl.candidates_independent
    assert invariant_subspace(2, 1).dimension == 1
    assert invariant_subspace(2, 0).dimension == 1


@pytest.mark.parametrize("n,max_m", [(2, 6), (3, 4)])
def test_invariant_dimension_matches_the_point_kernels(n, max_m):
    """Oracle: at a point that is no zero of a minor the kernel of the
    stacked operator matrices is exactly as large as over Q(i)(v); at
    v0 = 2 and 3 it is."""
    ops = isotropy_operators(n)
    for m in range(max_m + 1):
        basis = monomials_of_degree(n, m, weight=(0,) * n)
        dim = invariant_subspace(n, m).dimension
        for v0 in (2, 3):
            mode = SpecMode.numeric(v0)
            rows = [row for op in ops for row in operator_matrix(op, basis, n, mode)]
            assert len(nullspace_qqi(rows, len(basis))) == dim, (n, m, v0)


def test_invariant_dimension_is_exact_where_the_points_are_blind(monkeypatch):
    """An operator that multiplies the weight-zero slice by (q - 4)(q - 9)
    has no kernel over Q(i)(v), although it vanishes at v0 = 2 and 3."""
    c = (Q - Scalar.integer(4)) * (Q - Scalar.integer(9))
    monkeypatch.setattr(plane, "isotropy_operators", lambda n: [AlgElt.K(alpha_vec(1, n)).scaled(c)])
    assert [invariant_subspace(2, m).dimension for m in range(4)] == [0, 0, 0, 0]


def test_candidates_are_joint_kernel_members_symbolically():
    n = 2
    ops = isotropy_operators(n)
    for m in range(0, 4):
        for c in candidate_invariants(n, m):
            for op in ops:
                assert act(op, c).is_zero(), (m, op)
