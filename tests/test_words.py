import random

import pytest

from qsphere.scalars import ONE, Scalar
from qsphere.words import (
    AlgElt,
    alpha_vec,
    antipode,
    cartan_pairing,
    gen_e,
    gen_f,
    gen_k,
    map_letters,
    omega,
    qbracket,
    root_factors,
    root_vector,
    weight_of,
)

from oracles import knormal

Q = Scalar.v_power(2)
QBAR = Scalar.v_power(-2)


def test_root_data():
    assert alpha_vec(1, 3) == (1, 0, 0)
    assert alpha_vec(2, 3) == (-1, 1, 0)
    assert cartan_pairing(1, 1) == 1
    assert cartan_pairing(2, 2) == 2
    assert cartan_pairing(1, 2) == -1
    assert cartan_pairing(1, 3) == 0


def test_qbracket_self_commutator():
    x = AlgElt.f(1)
    assert qbracket(x, x, ONE).is_zero()


def test_qbracket_produces_composite_lowering_vector():
    lhs = qbracket(AlgElt.f(1), AlgElt.f(2), QBAR)
    assert lhs == root_vector("f_eps", 2, 2)


def test_doubled_root_vector_structure():
    ed = root_vector("e_delta", 1, 2)
    inner = qbracket(AlgElt.e(1), AlgElt.e(2), Q)
    assert ed == qbracket(AlgElt.e(1), inner, QBAR)
    # four products collapse onto three distinct words
    assert len(ed.terms) == 3


def test_root_vector_word_counts():
    for i in range(1, 5):
        assert len(root_vector("f_eps", i, 4).terms) == 2 ** (i - 1)
        assert len(root_vector("et_eps", i, 4).terms) == 2 ** (i - 1)


def test_root_vector_examples():
    assert root_vector("f_eps", 1, 3) == AlgElt.f(1)
    e1, e2 = AlgElt.e(1), AlgElt.e(2)
    assert root_vector("et_eps", 2, 3) == e2 * e1 - (e1 * e2).scaled(QBAR)
    f1, f2 = AlgElt.f(1), AlgElt.f(2)
    assert root_vector("f_eps", 2, 3) == f1 * f2 - (f2 * f1).scaled(QBAR)
    with pytest.raises(ValueError):
        root_vector("f_delta", 1, 1)
    with pytest.raises(ValueError):
        root_vector("f_eps", 5, 4)


def test_omega_swaps_lowering_to_twisted_raising():
    for n in (2, 3, 4):
        for i in range(1, n + 1):
            assert omega(root_vector("f_eps", i, n)) == root_vector("et_eps", i, n)


def test_omega_is_an_involution():
    rng = random.Random(9)
    for _ in range(30):
        terms = {}
        for _t in range(rng.randint(1, 3)):
            w = []
            for _l in range(rng.randint(0, 4)):
                kind = rng.choice(("e", "f", "K"))
                if kind == "K":
                    w.append(gen_k((rng.randint(-1, 1), rng.randint(-1, 1))))
                else:
                    w.append((kind, rng.randint(1, 2)))
            terms[tuple(w)] = Scalar.v_power(rng.randint(-2, 2))
        x = AlgElt(terms)
        assert omega(omega(x)) == x


def test_antipode_on_generators():
    n = 2
    a1 = alpha_vec(1, n)
    assert antipode(AlgElt.e(1), n, inverse=True) == AlgElt(
        {(gen_k(tuple(-c for c in a1)), gen_e(1)): -ONE}
    )
    assert antipode(AlgElt.e(1), n) == AlgElt({(gen_e(1), gen_k(tuple(-c for c in a1))): -ONE})
    assert antipode(AlgElt.f(1), n) == AlgElt({(gen_k(a1), gen_f(1)): -ONE})
    assert antipode(AlgElt.K((1, -1)), n) == AlgElt.K((-1, 1))


def test_antipode_inverse_composition():
    n = 3
    rng = random.Random(4)
    for _ in range(20):
        w = []
        for _l in range(rng.randint(0, 4)):
            kind = rng.choice(("e", "f", "K"))
            if kind == "K":
                w.append(gen_k(tuple(rng.randint(-1, 1) for _ in range(n))))
            else:
                w.append((kind, rng.randint(1, n)))
        x = AlgElt({tuple(w): Scalar.v_power(rng.randint(-2, 2))})
        assert knormal(antipode(antipode(x, n), n, inverse=True), n) == knormal(x, n)
        assert knormal(antipode(antipode(x, n, inverse=True), n), n) == knormal(x, n)


def test_antipode_is_anti_homomorphism():
    n = 2
    a = root_vector("f_eps", 2, n)
    b = root_vector("e_delta", 1, n)
    assert antipode(a * b, n) == antipode(b, n) * antipode(a, n)


def test_antipode_on_composite_raising_vector():
    # gamma(e_{eps_i}) = -q^{2(i-1)} et_{eps_i} K_{eps_i}^{-1}.  For i <= 2 the
    # two sides agree freely after Cartan normalization; for larger i they
    # differ by distant-root commutators, so the difference is sent through
    # the zero test of U_q^- by Kashiwara's form instead.
    from qsphere.scalars import SpecMode
    from qsphere.verma import EvalContext, is_zero_in_U

    for n in (2, 3):
        for i in range(1, n + 1):
            lhs = knormal(antipode(root_vector("e_eps", i, n), n), n)
            eps_i = tuple(-1 if j == i - 1 else 0 for j in range(n))
            k_inv = AlgElt.K(eps_i)
            rhs = knormal(
                (root_vector("et_eps", i, n) * k_inv).scaled(-Scalar.v_power(4 * (i - 1))),
                n,
            )
            if i <= 2:
                assert lhs == rhs, (n, i)
            else:
                diff = lhs - rhs
                stripped = AlgElt({w[:-1]: c for w, c in diff.terms.items()})
                assert all(w and w[-1] == ("K", eps_i) for w in diff.terms)
                ctx = EvalContext(n, SpecMode.kashiwara())
                assert is_zero_in_U(omega(stripped), ctx), (n, i)


def test_root_factors_repeat_each_root_vector_by_its_index():
    n = 3
    e2, e3 = root_vector("et_eps", 2, n), root_vector("et_eps", 3, n)
    assert root_factors("et_eps", (0, 2, 1), n) == (e2, e2, e3)
    assert root_factors("f_eps", (0, 0, 0), n) == ()


def test_map_letters_replaces_letters_and_multiplies_signs():
    e1, f2, k = gen_e(1), gen_f(2), gen_k((1, 0))
    x = AlgElt({(e1, f2): Q, (k,): ONE})

    def double(g):
        return (g, g), -1

    assert map_letters(x, double) == AlgElt({(e1, e1, f2, f2): Q, (k, k): -ONE})
    assert map_letters(x, double, reverse=True) == AlgElt({(f2, f2, e1, e1): Q, (k, k): -ONE})
    # words with one image add up, and a zero sum is dropped
    collapse = map_letters(AlgElt.e(1) + AlgElt.e(2), lambda g: ((e1,), 1 if g == e1 else -1))
    assert collapse.is_zero() and collapse.terms == {}


def test_weights():
    assert weight_of((gen_f(1), gen_f(2)), 2) == (0, -1)
    assert weight_of((gen_e(1), gen_e(1), gen_e(2)), 2) == (1, 1)
    assert weight_of((), 2) == (0, 0)
    assert weight_of((gen_k((3, -1)),), 2) == (0, 0)


def test_weight_additivity():
    rng = random.Random(12)
    n = 3
    for _ in range(25):
        u = tuple(
            (rng.choice(("e", "f")), rng.randint(1, n)) for _ in range(rng.randint(0, 4))
        )
        w = tuple(
            (rng.choice(("e", "f")), rng.randint(1, n)) for _ in range(rng.randint(0, 4))
        )
        wa, wb, wc = weight_of(u + w, n), weight_of(u, n), weight_of(w, n)
        assert wa == tuple(a + b for a, b in zip(wb, wc))


def test_qbracket_bilinearity():
    rng = random.Random(21)
    x = AlgElt.f(1)
    y = AlgElt.f(2)
    z = AlgElt.e(1) * AlgElt.f(2)
    for _ in range(10):
        a = Scalar.v_power(rng.randint(-2, 2))
        c = Scalar.v_power(rng.randint(-1, 1))
        lhs = qbracket(x.scaled(a) + y, z, c)
        rhs = qbracket(x, z, c).scaled(a) + qbracket(y, z, c)
        assert lhs == rhs


def test_exchange_identity_holds_freely():
    # f_{eps_2} f_{eps_1} = q^{-1} f_{eps_1} f_{eps_2} - q^{-1} f_delta
    n = 2
    fe1 = root_vector("f_eps", 1, n)
    fe2 = root_vector("f_eps", 2, n)
    fd = root_vector("f_delta", 1, n)
    assert fe2 * fe1 == (fe1 * fe2).scaled(QBAR) - fd.scaled(QBAR)


def test_cartan_normal_form():
    n = 2
    a1 = alpha_vec(1, n)
    x = AlgElt.K(a1) * AlgElt.e(1)
    # K e_1 = q^{(a1,a1)} e_1 K
    got = knormal(x, n)
    want = (AlgElt.e(1) * AlgElt.K(a1)).scaled(Q)
    assert got == want
    # opposite-sign Cartan letters cancel, leaving the lowering-side factor
    y = AlgElt.K(a1) * AlgElt.f(1) * AlgElt.K(tuple(-c for c in a1))
    got2 = knormal(y, n)
    assert got2 == AlgElt.f(1).scaled(QBAR)


def test_serialization():
    x = root_vector("f_eps", 2, 2) + AlgElt.K((1, 0))
    text = str(x)
    assert "f1 f2" in text and "K[1,0]" in text
