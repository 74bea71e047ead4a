"""Kashiwara's form on the lowering half, the zero test of U_q^-.

The radical of Kashiwara's form on the free algebra in the f_i is the ideal
of the quantum Serre relations, so on each weight its Gram over all
lowering words has the rank of the weight space of U_q^-: the Kostant
partition function of B_n, counted here from the positive roots alone.
The Serre elements times every tail must vanish under the form, and, as
the module at the specialized weight is a quotient of U_q^-, also at both
branches of that weight.  Two elements outside the ideal must not vanish
under the form; one of them does vanish in that module, whose radical is
larger than the ideal, so the specialized form cannot be the Serre test.
"""

from functools import lru_cache
from itertools import product

import pytest

from qsphere.scalars import ONE, Scalar, SpecMode
from qsphere.suites import _all_words, serre_elements
from qsphere.verma import (
    EvalContext,
    fword_elt,
    fwords_of_weight,
    is_zero_in_U,
    rank_gauss,
    shapovalov,
    weight_alpha_counts,
)
from qsphere.words import AlgElt, alpha_vec, qbracket

Q = Scalar.v_power(2)


def positive_roots(n):
    """The n^2 positive roots of B_n in orthogonal coordinates: e_i and
    e_i +- e_j, each with the sign that puts it in the simple-root cone."""
    units = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    cands = set(units)
    for i in range(n):
        for j in range(i + 1, n):
            for s in (1, -1):
                cands.add(tuple(a + s * b for a, b in zip(units[i], units[j])))
    roots = []
    for r in cands:
        for c in (r, tuple(-x for x in r)):
            if weight_alpha_counts(tuple(-x for x in c), n) is not None:
                roots.append(c)
    assert len(roots) == n * n
    return sorted(roots)


def kostant(beta, n):
    """The number of ways to write beta as a sum of positive roots."""
    roots = positive_roots(n)

    @lru_cache(maxsize=None)
    def count(b, k):
        if not any(b):
            return 1
        if k == len(roots):
            return 0
        total = 0
        while weight_alpha_counts(tuple(-x for x in b), n) is not None:
            total += count(b, k + 1)
            b = tuple(x - r for x, r in zip(b, roots[k]))
        return total

    return count(tuple(beta), 0)


def lowering_weights(n, max_height):
    """The weights -sum a_j alpha_j with 1 <= sum a_j <= max_height."""
    out = []
    for a in product(range(max_height + 1), repeat=n):
        if 1 <= sum(a) <= max_height:
            out.append(tuple(-sum(aj * alpha_vec(j, n)[c] for j, aj in enumerate(a, start=1)) for c in range(n)))
    return out


# heights up to 5 at rank 2 and up to 4 at rank 3: 20 + 34 weights
KOSTANT_CASES = [(2, mu) for mu in lowering_weights(2, 5)] + [(3, mu) for mu in lowering_weights(3, 4)]


def test_the_kostant_cases_are_54_weights():
    assert len(KOSTANT_CASES) == 54
    # 2 alpha_1 + alpha_2 = e_1 + e_2 = e_1 + e_2 (two roots) = 2 e_1 + (e_2 - e_1)
    assert kostant((1, 1), 2) == 3
    assert kostant((1, 0, 0), 3) == 1


@pytest.mark.parametrize("n,mu", KOSTANT_CASES, ids=["n%d%s" % (n, list(mu)) for n, mu in KOSTANT_CASES])
def test_gram_rank_is_the_kostant_partition_function(n, mu):
    """The exact rank over Q(i)(v) of Kashiwara's form on all lowering
    words of the weight."""
    ctx = EvalContext(n, SpecMode.kashiwara())
    elts = [fword_elt(w) for w in fwords_of_weight(mu, n)]
    rows = [[shapovalov(x, y, ctx) for y in elts] for x in elts]
    assert rank_gauss(rows) == kostant(tuple(-c for c in mu), n)


def _zero_at_the_weight(x, ctx):
    """Whether x pairs to zero with every lowering word of its weight under
    the form of ctx."""
    n = ctx.n
    return all(shapovalov(fword_elt(w), x, ctx).is_zero() for w in fwords_of_weight(x.weight(n), n))


def serre_products(n, weight_bound):
    """Each Serre element times each lowering tail, up to weight_bound
    letters in all, as serre-radical checks them."""
    out = []
    for label, s in serre_elements(n):
        height = len(next(iter(s.terms)))
        for tlen in range(weight_bound - height + 1):
            for t in _all_words(n, tlen):
                out.append(("%s,tail=%s" % (label, list(t)), s * fword_elt(t) if t else s))
    return out


@pytest.mark.parametrize("n,weight_bound,count", [(2, 5, 10), (3, 4, 26)])
def test_serre_verdicts_agree_between_the_two_forms(n, weight_bound, count):
    kashiwara = EvalContext(n, SpecMode.kashiwara())
    specialized = [EvalContext(n, SpecMode.specialized(s)) for s in (1, -1)]
    cases = serre_products(n, weight_bound)
    assert len(cases) == count
    for label, x in cases:
        assert is_zero_in_U(x, kashiwara), label
        for ctx in specialized:
            assert _zero_at_the_weight(x, ctx), (label, ctx.mode)


@pytest.mark.parametrize("n", [2, 3])
def test_elements_outside_the_serre_ideal_are_nonzero_under_kashiwaras_form(n):
    """[f1, f2] is nonzero under both forms.  The Serre element of f2, f1
    with q in place of its outer q^{-1} is nonzero under Kashiwara's form,
    but vanishes in the module at the specialized weight."""
    kashiwara = EvalContext(n, SpecMode.kashiwara())
    specialized = [EvalContext(n, SpecMode.specialized(s)) for s in (1, -1)]
    f1, f2 = AlgElt.f(1), AlgElt.f(2)
    comm = qbracket(f1, f2, ONE)
    wrong_q = qbracket(f2, qbracket(f2, f1, Q), Q)
    assert not is_zero_in_U(comm, kashiwara)
    assert not is_zero_in_U(wrong_q, kashiwara)
    for ctx in specialized:
        assert not _zero_at_the_weight(comm, ctx), ctx.mode
        assert _zero_at_the_weight(wrong_q, ctx), ctx.mode
