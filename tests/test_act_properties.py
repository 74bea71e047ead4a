"""Property tests: the suffix-shared plane action and the memoized star
product against letter-by-letter references, at ranks 2 and 3.

The references (``oracles.reference_act`` and ``oracles.reference_star``)
apply every word one generator at a time through `act_generator` and
contract F entry by entry with no memo, in termwise Scalar arithmetic.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_act, reference_star

from qsphere.ftensor import build_F
from qsphere.plane import PlanePoly, act, act_all, star
from qsphere.scalars import ONE, Scalar
from qsphere.words import AlgElt, gen_k

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, database=None)

FRACTION = ONE / (Scalar.v_power(2) + ONE)
COEFFS = st.sampled_from([ONE, Scalar.integer(-2), Scalar.gauss(1, 1), Scalar.v_power(-1), FRACTION])


def letters(n):
    return st.one_of(
        st.tuples(st.sampled_from("ef"), st.integers(1, n)),
        st.lists(st.integers(-1, 1), min_size=n, max_size=n).map(gen_k),
    )


def elements(n, max_len=5):
    """e/f/K words of length <= max_len with mixed coefficients."""
    words = st.lists(letters(n), max_size=max_len).map(tuple)
    return st.lists(st.tuples(words, COEFFS), min_size=1, max_size=4).map(
        lambda terms: sum((AlgElt({w: c}) for w, c in terms), AlgElt())
    )


def plane_polys(n, max_deg=2):
    """Sums of normalized coordinate words of length <= max_deg."""
    words = st.lists(st.integers(-n, n), max_size=max_deg).map(tuple)
    return st.lists(st.tuples(words, COEFFS), min_size=1, max_size=3).map(
        lambda terms: sum((PlanePoly.from_word(w, n).scaled(c) for w, c in terms), PlanePoly(n))
    )


@pytest.mark.parametrize("n", [2, 3])
def test_act_matches_the_letter_by_letter_reference(n):
    @PROPERTY
    @given(elements(n), plane_polys(n))
    def check(x, p):
        want = reference_act(x, p)
        got = act(x, p)
        assert got == want
        got.terms.clear()
        assert act(x, p) == want

    check()


@pytest.mark.parametrize("n", [2, 3])
def test_act_all_shares_suffixes_without_mixing_images(n):
    # elements that end in one common tail, walked together with the heads
    # and the tail alone, so that suffix images are reused across elements
    @PROPERTY
    @given(st.lists(elements(n, 2), min_size=1, max_size=3), elements(n, 3), plane_polys(n))
    def check(heads, tail, p):
        elts = [h * tail for h in heads] + heads + [tail]
        assert act_all(elts, p) == [reference_act(x, p) for x in elts]

    check()


@pytest.mark.parametrize("n", [2, 3])
def test_star_matches_the_entry_by_entry_reference(n):
    F = build_F(n, 4)  # one tensor for all examples: operands recur across them

    @settings(PROPERTY, max_examples=20)
    @given(plane_polys(n), plane_polys(n))
    def check(p, r):
        want = reference_star(p, r, F)
        first = star(p, r, F)
        assert first == want
        first.terms.clear()
        assert star(p, r, F) == want  # served from the images memoized on F
        assert star(r, p, F) == reference_star(r, p, F)

    check()


@pytest.mark.parametrize("n", [2, 3])
def test_star_products_are_memoized_per_operand_pair(n):
    """One memo entry per ordered operand pair: a repeated call returns an
    equal, fresh polynomial, and a caller that mutates it, terms or
    coefficients, leaves the memo as it was; a second right operand with
    the same left one gets its own product."""
    F = build_F(n, 4)
    x = [PlanePoly.coordinate(k, n) for k in (-1, 0, 1)]
    p = x[0] * x[2] + x[1].scaled(FRACTION)
    r1, r2 = x[1] * x[1], x[2] * x[0]
    want1, want2 = reference_star(p, r1, F), reference_star(p, r2, F)
    assert want1 != want2
    first = star(p, r1, F)
    assert first == want1 and len(F.products) == 1
    for m in list(first.terms):
        first.terms[m] = ONE
    first.terms.clear()
    again = star(p, r1, F)
    assert again == want1 and again is not first and len(F.products) == 1
    assert star(p, r2, F) == want2 and len(F.products) == 2
    assert star(r2, p, F) == reference_star(r2, p, F) and len(F.products) == 3
