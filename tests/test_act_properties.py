"""Property tests: the suffix-shared plane action and the memoized star
product against letter-by-letter references, at ranks 2 and 3.

The references apply every word one generator at a time through
`act_generator` and contract F entry by entry with no memo, as the action
and the star product were first written.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsphere.ftensor import build_F
from qsphere.plane import PlanePoly, act, act_all, act_generator, star
from qsphere.scalars import ONE, Scalar
from qsphere.words import AlgElt, gen_k

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, database=None)

COEFFS = st.sampled_from(
    [ONE, Scalar.integer(-2), Scalar.gauss(1, 1), Scalar.v_power(-1), ONE / (Scalar.v_power(2) + ONE)]
)


def reference_act(x, p):
    """Each word applied right to left, one generator at a time."""
    acc = PlanePoly(p.n)
    for w, c in x.terms.items():
        cur = p
        for g in reversed(w):
            cur = act_generator(g, cur)
            if cur.is_zero():
                break
        if not cur.is_zero():
            acc = acc + cur.scaled(c)
    return acc


def reference_star(p, r, F):
    """sum_m c_m (e_m . p)(f_m . r), every image recomputed per entry."""
    acc = PlanePoly(p.n)
    for _m, c, ep, fp in F.entries:
        left = reference_act(ep, p)
        if left.is_zero():
            continue
        right = reference_act(fp, r)
        if right.is_zero():
            continue
        acc = acc + (left * right).scaled(c)
    return acc


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
