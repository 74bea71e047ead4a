"""Property tests: the vacuum engine against the independent reference
rewriter, in every mode, at ranks 2 and 3.

The reference computes the generic value once; each mode's engine result
must equal its image under the mode's specialization.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsphere.scalars import ONE, Scalar, SpecMode, scalar_from_qqi, specialize
from qsphere.verma import EvalContext, fword_elt, pair_lowering, pair_words_qqi, vacuum_eval
from qsphere.words import AlgElt, gen_k, omega

from test_verma import reference_vacuum

MODES = [
    SpecMode.generic(),
    SpecMode.specialized(1),
    SpecMode.specialized(-1),
    SpecMode.numeric(2, 1),
    SpecMode.numeric((3, 1), -1),
]

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60, database=None)


def letters(n):
    return st.one_of(
        st.tuples(st.sampled_from("ef"), st.integers(1, n)),
        st.lists(st.integers(-1, 1), min_size=n, max_size=n).map(gen_k),
    )


def free_words(n, max_len=6):
    return st.lists(letters(n), max_size=max_len).map(tuple)


def lowering_words(n, max_len=4):
    return st.lists(st.integers(1, n), max_size=max_len).map(tuple)


# small coefficients, including one with a nontrivial denominator so that
# the engine's grouping of right-hand terms by denominator is exercised
COEFFS = st.sampled_from(
    [ONE, Scalar.integer(-2), Scalar.gauss(1, 1), Scalar.v_power(-1), ONE / (Scalar.v_power(2) + ONE)]
)


def lowering_elements(n):
    return st.lists(st.tuples(lowering_words(n, 3), COEFFS), min_size=1, max_size=3).map(
        lambda terms: sum((fword_elt(w).scaled(c) for w, c in terms), AlgElt())
    )


@pytest.mark.parametrize("n", [2, 3])
def test_vacuum_eval_is_the_specialized_generic_value(n):
    """The left coefficient may carry an L-symbol, which each mode must
    specialize along with the engine's value."""
    generic = EvalContext(n, SpecMode.generic())
    contexts = [EvalContext(n, mode) for mode in MODES]

    @PROPERTY
    @given(free_words(n), st.one_of(COEFFS, st.just(Scalar.L_power(1, 1))))
    def check(word, c):
        want = c * reference_vacuum(word, generic)
        x = AlgElt({word: c})
        for ctx in contexts:
            assert vacuum_eval(x, ctx) == specialize(want, ctx.mode), (word, c, ctx.mode)

    check()


@pytest.mark.parametrize("n", [2, 3])
def test_pair_lowering_is_vacuum_of_the_product(n):
    contexts = [EvalContext(n, mode) for mode in MODES]

    @PROPERTY
    @given(lowering_elements(n), lowering_elements(n))
    def check(x, y):
        for ctx in contexts:
            assert pair_lowering(x, y, ctx) == vacuum_eval(omega(x) * y, ctx), ctx.mode

    check()


@pytest.mark.parametrize("n", [2, 3])
def test_memoized_numeric_pairing_matches_vacuum_eval(n):
    contexts = [EvalContext(n, mode) for mode in MODES if mode.kind == "numeric"]

    @PROPERTY
    @given(lowering_words(n), lowering_words(n))
    def check(u, w):
        direct = omega(fword_elt(u)) * fword_elt(w)
        for ctx in contexts:
            got = scalar_from_qqi(pair_words_qqi(tuple(reversed(u)), w, ctx))
            assert got == vacuum_eval(direct, ctx), ctx.mode

    check()
