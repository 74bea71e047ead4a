"""Property tests: word-algebra elements and plane polynomials keep no zero
coefficient, and their arithmetic agrees with a plain dict-of-Scalar
reference that sums everything first and drops zeros once at the end.

Keys come from small pools and coefficients from a pool closed under
negation, so sums and products cancel often.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from qsphere.plane import PlanePoly, _mono_word, normalize_word
from qsphere.scalars import ONE, ZERO, Scalar
from qsphere.words import AlgElt

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60, database=None)

_BASE = [ONE, Scalar.integer(2), Scalar.gauss(1, 1), Scalar.v_power(2), ONE / (Scalar.v_power(2) + ONE)]
COEFFS = st.sampled_from(_BASE + [-c for c in _BASE] + [ZERO])
SCALES = st.sampled_from([0, 1, -1, ZERO, Scalar.gauss(0, 1), -Scalar.v_power(-2)])

WORDS = st.lists(st.sampled_from([("e", 1), ("f", 1)]), max_size=2).map(tuple)
# normal-ordered monomials of the rank-1 plane (x_{-1}, x_0, x_1), degree <= 2
MONOS = st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)).filter(
    lambda m: sum(m) <= 2
)


def _ref(pairs):
    """Sum the (key, coefficient) pairs, then drop the zero sums."""
    out = {}
    for k, c in pairs:
        out[k] = out.get(k, ZERO) + c
    return {k: c for k, c in out.items() if not c.is_zero()}


def _word_product(a, b):
    return _ref((w1 + w2, c1 * c2) for w1, c1 in a.items() for w2, c2 in b.items())


def _plane_product(a, b):
    return _ref(
        (m, c1 * c2 * c)
        for m1, c1 in a.items()
        for m2, c2 in b.items()
        for m, c in normalize_word(_mono_word(m1, 1) + _mono_word(m2, 1), 1).items()
    )


def _check(x, y, s, make, product):
    a, b = _ref(x.items()), _ref(y.items())
    ex, ey = make(x), make(y)
    results = {
        "construct": (ex, a),
        "add": (ex + ey, _ref(list(a.items()) + list(b.items()))),
        "sub": (ex - ey, _ref(list(a.items()) + [(k, -c) for k, c in b.items()])),
        "neg": (-ex, _ref((k, -c) for k, c in a.items())),
        "cancel": (ex - ex, {}),
        "scaled": (ex.scaled(s), _ref((k, Scalar._promote(s) * c) for k, c in a.items())),
        "mul": (ex * ey, product(a, b)),
    }
    for name, (got, want) in results.items():
        assert type(got) is type(ex), name
        assert got.terms == want, name
        assert all(not c.is_zero() for c in got.terms.values()), name
        assert got.is_zero() == (not want) == (not got), name


@PROPERTY
@given(
    st.dictionaries(WORDS, COEFFS, max_size=5),
    st.dictionaries(WORDS, COEFFS, max_size=5),
    SCALES,
)
def test_word_algebra_arithmetic_matches_the_reference(x, y, s):
    _check(x, y, s, AlgElt, _word_product)


@PROPERTY
@given(
    st.dictionaries(MONOS, COEFFS, max_size=5),
    st.dictionaries(MONOS, COEFFS, max_size=5),
    SCALES,
)
def test_plane_arithmetic_matches_the_reference(x, y, s):
    _check(x, y, s, lambda d: PlanePoly(1, d), _plane_product)
