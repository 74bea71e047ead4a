"""Free associative algebra on the quantum-group generators.

Words are tuples of generator tokens ('e', i), ('f', i) and ('K', mu) with
mu an integer vector in the orthogonal weight basis.  No relations are
imposed here: equality statements about the enveloping algebra are decided
downstream by pairing oracles, never by rewriting.  This module supplies
q-commutators, the composite root vectors attached to the short weight
coordinates and the factor lists of their products, and the Chevalley
anti-involution and the antipode, each a table of letter images for one
loop, ``map_letters``.
"""

from __future__ import annotations

from .scalars import ONE, Q, QBAR, Scalar


def gen_e(i: int):
    return ("e", i)


def gen_f(i: int):
    return ("f", i)


def gen_k(mu) -> tuple:
    return ("K", tuple(mu))


def alpha_vec(i: int, n: int) -> tuple:
    """Coordinates of the i-th simple root in the orthogonal basis."""
    if not 1 <= i <= n:
        raise ValueError("simple-root index out of range")
    if i == 1:
        return (1,) + (0,) * (n - 1)
    out = [0] * n
    out[i - 1] = 1
    out[i - 2] = -1
    return tuple(out)


def cartan_pairing(i: int, j: int) -> int:
    """(alpha_i, alpha_j) with short roots of square length 1."""
    if i == j:
        return 1 if i == 1 else 2
    if abs(i - j) == 1:
        return -1
    return 0


def weight_of(word, n: int) -> tuple:
    """Coordinates of the sum of generator weights; K-letters are weightless."""
    coords = [0] * n
    for g in word:
        kind = g[0]
        if kind == "K":
            continue
        av = alpha_vec(g[1], n)
        s = 1 if kind == "e" else -1
        for idx in range(n):
            coords[idx] += s * av[idx]
    return tuple(coords)


def acc_add(acc, items, c=None):
    """Add c*v (v when c is None) into acc[k] for every (k, v) in items and
    drop each sum that is zero.  A dict filled only through this keeps no
    zero coefficient, so dict equality decides equality of combinations."""
    for k, v in items:
        if c is not None:
            v = c * v
        cur = acc.get(k)
        if cur is not None:
            v = cur + v
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)


class Combination:
    """Finite combination of hashable keys with nonzero Scalar coefficients.

    Subclasses supply the key product (`__mul__`), powers, equality and
    `_empty`, which makes the zero element of the same kind."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for k, c in terms.items():
                if not isinstance(c, Scalar):
                    c = Scalar._promote(c)
                if c:
                    self.terms[tuple(k)] = c

    def _empty(self):
        raise NotImplementedError

    def _with(self, terms):
        out = self._empty()
        out.terms = terms
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def key(self):
        """Canonical hashable form: sorted (key, Scalar key) pairs."""
        return tuple(sorted((k, c.key()) for k, c in self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        acc_add(out, other.terms.items())
        return self._with(out)

    def __neg__(self):
        return self._with({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, c):
        if not isinstance(c, Scalar):
            c = Scalar._promote(c)
        if not c:
            return self._empty()
        return self._with({k: c * cc for k, cc in self.terms.items()})


class AlgElt(Combination):
    """Finite linear combination of free words with scalar coefficients."""

    __slots__ = ()

    def _empty(self):
        return AlgElt()

    @staticmethod
    def unit() -> "AlgElt":
        return AlgElt({(): ONE})

    @staticmethod
    def generator(g) -> "AlgElt":
        return AlgElt({(g,): ONE})

    @staticmethod
    def e(i: int) -> "AlgElt":
        return AlgElt.generator(gen_e(i))

    @staticmethod
    def f(i: int) -> "AlgElt":
        return AlgElt.generator(gen_f(i))

    @staticmethod
    def K(mu) -> "AlgElt":
        return AlgElt.generator(gen_k(mu))

    def __eq__(self, other):
        if not isinstance(other, AlgElt):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scaled(other)
        out: dict = {}
        for w1, c1 in self.terms.items():
            acc_add(out, ((w1 + w2, c2) for w2, c2 in other.terms.items()), c1)
        return self._with(out)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative word-algebra powers are undefined")
        out = AlgElt.unit()
        for _ in range(k):
            out = out * self
        return out

    # -- structure ------------------------------------------------------------

    def weight(self, n: int) -> tuple:
        """Common weight coordinates of all words; raises if the element is
        mixed."""
        wt = None
        for w in self.terms:
            cur = weight_of(w, n)
            if wt is None:
                wt = cur
            elif cur != wt:
                raise ValueError("element is not weight-homogeneous")
        if wt is None:
            raise ValueError("weight of the zero element is undefined")
        return wt

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w, c in self.sorted_terms():
            ws = " ".join(_gen_str(g) for g in w) if w else "1"
            parts.append("%s * %s" % (c, ws))
        return "  +  ".join(parts)

    __repr__ = __str__


def _gen_str(g):
    if g[0] == "K":
        return "K[%s]" % ",".join(str(c) for c in g[1])
    return "%s%d" % (g[0], g[1])


def qbracket(a: AlgElt, b: AlgElt, c: Scalar) -> AlgElt:
    """[a, b]_c = ab - c*ba."""
    return a * b - (b * a).scaled(c)


def root_vector(kind: str, i: int, n: int) -> AlgElt:
    """Composite root vectors as fully expanded word combinations.

    kind is one of "f_eps", "e_eps", "et_eps" (the twisted raising family),
    "e_delta", "f_delta".  The eps-families nest i simple generators; the
    delta vectors live at the doubled short coordinate sum and need n >= 2.
    """
    if kind in ("e_delta", "f_delta"):
        if n < 2:
            raise ValueError("delta root vectors need rank >= 2")
        mk = AlgElt.e if kind == "e_delta" else AlgElt.f
        inner = qbracket(mk(1), mk(2), Q)
        out = qbracket(mk(1), inner, QBAR)
    else:
        if not 1 <= i <= n:
            raise ValueError("root-vector index out of range")
        if kind == "f_eps":
            out = AlgElt.f(1)
            for j in range(2, i + 1):
                out = qbracket(out, AlgElt.f(j), QBAR)
        elif kind == "e_eps":
            out = AlgElt.e(i)
            for j in range(i - 1, 0, -1):
                out = qbracket(out, AlgElt.e(j), Q)
        elif kind == "et_eps":
            out = AlgElt.e(1)
            for j in range(2, i + 1):
                out = qbracket(AlgElt.e(j), out, QBAR)
        else:
            raise ValueError("unknown root-vector kind %r" % kind)
    return out


def root_factors(kind: str, m, n: int) -> tuple:
    """The factors of prod_i root_vector(kind, i, n)^{m_i}, i ascending:
    root_vector(kind, 1, n) m_1 times, ..., root_vector(kind, n, n) m_n
    times; the empty tuple, the unit, when m is zero."""
    out = ()
    for i, mi in enumerate(m, start=1):
        if mi:
            out += (root_vector(kind, i, n),) * mi
    return out


def map_letters(x: AlgElt, image, reverse: bool = False) -> AlgElt:
    """The element whose words are x's words, reversed first if reverse, with
    each letter g replaced by the letters of image(g) -> (letters, sign) and
    the coefficient multiplied by the signs: with reverse, the anti-
    homomorphism of the free algebra taking each letter to its image."""
    terms: dict = {}
    for w, c in x.terms.items():
        word, sign = [], 1
        for g in reversed(w) if reverse else w:
            letters, s = image(g)
            word.extend(letters)
            sign *= s
        acc_add(terms, [(tuple(word), c if sign > 0 else -c)])
    return x._with(terms)


def swap_ef(g):
    """The letter f_i for e_i and e_i for f_i."""
    return ("f" if g[0] == "e" else "e", g[1])


def k_inverse(g):
    """The Cartan letter K_{-mu} for K_mu."""
    return ("K", tuple(-a for a in g[1]))


def omega(x: AlgElt) -> AlgElt:
    """Chevalley anti-involution: reverses words, swaps e <-> f, fixes K."""
    return map_letters(x, lambda g: ((g if g[0] == "K" else swap_ef(g),), 1), reverse=True)


def antipode(x: AlgElt, n: int, inverse: bool = False) -> AlgElt:
    """The antipode (or its inverse) for the fixed comultiplication.

    gamma(e_i) = -e_i K_i^{-1},  gamma(f_i) = -K_i f_i,  gamma(K) = K^{-1};
    the inverse puts the Cartan factor on the other side.
    """

    def image(g):
        if g[0] == "K":
            return (k_inverse(g),), 1
        k = gen_k(alpha_vec(g[1], n))
        letters = (g, k_inverse(k)) if g[0] == "e" else (k, g)
        return letters[::-1] if inverse else letters, -1

    return map_letters(x, image, reverse=True)
