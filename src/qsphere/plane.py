"""The quantum Euclidean plane on 2n+1 coordinates as a module algebra.

Coordinates x_{-n}, ..., x_0, ..., x_n carry the weights +-eps_i (x_0 is
weightless).  Products are normal-ordered with ascending indices; the
exchange rules couple each mirror pair (x_j, x_{-j}) to the pairs below it,
so normal forms of mirror swaps cascade down to x_0^2.  The quantum group
acts by the displayed generator rules extended through the comultiplication,
which makes the plane a module algebra; the star product twists the plain
multiplication by the inverse-form tensor.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .scalars import ONE, Q, QBAR, QQI_ZERO, ZERO, ProductSums, Scalar, SpecMode, pmul, scalar_to_qqi
from .words import AlgElt, Combination, acc_add, alpha_vec, k_inverse, map_letters, swap_ef

_QM1 = Q - ONE  # q - 1


def word_weight(word, n):
    w = [0] * n
    for k in word:
        if k > 0:
            w[k - 1] += 1
        elif k < 0:
            w[-k - 1] -= 1
    return tuple(w)


_NF_CACHE: dict = {}


def normalize_word(word, n) -> dict:
    """Normal form of a coordinate word as {exponent tuple: Scalar}."""
    word = tuple(word)
    key = (n, word)
    out = _NF_CACHE.get(key)
    if out is not None:
        return out
    pos = -1
    for t in range(len(word) - 1):
        if word[t] > word[t + 1]:
            pos = t
            break
    if pos < 0:
        out = {_word_mono(word, n): ONE}
    else:
        i, j = word[pos], word[pos + 1]
        head, tail = word[:pos], word[pos + 2 :]
        if i != -j:
            out = _scaled(normalize_word(head + (j, i) + tail, n), QBAR)
        else:
            jj = i  # i = jj > 0, j = -jj
            out = dict(normalize_word(head + (-jj, jj) + tail, n))
            if jj == 1:
                acc_add(out, normalize_word(head + (0, 0) + tail, n).items(), _QM1)
            else:
                acc_add(out, normalize_word(head + (jj - 1, -jj + 1) + tail, n).items(), Q)
                acc_add(out, normalize_word(head + (-jj + 1, jj - 1) + tail, n).items(), -QBAR)
    _NF_CACHE[key] = out
    return out


def _word_mono(word, n):
    exps = [0] * (2 * n + 1)
    for k in word:
        exps[k + n] += 1
    return tuple(exps)


def _mono_word(mono, n):
    out = []
    for idx, e in enumerate(mono):
        out.extend([idx - n] * e)
    return tuple(out)


def _scaled(d, c):
    return {m: c * cc for m, cc in d.items()}


def _add_product(sums, c, p, r):
    """Add the terms of c * p * r, normal-ordered, to the ProductSums sums,
    keyed by monomial.  A normal form's coefficients are Laurent
    polynomials over 1, so each term's unreduced denominator is the product
    of those of c and of one coefficient of p and one of r."""
    n = p.n
    for m1, c1 in p.terms.items():
        w1 = _mono_word(m1, n)
        num1 = pmul(c.num, c1.num)
        for m2, c2 in r.terms.items():
            num12 = pmul(num1, c2.num)
            dkey = sums.den_key(c, c1, c2)
            for mono, s in normalize_word(w1 + _mono_word(m2, n), n).items():
                sums.add(mono, dkey, num12, s.num)


class PlanePoly(Combination):
    """Scalar combination of normal-ordered coordinate monomials."""

    __slots__ = ("n",)

    def __init__(self, n: int, terms=None):
        self.n = n
        super().__init__(terms)

    def _empty(self):
        return PlanePoly(self.n)

    @staticmethod
    def unit(n) -> "PlanePoly":
        return PlanePoly(n, {(0,) * (2 * n + 1): ONE})

    @staticmethod
    def coordinate(k, n) -> "PlanePoly":
        return PlanePoly(n, {_word_mono((k,), n): ONE})

    @staticmethod
    def from_word(word, n) -> "PlanePoly":
        return PlanePoly(n)._with(dict(normalize_word(word, n)))

    def __eq__(self, other):
        return isinstance(other, PlanePoly) and self.n == other.n and self.terms == other.terms

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scaled(other)
        sums = ProductSums()
        _add_product(sums, ONE, self, other)
        return self._with(sums.scalars())

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative plane powers are undefined")
        out = PlanePoly.unit(self.n)
        for _ in range(k):
            out = out * self
        return out

    def degree(self):
        return max((sum(m) for m in self.terms), default=0)

    def weight_components(self):
        comps: dict = {}
        for m, c in self.terms.items():
            w = word_weight(_mono_word(m, self.n), self.n)
            comps.setdefault(w, {})[m] = c
        return comps

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            c = self.terms[m]
            factors = []
            for idx, e in enumerate(m):
                if e:
                    factors.append("x[%d]^%d" % (idx - self.n, e))
            mono = " ".join(factors) if factors else "1"
            parts.append("%s * %s" % (c, mono))
        return "  +  ".join(parts)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# The quantum-group action
# ---------------------------------------------------------------------------

def _e_on_coord(i, k):
    """e_{alpha_i} on x_k: sends x_{i-1} to x_i and x_{-i} to -x_{-i+1}."""
    if k == i - 1:
        return (i, 1)
    if k == -i:
        return (-i + 1, -1)
    return None


def _f_on_coord(i, k):
    """f_{alpha_i} on x_k: sends x_i to x_{i-1} and x_{-i+1} to -x_{-i}."""
    if k == i:
        return (i - 1, 1)
    if k == -i + 1:
        return (-i, -1)
    return None


def _shift(p, e, sign):
    """sign * v^e * p for a Laurent polynomial p, by shifting exponents."""
    return {k + e: (sign * re, sign * im) for k, (re, im) in p.items()}


def _gen_terms(g, word, n):
    """The action of one generator on a raw coordinate word, via the
    iterated comultiplication, as (nf, e, sign) triples: the image is the
    sum of sign * v^e * nf over them, nf a normal form."""
    if g[0] == "K":
        return [(normalize_word(word, n), 2 * sum(a * b for a, b in zip(g[1], word_weight(word, n))), 1)]
    i = g[1]
    av = alpha_vec(i, n)
    # e walks right to left with +2(alpha_i, weight of the suffix passed),
    # f left to right with -2(alpha_i, weight of the prefix passed); x_k
    # has the weight eps_k, or -eps_{-k}, and x_0 none
    if g[0] == "e":
        order, on_coord, sign = range(len(word) - 1, -1, -1), _e_on_coord, 1
    else:
        order, on_coord, sign = range(len(word)), _f_on_coord, -1
    out = []
    passed = 0
    for t in order:
        k = word[t]
        hit = on_coord(i, k)
        if hit is not None:
            nk, sgn = hit
            out.append((normalize_word(word[:t] + (nk,) + word[t + 1 :], n), passed, sgn))
        if k:
            passed += 2 * sign * (av[k - 1] if k > 0 else -av[-k - 1])
    return out


def _act_words(g, terms, n) -> dict:
    """The action of one generator on the sum of c * word over the (raw
    coordinate word, c) terms, via the iterated comultiplication, as
    {monomial: coefficient}, summed per monomial and denominator by
    ``ProductSums``: a normal form's coefficients are Laurent polynomials
    over 1, so an image term is c.num * sign * v^e times one, over c.den."""
    sums = ProductSums()
    for word, c in terms:
        dkey = sums.den_key(c)
        for nf, e, sign in _gen_terms(g, word, n):
            num = _shift(c.num, e, sign)
            for mono, s in nf.items():
                sums.add(mono, dkey, num, s.num)
    return sums.scalars()


def act_gen_on_word(g, word, n) -> dict:
    """Action of one generator on a raw coordinate word, as normal-form
    terms {monomial: coefficient}."""
    return _act_words(g, [(tuple(word), ONE)], n)


def act_generator(g, p: PlanePoly) -> PlanePoly:
    """Action of a single algebra generator through the comultiplication."""
    return p._with(_act_words(g, ((_mono_word(m, p.n), c) for m, c in p.terms.items()), p.n))


def act(x: AlgElt, p: PlanePoly) -> PlanePoly:
    """Action of a word-algebra element: words compose right to left."""
    return act_all([x], p)[0]


def act_all(elts, p: PlanePoly) -> list:
    """Images of p under each element of elts, in order.

    Each word is walked right to left, and the image of every word suffix
    is computed once per call and shared by all words that end in it (the
    expanded root-vector words inside one F part, and across F parts, share
    long suffixes).  A suffix is known by the index of its image in a list,
    and extended by one letter through a dict keyed on (letter, index), so
    no word is sliced or hashed whole.  The returned polynomials are fresh
    objects.
    """
    images = [p]  # the image of the empty suffix first
    step: dict = {}  # (letter, index of a suffix's image) -> index of letter + suffix's
    out = []
    for x in elts:
        sums = ProductSums()
        for w, c in x.terms.items():
            at = 0
            for g in reversed(w):
                if not images[at].terms:
                    break  # a zero suffix image: the word's image is zero
                key = g, at
                nxt = step.get(key)
                if nxt is None:
                    nxt = step[key] = len(images)
                    images.append(act_generator(g, images[at]))
                at = nxt
            for mono, s in images[at].terms.items():
                sums.add(mono, sums.den_key(c, s), c.num, s.num)
        out.append(p._with(sums.scalars()))
    return out


def casimir(n: int) -> PlanePoly:
    """The quadratic invariant (1/(1+q)) x_0^2 + sum_i q^{i-1} x_i x_{-i}."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    inv = ONE / (ONE + Q)
    out = PlanePoly.from_word((0, 0), n).scaled(inv)
    for i in range(1, n + 1):
        out = out + PlanePoly.from_word((i, -i), n).scaled(Scalar.v_power(2 * (i - 1)))
    return out


def chev_twist(x: AlgElt) -> AlgElt:
    """Algebra automorphism e -> -f, f -> -e, K -> K^{-1} (the plane-side
    compatibility twist; involutive)."""
    return map_letters(x, lambda g: ((k_inverse(g),), 1) if g[0] == "K" else ((swap_ef(g),), -1))


def iota(p: PlanePoly) -> PlanePoly:
    """Anti-algebra involution x_k -> x_{-k}."""
    n = p.n
    acc: dict = {}
    for m, c in p.terms.items():
        word = _mono_word(m, n)
        rword = tuple(-k for k in reversed(word))
        acc_add(acc, normalize_word(rword, n).items(), c)
    return p._with(acc)


# ---------------------------------------------------------------------------
# Star product
# ---------------------------------------------------------------------------

def star(p: PlanePoly, r: PlanePoly, F) -> PlanePoly:
    """Twisted multiplication: contract the inverse-form tensor through the
    action and multiply the halves, sum_m c_m (e_m . p) (f_m . r).

    The contraction is shared: the images of an operand under all raising
    parts (left side) or all lowering parts (right side) come from one
    suffix-shared walk (`act_all`) and are memoized on F, keyed by the
    operand's canonical key, so every later star with that operand on that
    side reuses them.  The product itself is memoized on F too, keyed on
    both operands' keys, and returned as a fresh polynomial.  The memos
    live exactly as long as F.

    Exactness of the truncation needs F.D >= 2*min(deg p, deg r): a raising
    (or lowering) monomial of total degree beyond twice the polynomial degree
    annihilates it, by the weight-height bound on a fixed-degree component.
    """
    need = 2 * min(p.degree(), r.degree())
    if F.D < need:
        raise ValueError(
            "tensor truncation %d is insufficient; need at least %d" % (F.D, need)
        )
    pk, rk = p.key(), r.key()
    key = pk, rk
    terms = F.products.get(key)
    if terms is None:
        terms = F.products[key] = _contraction(F, _contracted(F, 2, p, pk), _contracted(F, 3, r, rk))
    return p._with(dict(terms))


def _contracted(F, side, p, key):
    """Images of p, whose key is key, under the F parts at tuple position
    side of each entry (2: raising, 3: lowering), memoized on F; callers
    must not mutate them."""
    imgs = F.images.get((side, key))
    if imgs is None:
        imgs = F.images[side, key] = act_all([entry[side] for entry in F.entries], p)
    return imgs


def _contraction(F, lefts, rights):
    """sum_m c_m left_m right_m as {monomial: Scalar}: ``ProductSums`` sums
    the numerators of one output monomial over one unreduced denominator
    and reduces each sum once."""
    sums = ProductSums()
    for (_m, c, _e, _f), left, right in zip(F.entries, lefts, rights):
        if left and right:
            _add_product(sums, c, left, right)
    return sums.scalars()


# ---------------------------------------------------------------------------
# Exact linear algebra over the plane
# ---------------------------------------------------------------------------

def monomials_of_degree(n, deg, weight=None):
    """All exponent tuples of total degree deg (optionally of fixed weight)."""
    nvars = 2 * n + 1
    out = [tuple(c.count(x) for x in range(nvars)) for c in combinations_with_replacement(range(nvars), deg)]
    if weight is not None:
        out = [m for m in out if word_weight(_mono_word(m, n), n) == tuple(weight)]
    return sorted(out)


def nullspace_qqi(rows, ncols):
    """Kernel basis of a matrix over the Gaussian rationals (row echelon)."""
    from .scalars import QQI_ONE, QQI_ZERO, qqi_inv, qqi_mul, qqi_sub

    m = [list(r) for r in rows]
    pivots = []
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, len(m)):
            if m[r][col] != QQI_ZERO:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = qqi_inv(m[row][col])
        m[row] = [qqi_mul(inv, x) for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != QQI_ZERO:
                f = m[r][col]
                m[r] = [qqi_sub(a, qqi_mul(f, b)) for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [QQI_ZERO] * ncols
        vec[fc] = QQI_ONE
        for r, pc in enumerate(pivots):
            coeff = m[r][fc]
            if coeff != QQI_ZERO:
                vec[pc] = qqi_sub(QQI_ZERO, coeff)
        basis.append(vec)
    return basis


def isotropy_operators(n) -> list:
    """The operator families cutting out the deformed-isotropy invariants:
    raising/lowering for the diagonal block plus the two doubled-root vectors."""
    from .words import root_vector

    ops = []
    for i in range(2, n + 1):
        ops.append(AlgElt.e(i))
        ops.append(AlgElt.f(i))
    ops.append(root_vector("e_delta", 1, n))
    ops.append(root_vector("f_delta", 1, n))
    return ops


class InvariantSlice:
    """Joint-kernel data for the degree-m invariants."""

    __slots__ = ("n", "m", "dimension", "candidates_inside", "candidates_independent")

    def __init__(self, n, m, dimension, inside, independent):
        self.n = n
        self.m = m
        self.dimension = dimension
        self.candidates_inside = inside
        self.candidates_independent = independent


def candidate_invariants(n, m):
    """The spanning candidates C^l x_0^{m-2l}, l = 0..floor(m/2), symbolic."""
    C = casimir(n)
    x0 = PlanePoly.coordinate(0, n)
    out = []
    for l in range(m // 2 + 1):
        out.append((C ** l) * (x0 ** (m - 2 * l)))
    return out


def invariant_subspace(n, m):
    """Dimension of the weight-zero degree-m joint kernel, and the standing
    of the candidates in it, all exact over Q(i)(v).

    The symbolic matrices of every cutting operator on the basis monomials
    are stacked and ranked by ``rank_gauss``; the dimension is the nullity.
    The candidates are checked to lie inside by applying every cutting
    operator symbolically, and to be independent by the rank of their
    coordinates.
    """
    from .verma import rank_gauss

    basis = monomials_of_degree(n, m, weight=(0,) * n)
    ops = isotropy_operators(n)
    cands = candidate_invariants(n, m)
    rows = [row for op in ops for row in _operator_rows(op, basis, n)]
    coords = [[c.terms.get(mono, ZERO) for mono in basis] for c in cands]
    independent = rank_gauss(coords) == len(cands)
    inside = all(act(op, c).is_zero() for c in cands for op in ops)
    return InvariantSlice(n, m, len(basis) - rank_gauss(rows), inside, independent)


def _operator_rows(op: AlgElt, basis_monos, n):
    """Symbolic matrix of an algebra element on a monomial list; rows are
    indexed by the target monomials that occur in some image."""
    cols = [act(op, PlanePoly(n, {m: ONE})).terms for m in basis_monos]
    targets = dict.fromkeys(tm for col in cols for tm in col)
    return [[col.get(tm, ZERO) for col in cols] for tm in targets]


def operator_matrix(op: AlgElt, basis_monos, n, mode: SpecMode):
    """The symbolic matrix of ``_operator_rows`` at a numeric point, each
    nonzero entry converted once."""
    return [
        [scalar_to_qqi(c, mode) if c else QQI_ZERO for c in row]
        for row in _operator_rows(op, basis_monos, n)
    ]
