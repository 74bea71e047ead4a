"""Vacuum evaluation, contravariant forms and the module equality oracle.

The central object is the linear functional that projects a free word in
the generators onto its Cartan part and evaluates at the distinguished
highest weight.  Everything downstream -- the invariant pairing between the
highest- and lowest-weight modules, the contravariant (Shapovalov) form,
Gram matrices, ranks, and the ladder oracle deciding equality inside the
quotient module -- reduces to this functional.

A context evaluates one of two forms with the same engine (``_step``
driven by ``_parities``): the functional at the distinguished weight,
where every L_j is sigma*i*v^{-1}, or Kashiwara's form on the lowering
half, which needs no weight and decides membership in the ideal of the
Serre relations (``is_zero_in_U``).  The two differ only in the constants
a raising letter and a Cartan letter contribute.  The engine is sign-free:
sigma enters only as sigma times ecoef(1, a) and sigma^sum(mu) times a
Cartan letter's kfactor, so it walks with the sigma = +1 constants, every
path carrying a parity that an e_1 and a Cartan letter of odd sum(mu) flip,
and returns the parts (even, odd) of the value even + sigma*odd.  One walk
gives both signs, for any input: every value at the weight is the pair (at
+1, at -1), in the order of ``SIGNS``, and every value of Kashiwara's form
one ``Scalar`` (``EvalContext``).  Values are packed numerators in v:
every coefficient is packed once, by ``_pack_poly``, after its
denominators are cleared.

Every left side the suites pair is a product -- a basis monomial b_m of
root-vector factors, a ladder element f_j b_m, an e-part -- and
<omega(x_1 ... x_k) y> = <omega(x_k) ... omega(x_1) y>.  So the engine
evaluates factor by factor: one walk over a trie of x_1's words takes the
state of y's words to the states at the word ends, which, times each end's
value, add up to one merged state; x_2's walk starts from that state, and
the vacuum entry is read after the last factor.  A product of factors of
a_1, ..., a_k words costs walks over a_1 + ... + a_k words, not over the
a_1 * ... * a_k words of its expansion; a flat left side is one factor.  A
height check first drops the right words, and each factor the left words,
that can reach the vacuum in no way.  A numeric point is no mode: the
irreducibility ranks take integer Gram slices at it, each ranked from a
basis of its row space built from the bases of the weights one lowering
letter up.

Equality in the enveloping algebra and in the module is *never* decided by
rewriting: an element is declared zero exactly when it pairs to zero with a
spanning family, and the spanning property itself is certified bottom-up by
weight height ("the ladder"), each weight by the exact rank of the family's
specialized Gram over Q(i)(v).  The soundness gate for the whole scheme is
the radical property of the defining relations, which has its own suite.
"""

from __future__ import annotations

from functools import reduce
from itertools import groupby, product
from math import comb, factorial, lcm
from operator import itemgetter

from .scalars import (
    G0,
    G1,
    PONE,
    ONE,
    ZERO,
    Scalar,
    SpecMode,
    _gdiv_exact,
    _gmul,
    _gsub,
    _scalar,
    peval_qqi,
    pmul,
    qqi_inv,
    qqi_mul,
    scalar_to_qqi,
    weight_symbol,
)
from .words import AlgElt, alpha_vec, antipode, cartan_pairing, root_factors

_QDIFF = {2: G1, -2: (-1, 0)}  # q - q^{-1} as a Laurent polynomial in v

# A packed value (lo, re, im, l1, w) is the Laurent polynomial in v whose
# coefficient of v^(lo+k) is re_k + i*im_k, where re_k and im_k are the
# signed w-bit slots k of the ints re and im (Kronecker substitution: re is
# the sum of re_k * 2^(w*k)).  l1 bounds the sum of |re_k| + |im_k|, so the
# slots are exact while l1 < 2^(w-1).  A product's bound is the product of
# the bounds and a sum's the sum; an operation whose bound reaches the slot,
# or whose operands differ in width, first repacks both operands with their
# exact norms at one width that holds the new bound.

_PZERO = (0, 0, 0, 0, 32)  # the one packed zero: the engine filters c != zero

SIGNS = (1, -1)  # the branch signs sigma, in the order of a value's pair at the weight


def _slot_width(bound: int) -> int:
    """The smallest multiple of 32 bits whose signed slot holds |c| <= bound."""
    return 32 * (bound.bit_length() // 32 + 1)


def _packed(lo, re, im, l1, w=32):
    """Slots re, im from v^lo of norm l1, packed at width w or wider."""
    w = max(w, _slot_width(l1))
    return lo, sum(c << w * k for k, c in enumerate(re)), sum(c << w * k for k, c in enumerate(im)), l1, w


def _slots(val):
    """(lo, re slots, im slots, exact l1 norm) of a packed value."""
    lo, re, im, _l1, w = val
    n = max(re.bit_length(), im.bit_length()) // w + 1
    half = 1 << (w - 1)
    bias = sum(half << w * k for k in range(n))  # moves each signed slot into [0, 2^w)
    re, im = ([((x + bias) >> w * k) % (2 * half) - half for k in range(n)] for x in (re, im))
    return lo, re, im, sum(map(abs, re)) + sum(map(abs, im))


def _pack_poly(p):
    """The packed value of a Laurent polynomial in v."""
    span = range(min(p, default=0), max(p, default=0) + 1)
    re, im = zip(*(p.get(e, G0) for e in span))
    return _packed(span.start, re, im, sum(map(abs, re)) + sum(map(abs, im)))


def _unpack_poly(val):
    """The Laurent polynomial in v of a packed value."""
    lo, re, im, _l1 = _slots(val)
    return {lo + k: g for k, g in enumerate(zip(re, im)) if g != G0}


def _common_width(p, r, bound):
    """p and r with exact norms l1, l1', at one width that holds bound(l1, l1')."""
    sp, sr = _slots(p), _slots(r)
    w = max(p[4], r[4], _slot_width(bound(sp[3], sr[3])))
    return _packed(*sp, w), _packed(*sr, w)


def _kmul(p, r):
    lo, a, b, l1, w = p
    lo2, c, d, l2, w2 = r
    bound = l1 * l2
    if bound >> (w - 1) or w != w2:
        (lo, a, b, l1, w), (lo2, c, d, l2, _w) = _common_width(p, r, int.__mul__)
        bound = l1 * l2
    return (lo + lo2, a * c - b * d, a * d + b * c, bound, w) if bound else _PZERO


def _kiadd(acc, key, val):
    s = acc.get(key)
    if s is None:
        acc[key] = val
        return
    lo, a, b, l1, w = s
    lo2, c, d, l2, w2 = val
    bound = l1 + l2
    if bound >> (w - 1) or w != w2:
        (lo, a, b, l1, w), (lo2, c, d, l2, _w) = _common_width(s, val, int.__add__)
        bound = l1 + l2
    if lo > lo2:
        lo, lo2, a, b, c, d = lo2, lo, c, d, a, b
    a += c << (lo2 - lo) * w
    b += d << (lo2 - lo) * w
    acc[key] = (lo, a, b, bound, w) if a or b else _PZERO


class OracleError(RuntimeError):
    """An oracle precondition failed; results depending on it are void."""


class EvalContext:
    """Rank, form and cached root data for one suite run.

    The form is the contravariant form at the distinguished weight, or
    Kashiwara's form on the lowering half (``SpecMode.kashiwara``); they
    differ only in the constants ``ecoef`` and ``kfactor``, kept as packed
    numerators in v.  The specialized context is sign-free: its constants
    are those of the branch sigma = +1, and the engine carries sigma as a
    parity per path (``_parities``), so one walk gives the value at both
    signs, which it returns as the pair (at +1, at -1); Kashiwara's form has
    no sign, and its one value, a ``Scalar``, is the sum of the parts.  The
    specialized context keeps one set of integer tables per numeric point,
    at sigma = +1, which serves both signs (``int_levels``, ``rank_at``)."""

    def __init__(self, n: int, mode: SpecMode):
        if n < 1:
            raise ValueError("rank must be at least 1")
        if mode.kind == "numeric":
            raise ValueError("a numeric point is evaluated in a specialized context")
        self.n = n
        self.mode = mode
        self.alpha = [None] + [alpha_vec(i, n) for i in range(1, n + 1)]
        self.cart = [None] + [
            [0] + [cartan_pairing(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)
        ]
        self._ecoef_cache: dict = {}
        self._kfactor_cache: dict = {}
        self._rank_gate: dict = {}
        self._spans: dict = {}
        # v0 -> (point, 1/(q - q^{-1}) there, values, tables, scales, bases), at sigma = +1
        self._int_points: dict = {}

    def ecoef(self, i: int, a: int):
        """Coefficient created when a raising letter consumes a matching
        lowering letter over a tail of pairing value a; None when zero.

        At the distinguished weight it is (v^{2a} L_i/L_{i-1} - v^{-2a}
        L_{i-1}/L_i) over q - q^{-1}, with L_0 = 1 and every other L_j the
        ``weight_symbol``: v^{2a} - v^{-2a} for i > 1, sigma*i*(v^{2a-1} +
        v^{1-2a}) for i = 1, kept at sigma = +1 (an e_1 flips its path's
        parity).  Kashiwara's form keeps the K_i^{-1} half without its
        eigenvalue: -v^{-2a}.  The packed value is the numerator;
        ``_cleared`` folds the denominator into each word's coefficient.
        """
        key = (i, a)
        out = self._ecoef_cache.get(key, False)
        if out is False:
            num = self._ecoef_num(i, a)
            out = self._ecoef_cache[key] = num and _pack_poly(num)
        return out

    def _ecoef_num(self, i: int, a: int):
        """The numerator of ``ecoef(i, a)`` as a Laurent polynomial in v."""
        if self.mode.kind == "kashiwara":
            return {-2 * a: (-1, 0)}
        if i > 1:
            return {2 * a: G1, -2 * a: (-1, 0)} if a else None
        return {2 * a - 1: (0, 1), 1 - 2 * a: (0, 1)}

    def int_levels(self, k: int, v0, sigma: int):
        """Integer ecoef tables at the point v0 on the branch sigma for
        levels 0..k, and the scale P_k (specialized mode).  A step on words
        of length l only meets ecoef(i, a) with |a| <= c_max*(l - 1), c_max
        the largest |Cartan pairing|, as a gains one Cartan entry per tail
        letter.  Level l maps i to {a: e(i, a) * s_l} over the nonzero
        numerators, where e(i, a) is the ecoef numerator evaluated at v0 and
        divided by q - q^{-1} there, and s_l is the lcm of their
        denominators; a pairing of length-k words built from these Gaussian
        integers is the true value times P_k = s_1 ... s_k.

        The point keeps one evaluation, at sigma = +1 (``_int_point``).  At
        sigma = -1 only letter 1 changes: ecoef(1, a) is sigma times the
        numerator kept, so its entries are negated, and negation leaves
        each s_l, hence P_k, unchanged."""
        tables, scales, _bases = self._int_point(v0, k)
        if sigma == -1:
            tables = [None] + [
                [None, {a: (-re, -im) for a, (re, im) in level[1].items()}] + level[2:] for level in tables[1:]
            ]
        return tables, scales[k]

    def _int_point(self, v0, k):
        """(tables, scales, bases memo) of the point v0 at sigma = +1, with
        levels 0..k at least; v0 is checked by ``SpecMode.numeric`` once per
        point, and each ecoef numerator is evaluated there once."""
        point = self._int_points.get(v0)
        if point is None:
            if self.mode.kind != "specialized":
                raise ValueError("integer tables need the specialized weight")
            pt = SpecMode.numeric(v0).v0
            inv_qdiff = qqi_inv(peval_qqi(_QDIFF, pt))  # 1/(q - q^{-1}) at v0
            point = self._int_points[v0] = (pt, inv_qdiff, {}, [None], [1], {})
        pt, inv_qdiff, values, tables, scales, bases = point
        cmax = max(abs(c) for row in self.cart[1:] for c in row[1:])
        while len(tables) <= k:
            top = cmax * (len(tables) - 1)
            level = [None] + [{} for _ in range(self.n)]
            for i in range(1, self.n + 1):
                for a in range(-top, top + 1):
                    key = i, a
                    if key not in values:  # None for a zero numerator
                        num = self._ecoef_num(i, a)
                        values[key] = num and qqi_mul(peval_qqi(num, pt), inv_qdiff)
                    if values[key] is not None:
                        level[i][a] = values[key]
            s = lcm(*(x.denominator for row in level[1:] for val in row.values() for x in val))
            scaled = [{a: (int(re * s), int(im * s)) for a, (re, im) in row.items()} for row in level[1:]]
            tables.append([None] + scaled)
            scales.append(scales[-1] * s)
        return tables, scales, bases

    def kfactor(self, mu, wdot: int):
        """Multiplier for commuting a Cartan letter to the vacuum end:
        q^{(mu, wt)} times the highest-weight eigenvalue of the letter, the
        ``weight_symbol`` to the power sum(mu), kept at sigma = +1 (a letter
        of odd sum(mu) flips its path's parity).  Kashiwara's form has no
        Cartan letter: it pairs lowering elements."""
        key = (mu, wdot)
        out = self._kfactor_cache.get(key)
        if out is None:
            if self.mode.kind != "specialized":
                raise ValueError("a Cartan letter needs the specialized weight")
            val = weight_symbol(1, sum(mu)) * Scalar.v_power(2 * wdot)
            out = self._kfactor_cache[key] = _pack_poly(val.num)
        return out


def _step(state, token, ctx):
    """Apply one letter, read right to left, to a state mapping lowering
    words (standing on the vacuum) to packed numerators."""
    kind, x = token
    if kind == "f":
        return {(x,) + w: c for w, c in state.items()}
    if kind == "K":
        alpha = ctx.alpha
        dots = [0] + [sum(m * a for m, a in zip(x, alpha[j])) for j in range(1, ctx.n + 1)]
        kfactor = ctx.kfactor
        return {w: _kmul(c, kfactor(x, -sum(dots[j] for j in w))) for w, c in state.items()}
    ecoefs = ctx._ecoef_cache
    cart_i = ctx.cart[x]
    out: dict = {}
    for w, c in state.items():
        a = 0
        for t in range(len(w) - 1, -1, -1):
            j = w[t]
            if j == x:
                coef = ecoefs.get((x, a), False)
                if coef is False:  # not yet built; None is a cached zero
                    coef = ctx.ecoef(x, a)
                if coef is not None:
                    _kiadd(out, w[:t] + w[t + 1 :], _kmul(c, coef))
            a -= cart_i[j]
    return {w: c for w, c in out.items() if c != _PZERO}


def _build_trie(terms):
    """Prefix trie over token words, each word's packed value summed into its
    end node's "end"; a node holds only its children, keyed by token, and
    "end"."""
    root: dict = {}
    for w, c in terms:
        node = root
        for token in w:
            nxt = node.get(token)
            if nxt is None:
                nxt = node[token] = {}
            node = nxt
        _kiadd(node, "end", c)
    return root


def _sign_parity(token):
    """1 when a letter multiplies its path's value by an odd power of sigma:
    e_1, whose ``ecoef`` is sigma times the one kept, and a Cartan letter of
    odd sum(mu), whose ``kfactor`` holds sigma^sum(mu); else 0."""
    kind, x = token
    if kind == "K":
        return sum(x) & 1
    return int(kind == "e" and x == 1)


def _walk(node, state, ctx, keep, outs, parity):
    """Add into outs[p] the state reached at each word end below node, times
    the end's value, on the state words whose length is in keep, p being
    parity flipped by the sign parity of every letter on the way."""
    end = node.get("end")
    if end is not None:
        out = outs[parity]
        for w, c in state.items():
            if len(w) in keep:
                _kiadd(out, w, _kmul(c, end))
    for token, child in node.items():
        if token == "end":
            continue
        ns = _step(state, token, ctx)
        if ns:
            _walk(child, ns, ctx, keep, outs, parity ^ _sign_parity(token))


def _cleared(terms):
    """The terms (word, c, p) as (word, packed c * D * (q - q^{-1})^(top - p)),
    and D * (q - q^{-1})^top: D is the lcm of the denominators of the c,
    polynomials in v with a nonzero constant term, up to a constant, so
    each c * D is a polynomial, and top is the largest p.  A word's p counts
    its raising letters, each of which leaves a factor 1/(q - q^{-1}) out of
    the packed ``ecoef``: so every cleared word carries one denominator."""
    keyed = [(w, c, p, tuple(sorted(c.den.items()))) for w, c, p in terms]
    den, quotients = PONE, {}  # D so far, and D / d per denominator d
    for key, d in {key: c.den for _w, c, _p, key in keyed}.items():
        # D / d reduced is N / M: D * M is the lcm of D and d, and D * M / d = N;
        # 1 / d is reduced already, d being a canonical denominator
        ratio = _scalar(PONE, d) if den == PONE else Scalar(den, d)
        quotients = {k: pmul(q, ratio.den) for k, q in quotients.items()}
        quotients[key] = ratio.num
        den = pmul(den, ratio.den)
    top = max((p for _w, _c, p, _k in keyed), default=0)
    out = []
    for w, c, p, key in keyed:
        num = pmul(c.num, quotients[key])
        out.append((w, _pack_poly(pmul(num, _qdiff_power(top - p)) if p < top else num)))
    return out, pmul(den, _qdiff_power(top)) if top else den


def _qdiff_power(k):
    """(q - q^{-1})^k = (v^2 - v^{-2})^k, by the binomial theorem."""
    return {2 * k - 4 * j: ((-1) ** j * comb(k, j), 0) for j in range(k + 1)}


def _height(u):
    """By how much the token word u shortens a state word: its raising
    letters less its lowering letters."""
    return sum((t[0] == "e") - (t[0] == "f") for t in u)


def _parities(factors, right, ctx):
    """(even, odd): the sum of c * d * <u_1 ... u_k w> over one left term
    (u_i, c_i) per factor, c the product of the c_i, and the right terms
    (w, d), split by the parity of the path u_1 ... u_k (``_sign_parity``)
    and taken at sigma = +1, so that the value at sigma is even + sigma*odd.

    Each u_i is a token word in processing order (right to left), and the
    first factor acts first; each w is a lowering index word standing on
    the vacuum.  The right terms are the initial state, of even parity.
    Each factor walks a prefix trie of its words from each parity's state
    the one before it left, and the states at the word ends, times the
    ends' values, add up to the next state of the end's parity: a factor of
    a words after one of b costs walks over a + b words, not a * b.  Every
    coefficient is packed once, cleared by ``_cleared``, and the cleared
    denominators are restored once, on the vacuum entries.

    A raising letter shortens a state word by one and a lowering letter
    lengthens it, so the vacuum is reached only where the net heights of
    one word per factor sum to len(w).  No right word of another length is
    kept, and with none left the value is zero before anything is cleared.
    Each factor keeps only the words that take some state word to a length
    the later factors can still bring to the vacuum, and its walk keeps only
    the state words of such lengths: at the last factor, the vacuum entry.
    """
    factors = [[(u, c, _height(u)) for u, c in factor] for factor in factors]
    reach = [{0}]
    for factor in reversed(factors):
        reach.append({r + h for r in reach[-1] for _u, _c, h in factor})
    reach.reverse()  # reach[i]: the sums of one net height per factor from factor i on
    right = [(w, d, 0) for w, d in right if len(w) in reach[0]]
    if not right:
        return ZERO, ZERO
    right, den = _cleared(right)
    states: list = [{}, {}]
    for w, d in right:
        _kiadd(states[0], w, d)
    for factor, keep in zip(factors, reach[1:]):
        states = [{w: d for w, d in state.items() if d != _PZERO} for state in states]
        lengths = {len(w) for state in states for w in state}
        terms = [(u, c, sum(t[0] == "e" for t in u)) for u, c, h in factor if any(l - h in keep for l in lengths)]
        if not terms:
            return ZERO, ZERO
        terms, fden = _cleared(terms)
        den = pmul(den, fden)
        trie = _build_trie(terms)
        outs: list = [{}, {}]
        for parity, state in enumerate(states):
            if state:
                _walk(trie, state, ctx, keep, outs, parity)
        states = outs
    vals = [state.get(()) for state in states]
    return tuple(ZERO if val is None or val == _PZERO else Scalar(_unpack_poly(val), den) for val in vals)


def _evaluate(factors, right, ctx: EvalContext):
    """The value of ``_parities``: even + odd under Kashiwara's form, which
    has no sign, and at the weight the pair (at +1, at -1), that is (even +
    odd, even - odd).  A zero part costs no ``Scalar`` operation."""
    even, odd = _parities(factors, right, ctx)
    if ctx.mode.kind == "kashiwara":
        return even + odd if even and odd else even or odd
    if not odd:
        return even, even
    if not even:
        return odd, -odd
    return even + odd, even - odd


def vacuum_eval(x: AlgElt, ctx: EvalContext):
    """Cartan projection of an algebra element, evaluated at the weight."""
    left = [(tuple(reversed(w)), c) for w, c in x.terms.items()]
    return _evaluate([left], [((), ONE)], ctx)


# ---------------------------------------------------------------------------
# Pairings of lowering-word combinations (the hot path)
# ---------------------------------------------------------------------------

def _pure_f_indices(x: AlgElt):
    """As a list of (index word, coefficient); None if not a pure f-element."""
    out = []
    for w, c in x.terms.items():
        idx = []
        for g in w:
            if g[0] != "f":
                return None
            idx.append(g[1])
        out.append((tuple(idx), c))
    return out


def lowering_left(x):
    """The left side of <omega(x) y> as ``pair_left`` takes it, for a pure
    lowering x: an element or the sequence of its factors x_1, ..., x_k (x
    = x_1 ... x_k, the empty sequence the unit), which the engine applies
    one at a time, as omega(x) = omega(x_k) ... omega(x_1).  A caller that
    pairs one x many times converts it once."""
    left = []
    for factor in (x,) if isinstance(x, AlgElt) else x:
        xt = _pure_f_indices(factor)
        if xt is None:
            raise ValueError("the left factor must be a pure lowering element")
        left.append([(tuple(("e", j) for j in w), c) for w, c in xt])
    return left


def pair_lowering(x, y: AlgElt, ctx: EvalContext):
    """<omega(x) y> for pure lowering elements x, y; x is an element or the
    sequence of its factors (``lowering_left``)."""
    return pair_left(lowering_left(x), y, ctx)


def pair_left(factors, y: AlgElt, ctx: EvalContext):
    """<L y> for a left side L without lowering letters and a pure lowering
    element y; L is the product of its factors, each a list of (token word
    in processing order, coeff), the factor that acts first on y first.
    Like every pairing, a ``Scalar`` under Kashiwara's form, and at the
    weight the pair (at +1, at -1) from one walk."""
    yt = _pure_f_indices(y)
    if yt is None:
        raise ValueError("the right factor must be a pure lowering element")
    return _evaluate(factors, yt, ctx)


shapovalov = pair_lowering  # the contravariant form <omega(x) y> on lowering elements


def invariant_form(x: AlgElt, y, ctx: EvalContext):
    """The invariant pairing of x (highest-weight side) against y (lowest-
    weight side): the vacuum value of antipode^{-1}(y) x, for a pure
    lowering x and a y without lowering letters.  y is an element or the
    sequence of its factors y_1, ..., y_k, and antipode^{-1}(y_1 ... y_k) =
    antipode^{-1}(y_k) ... antipode^{-1}(y_1): the engine applies
    antipode^{-1}(y_1) first."""
    left = []
    for factor in (y,) if isinstance(y, AlgElt) else y:
        if any(g[0] == "f" for w in factor.terms for g in w):
            raise ValueError("the raising factor must have no lowering letters")
        gy = antipode(factor, ctx.n, inverse=True)
        left.append([(tuple(reversed(w)), c) for w, c in gy.terms.items()])
    return pair_left(left, x, ctx)


# ---------------------------------------------------------------------------
# Weight combinatorics
# ---------------------------------------------------------------------------

def weight_alpha_counts(coords, n):
    """Expansion of -coords over the simple roots; None if outside the cone."""
    a = [0] * (n + 1)
    tail = 0
    for j in range(n, 0, -1):
        tail += coords[j - 1]
        if -tail < 0:
            return None
        a[j] = -tail
    return a[1:]


def _append_words(prefix, remaining, out):
    """Append prefix + each distinct ordering of the sorted remaining letters
    to out, in lex order (not a closure, whose cycle would keep out alive)."""
    if not remaining:
        out.append(tuple(prefix))
        return
    last = None
    for idx, letter in enumerate(remaining):
        if letter == last:
            continue
        last = letter
        _append_words(prefix + [letter], remaining[:idx] + remaining[idx + 1 :], out)


def fword_count(coords, n):
    """Number of words in the lowering generators of the given weight: the
    multinomial (sum a_j)! / prod a_j! of the simple-root counts a_j, 0
    outside the cone and 1 at the zero weight."""
    a = weight_alpha_counts(coords, n)
    if a is None:
        return 0
    out = factorial(sum(a))
    for aj in a:
        out //= factorial(aj)
    return out


def fwords_of_weight(coords, n):
    """All words in the lowering generators of the given weight, lex order."""
    a = weight_alpha_counts(coords, n)
    if a is None:
        return []
    letters = []
    for j in range(1, n + 1):
        letters.extend([j] * a[j - 1])
    out = []
    _append_words([], sorted(letters), out)
    return out


def fword_elt(word_indices) -> AlgElt:
    return AlgElt({tuple(("f", j) for j in word_indices): ONE})


def b_index_of_weight(coords):
    """The unique basis multi-index of a weight, or None."""
    if any(c > 0 for c in coords):
        return None
    return tuple(-c for c in coords)


def expand(factors) -> AlgElt:
    """The product x_1 ... x_k of a factor sequence; the unit if empty."""
    return reduce(AlgElt.__mul__, factors, AlgElt.unit())


def b_monomial(m, n) -> AlgElt:
    """The basis monomial f_{eps_1}^{m_1} ... f_{eps_n}^{m_n}."""
    return expand(root_factors("f_eps", m, n))


def b_height(m) -> int:
    return sum(mi * i for i, mi in enumerate(m, start=1))


def enumerate_b_indices(n, max_total):
    """All basis multi-indices with total degree at most max_total, sorted."""
    return [m for m in product(range(max_total + 1), repeat=n) if sum(m) <= max_total]


# ---------------------------------------------------------------------------
# Gram matrices, ranks, and the module oracle
# ---------------------------------------------------------------------------

def _bareiss(rows):
    """The nonzero rows of a fraction-free (Bareiss) echelon form, which
    span the row space of rows, over an exact domain: Gaussian integers as
    (re, im) pairs, or ``Scalar``s, which the field's own *, - and / rank
    exactly over Q(i)(v).  Each update divides exactly by the previous pivot
    (none on the first step, where it is the unit), so Gaussian-integer
    entries stay integral."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    if ncols and isinstance(m[0][0], Scalar):
        mul, sub, div, zero, prev = Scalar.__mul__, Scalar.__sub__, Scalar.__truediv__, ZERO, ONE
    else:
        mul, sub, div, zero, prev = _gmul, _gsub, _gdiv_exact, G0, G1
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if m[r][col] != zero), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        pivot = m[row][col]
        for r in range(row + 1, nrows):
            for c in range(col + 1, ncols):
                x = sub(mul(pivot, m[r][c]), mul(m[r][col], m[row][c]))
                m[r][c] = div(x, prev) if row else x
            m[r][col] = zero
        prev = pivot
        row += 1
        if row == nrows:
            break
    return m[:row]


def rank_gauss(rows) -> int:
    """Rank by one fraction-free elimination; see ``_bareiss``."""
    return len(_bareiss(rows))


def pair_words_qqi(u, w, ctx: EvalContext, v0):
    """<(raising word u) (lowering word w)> of a context at the point v0,
    by the symbolic engine, at both signs: an oracle for the integer Gram
    slices."""
    left = [(tuple(("e", j) for j in reversed(u)), ONE)]
    mode = SpecMode.numeric(v0)
    plus, minus = pair_left([left], fword_elt(w), ctx)
    return scalar_to_qqi(plus, mode), scalar_to_qqi(minus, mode)


def _symmetric_rows(size, entry):
    """The size x size matrix of entry(i, j), computed for i <= j only and
    mirrored: the contravariant form is symmetric, as <a, b> = eps(omega(a) b)
    with omega an involutive anti-automorphism and eps o omega = eps."""
    rows = [[None] * size for _ in range(size)]
    for i in range(size):
        row = rows[i]
        for j in range(i, size):
            row[j] = rows[j][i] = entry(i, j)
    return rows


def _row_basis(words, tables, cart, bases):
    """Echelon rows spanning the row space of the integer Gram slice on the
    lex-ordered words of one weight (all of length k), built from the bases
    of the weights one letter up and memoized in bases by letter multiset;
    see ``rank_at``."""
    k = len(words[0])
    if not k:
        return [[G1]]
    key = words[0]  # the lex-first word is sorted: the letter multiset
    basis = bases.get(key)
    if basis is not None:
        return basis
    cands = []
    for c, block in groupby(words, itemgetter(0)):
        tails = [w[1:] for w in block]
        up = _row_basis(tails, tables, cart, bases)
        if not up:
            continue
        index = {w: r for r, w in enumerate(tails)}
        level_c, cart_c = tables[k][c], cart[c]
        cols = []  # the columns of E_c: (row of the tail word, re, im)
        for w in words:
            col, a = [], 0
            for t in range(k - 1, -1, -1):
                j = w[t]
                if j == c and (e := level_c.get(a)) is not None:
                    col.append((index[w[:t] + w[t + 1 :]], e[0], e[1]))
                a -= cart_c[j]
            cols.append(col)
        for b in up:
            row = []
            for col in cols:
                re = im = 0
                for r, er, ei in col:
                    sr, si = b[r]
                    re += er * sr - ei * si
                    im += er * si + ei * sr
                row.append((re, im) if re or im else G0)
            cands.append(row)
    basis = bases[key] = _bareiss(cands)
    return basis


def rank_at(coords, ctx: EvalContext, v0):
    """Rank of the Gram slice G_mu of a weight at v0 as Gaussian integers:
    P_k times the rational Gram (``int_levels``), hence of the same rank,
    which is the same at both signs (below).

    The slice is never filled.  The engine's step consumes the rightmost
    raising letter against each matching lowering slot, so for x = (c,) + x'
    row x of G_mu is row x' of G_{mu+alpha_c} times E_c, whose column w
    holds, per slot t with w[t] = c, the level-k value of c at the pairing
    value of w's letters after t, in the row of w without slot t.  The tails
    of the words that start with c are the words of mu+alpha_c in lex order,
    so rowspace(G_mu) = sum over c of rowspace(G_{mu+alpha_c}) E_c, with
    [[1]] at the empty word: the rank is the size of the basis that one
    elimination leaves of the bases one letter up mapped through their E_c.

    One basis serves both signs.  E_1(sigma) = sigma E_1(+1), as ecoef(1, a)
    is sigma times the numerator kept and negation leaves each level's
    lcm s_l unchanged, and every other E_c is free of sigma.  So, by
    induction on the word length from [[1]] at the empty word, and as
    scaling by -1 changes no row space,

        rowspace G_mu(sigma) = sum_c rowspace G_{mu+alpha_c}(sigma) E_c(sigma)
                             = sum_c rowspace G_{mu+alpha_c}(+1) E_c(+1)
                             = rowspace G_mu(+1):

    the row spaces coincide, not only the ranks.  The basis is built once
    per point and letter multiset from the sigma = +1 tables and kept for
    the context's run; its size is the rank at both signs."""
    if ctx.mode.kind != "specialized":
        raise ValueError("rank computations need the specialized weight")
    words = fwords_of_weight(coords, ctx.n)
    rank = 0
    if words:
        tables, _scales, bases = ctx._int_point(v0, len(words[0]))
        rank = len(_row_basis(words, tables, ctx.cart, bases))
    return rank


def ladder_spanning_set(coords, ctx: EvalContext):
    """Generator-prepended basis monomials f_j b_m spanning the weight
    space, granted the ladder facts at lower heights, and b_0 = 1 at the
    zero weight, the base case.  Each element is the tuple of its factors,
    f_j and ``root_factors("f_eps", m)``, the unit the empty tuple, so that
    the engine pairs it factor by factor; built once per context and
    weight, so callers must not mutate the list."""
    key = tuple(coords)
    out = ctx._spans.get(key)
    if out is None:
        out = ctx._spans[key] = [] if any(key) else [()]
        for j in range(1, ctx.n + 1):
            up = tuple(c + a for c, a in zip(coords, ctx.alpha[j]))
            m = b_index_of_weight(up)
            if m is not None:
                out.append((AlgElt.f(j),) + root_factors("f_eps", m, ctx.n))
    return out


def _ladder_rank_ok(coords, ctx: EvalContext) -> bool:
    """Verify rank(Gram of the spanning set) == number of basis monomials
    at both signs.  The Gram is computed once, each entry one walk for both
    signs, and ranked exactly over Q(i)(v) per sign, so no entry or minor
    can vanish by accident of a point; each entry pairs one element by its
    factors against the other expanded."""
    key = tuple(coords)
    cached = ctx._rank_gate.get(key)
    if cached is not None:
        return cached
    expected = 0 if b_index_of_weight(coords) is None else 1
    span = ladder_spanning_set(coords, ctx)
    elts = [expand(s) for s in span]
    rows = _symmetric_rows(len(span), lambda i, j: shapovalov(span[i], elts[j], ctx))
    ok = ctx._rank_gate[key] = all(rank_gauss([[e[k] for e in row] for row in rows]) == expected for k in (0, 1))
    return ok


def is_zero_in_M(x: AlgElt, ctx: EvalContext):
    """Whether a lowering element vanishes in the irreducible quotient: the
    pair of verdicts (at +1, at -1).

    Sound when used ladder-style: all action checks at lower weight heights
    must have passed already, and the rank gate for this weight must hold.
    """
    if ctx.mode.kind != "specialized":
        raise ValueError("module oracle needs the specialized weight")
    if x.is_zero():
        return True, True
    wt = x.weight(ctx.n)
    if not _ladder_rank_ok(wt, ctx):
        raise OracleError(
            "rank gate failed at weight %r: form rank does not match the "
            "basis count" % (wt,)
        )
    zero = (True, True)
    for s in ladder_spanning_set(wt, ctx):
        zero = tuple(z and v.is_zero() for z, v in zip(zero, shapovalov(s, x, ctx)))
        if not any(zero):
            break
    return zero


def is_zero_in_U(x: AlgElt, ctx: EvalContext) -> bool:
    """Whether a lowering element vanishes in U_q^-, the free algebra on the
    f_i modulo the quantum Serre relations: whether it pairs to zero under
    Kashiwara's form with every lowering word of its weight.  The radical
    of that form on the free algebra is exactly the ideal of the Serre
    relations (Kashiwara, Duke Math. J. 63, 1991; Lusztig, Introduction to
    Quantum Groups, 1.2 and 33.1), so no weight is needed."""
    if ctx.mode.kind != "kashiwara":
        raise ValueError("the zero test in U_q^- needs Kashiwara's form")
    if x.is_zero():
        return True
    for w in fwords_of_weight(x.weight(ctx.n), ctx.n):
        if not shapovalov(fword_elt(w), x, ctx).is_zero():
            return False
    return True
