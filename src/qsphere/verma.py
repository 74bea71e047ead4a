"""Vacuum evaluation, contravariant forms and the module equality oracle.

The central object is the linear functional that projects a free word in
the generators onto its Cartan part and evaluates at the distinguished
highest weight.  Everything downstream -- the invariant pairing between the
highest- and lowest-weight modules, the contravariant (Shapovalov) form,
Gram matrices, ranks, and the ladder oracle deciding equality inside the
quotient module -- reduces to this functional.

The functional is computed once, over the generic field; the specialized
and numeric modes are its images under ring homomorphisms.  A context
therefore picks one coefficient ring for its mode, and the single engine
(``_step`` driven by ``_evaluate``) runs unchanged over either ring.

Equality in the enveloping algebra and in the module is *never* decided by
rewriting: an element is declared zero exactly when it pairs to zero with a
spanning family, and the spanning property itself is certified bottom-up by
weight height ("the ladder").  The soundness gate for the whole scheme is
the radical property of the defining relations, which has its own suite.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .scalars import (
    G0,
    G1,
    PONE,
    QQI_ZERO,
    ONE,
    ZERO,
    Scalar,
    SpecMode,
    _mono_neg,
    _spec_poly_sigma,
    _strip,
    peval_qqi,
    pmul,
    qqi_add,
    qqi_inv,
    qqi_mul,
    scalar_from_qqi,
    scalar_to_qqi,
)
from .words import AlgElt, Weight, alpha_vec, antipode, cartan_pairing, omega, root_vector

_QDIFF = {(2,): G1, (-2,): (-1, 0)}  # q - q^{-1} as a Laurent polynomial in v
_ONE_KEY = tuple(PONE.items())

# A coefficient ring of the engine provides: ``zero``; ``eunit``, the factor
# each raising letter contributes; ``mul``; ``iadd(acc, key, val)``, adding
# val into acc[key]; ``hom``, the image of a generic Laurent polynomial;
# ``lift``, a scalar as (group key, ring element); and ``finish``, turning
# the accumulated values of one group into a Scalar.


class _PolyRing:
    """Laurent numerators over Z[i] in v and the L_j, for the generic mode.

    Each raising letter contributes a factor 1/(q - q^{-1}); it is kept
    aside as a count and restored by ``finish``, so state coefficients stay
    polynomial.  Right-hand coefficients are split into numerator and
    denominator by ``lift``, and states are grouped by denominator.
    """

    zero: dict = {}
    eunit = PONE
    mul = staticmethod(pmul)

    def __init__(self, mode: SpecMode):
        self._den_cache = {0: PONE, 1: _QDIFF}

    @staticmethod
    def hom(p):
        return p

    @staticmethod
    def iadd(acc, key, val):
        """acc[key] += val in place; val itself is never retained."""
        s = acc.get(key)
        if s is None:
            acc[key] = dict(val)
            return
        for k, g in val.items():
            sg = s.get(k)
            sg = g if sg is None else (sg[0] + g[0], sg[1] + g[1])
            if sg == (0, 0):
                s.pop(k, None)
            else:
                s[k] = sg

    @staticmethod
    def lift(c: Scalar):
        return tuple(sorted(c.den.items())), c.num

    def _den(self, p):
        """(q - q^{-1})^p as a Laurent polynomial in v."""
        out = self._den_cache.get(p)
        if out is None:
            out = pmul(self._den(p - 1), _QDIFF)
            self._den_cache[p] = out
        return out

    def finish(self, acc, den_key) -> Scalar:
        """The scalar sum of c * poly / (q - q^{-1})^p over acc[(p, c)],
        divided by the group's denominator."""
        part = ZERO
        for (p, c), poly in acc.items():
            if poly:
                part = part + c * Scalar(poly, self._den(p))
        if den_key != _ONE_KEY:
            part = part / Scalar(dict(den_key))
        return part


def _vmul(p, r):
    """Product of Laurent polynomials in v keyed by int exponents."""
    out: dict = {}
    for e1, (a, b) in p.items():
        for e2, (c, d) in r.items():
            re, im = out.get(e1 + e2, G0)
            out[e1 + e2] = (re + a * c - b * d, im + a * d + b * c)
    return {e: g for e, g in out.items() if g != G0}


def _v_ints(p):
    """A Laurent polynomial in v alone, from tuple keys to int keys."""
    if any(len(k) > 1 for k in p):
        raise ValueError("an L-symbol reached the specialized ring")
    return {k[0] if k else 0: g for k, g in p.items()}


class _VRing(_PolyRing):
    """Laurent numerators in v alone with int exponent keys, for the
    specialized mode, where every L_j is sent to sigma*i*v^{-1}."""

    eunit = {0: G1}
    mul = staticmethod(_vmul)

    def __init__(self, mode: SpecMode):
        super().__init__(mode)
        self._sigma = mode.sigma

    def hom(self, p):
        return _v_ints(_spec_poly_sigma(p, self._sigma))

    @staticmethod
    def lift(c: Scalar):
        return tuple(sorted(c.den.items())), _v_ints(c.num)

    def finish(self, acc, den_key) -> Scalar:
        polys = {pc: {(e,) if e else (): g for e, g in p.items()} for pc, p in acc.items()}
        return super().finish(polys, den_key)


class _QQiRing:
    """Gaussian rationals at v = v0, for the numeric mode."""

    zero = QQI_ZERO
    mul = staticmethod(qqi_mul)

    def __init__(self, mode: SpecMode):
        self._mode = mode
        self.eunit = qqi_inv(self.hom(_QDIFF))

    def hom(self, p):
        return peval_qqi(_spec_poly_sigma(p, self._mode.sigma), self._mode.v0)

    @staticmethod
    def iadd(acc, key, val):
        s = acc.get(key)
        acc[key] = val if s is None else (s[0] + val[0], s[1] + val[1])

    def lift(self, c: Scalar):
        return None, scalar_to_qqi(c, self._mode)

    def finish(self, acc, _den_key) -> Scalar:
        tot = QQI_ZERO
        for (_p, c), val in acc.items():
            tot = qqi_add(tot, qqi_mul(scalar_to_qqi(c, self._mode), val))
        return scalar_from_qqi(tot)


class OracleError(RuntimeError):
    """An oracle precondition failed; results depending on it are void."""


class EvalContext:
    """Rank, specialization mode, coefficient ring and cached root data for
    one suite run."""

    def __init__(self, n: int, mode: SpecMode):
        if n < 1:
            raise ValueError("rank must be at least 1")
        self.n = n
        self.mode = mode
        rings = {"generic": _PolyRing, "specialized": _VRing, "numeric": _QQiRing}
        self.ring = rings[mode.kind](mode)
        self.alpha = [None] + [alpha_vec(i, n) for i in range(1, n + 1)]
        self.cart = [None] + [
            [0] + [cartan_pairing(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)
        ]
        self._ecoef_cache: dict = {}
        self._kfactor_cache: dict = {}
        self._rank_gate: dict = {}
        self._int_tables: list = [None]
        self._int_scales = [1]

    def ecoef(self, i: int, a: int):
        """Coefficient created when a raising letter consumes a matching
        lowering letter over a tail of pairing value a; None when zero.

        Generically this is (v^{2a} L_i/L_{i-1} - v^{-2a} L_{i-1}/L_i) over
        q - q^{-1} (with L_0 = 1), mapped into the context's ring.
        """
        key = (i, a)
        out = self._ecoef_cache.get(key, False)
        if out is False:
            mono = [0] * (i + 1)
            mono[0] = 2 * a
            mono[i] = 1
            if i > 1:
                mono[i - 1] = -1
            mono = tuple(mono)
            ring = self.ring
            out = ring.mul(ring.hom({mono: G1, _mono_neg(mono): (-1, 0)}), ring.eunit)
            if out == ring.zero:
                out = None
            self._ecoef_cache[key] = out
        return out

    def int_levels(self, k: int):
        """Integer ecoef tables for levels 0..k, and the scale P_k (numeric
        mode).  A step on words of length l only meets ecoef(i, a) with
        |a| <= c_max*(l - 1), c_max the largest |Cartan pairing|, as a gains
        one Cartan entry per tail letter.  Level l maps i to {a: ecoef(i, a)
        * s_l} over the nonzero values, s_l the lcm of their denominators;
        a pairing of length-k words built from these Gaussian integers is
        the true value times P_k = s_1 ... s_k."""
        tables = self._int_tables
        cmax = max(abs(x) for row in self.cart[1:] for x in row[1:])
        while len(tables) <= k:
            span = range(-cmax * (len(tables) - 1), cmax * (len(tables) - 1) + 1)
            vals = [(i, a, self.ecoef(i, a)) for i in range(1, self.n + 1) for a in span]
            vals = [t for t in vals if t[2] is not None]
            s = lcm(*(x.denominator for _i, _a, val in vals for x in val))
            table = [None] + [{} for _ in range(self.n)]
            for i, a, val in vals:
                table[i][a] = (int(val[0] * s), int(val[1] * s))
            tables.append(table)
            self._int_scales.append(self._int_scales[-1] * s)
        return tables, self._int_scales[k]

    def kfactor(self, mu, wdot: int):
        """Multiplier for commuting a Cartan letter to the vacuum end:
        q^{(mu, wt)} times the highest-weight eigenvalue of the letter."""
        key = (mu, wdot)
        out = self._kfactor_cache.get(key)
        if out is None:
            out = self.ring.hom({_strip((2 * wdot,) + tuple(mu)): G1})
            self._kfactor_cache[key] = out
        return out


def _step(state, token, ctx):
    """Apply one letter, read right to left, to a state mapping lowering
    words (standing on the vacuum) to ring coefficients."""
    kind, x = token
    if kind == "f":
        return {(x,) + w: c for w, c in state.items()}
    ring = ctx.ring
    mul = ring.mul
    if kind == "K":
        alpha = ctx.alpha
        dots = [0] + [sum(m * a for m, a in zip(x, alpha[j])) for j in range(1, ctx.n + 1)]
        kfactor = ctx.kfactor
        return {w: mul(c, kfactor(x, -sum(dots[j] for j in w))) for w, c in state.items()}
    iadd = ring.iadd
    ecoef = ctx.ecoef
    cart_i = ctx.cart[x]
    out: dict = {}
    for w, c in state.items():
        a = 0
        for t in range(len(w) - 1, -1, -1):
            j = w[t]
            if j == x:
                coef = ecoef(x, a)
                if coef is not None:
                    iadd(out, w[:t] + w[t + 1 :], mul(c, coef))
            a -= cart_i[j]
    zero = ring.zero
    return {w: c for w, c in out.items() if c != zero}


def _build_trie(terms):
    """Prefix trie over token words; per node, the maximal number of raising
    letters remaining below it (for state pruning)."""
    root: dict = {"d": 0}
    for w, c in terms:
        node = root
        for letter in w:
            nxt = node.get(letter)
            if nxt is None:
                nxt = {"d": 0}
                node[letter] = nxt
            node = nxt
        node.setdefault("end", []).append(c)

    def _depth(node):
        d = 0
        for key, child in node.items():
            if key in ("d", "end"):
                continue
            own = 1 if key[0] == "e" else 0
            d = max(d, own + _depth(child))
        node["d"] = d
        return d

    _depth(root)
    return root


def _evaluate(left, right, ctx: EvalContext) -> Scalar:
    """Sum of c * d * <u w> over left terms (u, c) and right terms (w, d).

    Each u is a token word in processing order (right to left); each w is a
    lowering index word standing on the vacuum.  All left words share one
    trie walk per group of right terms.  A state word longer than the number
    of raising letters left below a node can never reach the vacuum (a
    lowering letter only lengthens it), so it is pruned.
    """
    ring = ctx.ring
    iadd = ring.iadd
    zero = ring.zero
    groups: dict = {}
    for w, d in right:
        gkey, val = ring.lift(d)
        iadd(groups.setdefault(gkey, {}), w, val)
    trie = _build_trie(left)
    total = ZERO
    for gkey, state0 in groups.items():
        state0 = {w: c for w, c in state0.items() if c != zero}
        if not state0:
            continue
        acc: dict = {}  # values keyed by (raising-letter count, left coefficient)

        def dfs(node, state, p):
            ends = node.get("end")
            if ends is not None:
                val = state.get(())
                if val is not None:
                    for c in ends:
                        iadd(acc, (p, c), val)
            for token, child in node.items():
                if token == "d" or token == "end":
                    continue
                ns = _step(state, token, ctx)
                if ns:
                    md = child["d"]
                    if md < max(len(w) for w in ns):
                        ns = {w: c for w, c in ns.items() if len(w) <= md}
                        if not ns:
                            continue
                    dfs(child, ns, p + (token[0] == "e"))

        dfs(trie, state0, 0)
        total = total + ring.finish(acc, gkey)
    return total


def vacuum_eval(x: AlgElt, ctx: EvalContext) -> Scalar:
    """Cartan projection of an algebra element, evaluated at the weight."""
    left = [(tuple(reversed(w)), c) for w, c in x.terms.items()]
    return _evaluate(left, [((), ONE)], ctx)


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


def _left_token_words(x: AlgElt):
    """Words of a left factor as token tuples in processing order (right to
    left); None if any lowering letter appears."""
    out = []
    for w, c in x.terms.items():
        for g in w:
            if g[0] == "f":
                return None
        out.append((tuple(reversed(w)), c))
    return out


def pair_lowering(x: AlgElt, y: AlgElt, ctx: EvalContext) -> Scalar:
    """<omega(x) y> for pure lowering elements x, y, with shared-state
    evaluation across all words of both sides."""
    xt = _pure_f_indices(x)
    if xt is None:
        return vacuum_eval(omega(x) * y, ctx)
    left = [(tuple(("e", j) for j in w), c) for w, c in xt]
    return pair_left(left, y, ctx)


def pair_left(left, y: AlgElt, ctx: EvalContext) -> Scalar:
    """<L y> for a left factor without lowering letters and a pure lowering
    element y; left is a list of (token word in processing order, coeff)."""
    yt = _pure_f_indices(y)
    if yt is None:
        raise ValueError("the right factor must be a pure lowering element")
    return _evaluate(left, yt, ctx)


def shapovalov(x: AlgElt, y: AlgElt, ctx: EvalContext) -> Scalar:
    """The contravariant form <omega(x) y> on lowering elements."""
    return pair_lowering(x, y, ctx)


def invariant_form(x: AlgElt, y: AlgElt, ctx: EvalContext) -> Scalar:
    """The invariant pairing of x (highest-weight side) against y (lowest-
    weight side): the vacuum value of antipode^{-1}(y) x."""
    gy = antipode(y, ctx.n, inverse=True)
    left = _left_token_words(gy)
    if left is not None and _pure_f_indices(x) is not None:
        return pair_left(left, x, ctx)
    return vacuum_eval(gy * x, ctx)


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


def fwords_of_weight(coords, n, limit=None):
    """All words in the lowering generators of the given weight, lex order."""
    a = weight_alpha_counts(coords, n)
    if a is None:
        return []
    letters = []
    for j in range(1, n + 1):
        letters.extend([j] * a[j - 1])
    out = []
    _append_words([], sorted(letters), out)
    if limit is not None and len(out) > limit:
        raise OracleError(
            "weight %r has %d words, above the enumeration limit %d"
            % (tuple(coords), len(out), limit)
        )
    return out


def fword_elt(word_indices) -> AlgElt:
    return AlgElt({tuple(("f", j) for j in word_indices): ONE})


def b_index_of_weight(coords):
    """The unique basis multi-index of a weight, or None."""
    if any(c > 0 for c in coords):
        return None
    return tuple(-c for c in coords)


_B_CACHE: dict = {}


def b_monomial(m, n) -> AlgElt:
    """The basis monomial f_{eps_1}^{m_1} ... f_{eps_n}^{m_n}."""
    key = (tuple(m), n)
    out = _B_CACHE.get(key)
    if out is None:
        out = AlgElt.unit()
        for i, mi in enumerate(m, start=1):
            if mi:
                out = out * root_vector("f_eps", i, n) ** mi
        _B_CACHE[key] = out
    return out


def b_height(m) -> int:
    return sum(mi * i for i, mi in enumerate(m, start=1))


def enumerate_b_indices(n, max_total):
    """All basis multi-indices with total degree at most max_total."""
    out = []

    def rec(prefix, left):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for k in range(left + 1):
            rec(prefix + [k], left - k)

    rec([], max_total)
    return sorted(out)


# ---------------------------------------------------------------------------
# Gram matrices, ranks, and the module oracle
# ---------------------------------------------------------------------------

class GramSlice:
    """The contravariant form on all lowering words of one weight."""

    __slots__ = ("weight", "words", "entries")

    def __init__(self, weight, words, entries):
        self.weight = weight
        self.words = words
        self.entries = entries

    @property
    def size(self):
        return len(self.words)


def gram(weight: Weight, ctx: EvalContext, limit: int = 400) -> GramSlice:
    words = fwords_of_weight(weight.coords, ctx.n, limit=limit)
    elts = [fword_elt(w) for w in words]
    entries = [[shapovalov(a, b, ctx) for b in elts] for a in elts]
    return GramSlice(weight, words, entries)


def _qqi_rows_to_gauss(rows):
    """Clear denominators row by row; entries become Gaussian integers."""
    out = []
    for row in rows:
        den = lcm(*(x.denominator for entry in row for x in entry))
        out.append([(int(re * den), int(im * den)) for re, im in row])
    return out


def rank_gauss(rows) -> int:
    """Rank by fraction-free (Bareiss) elimination over the Gaussian integers."""
    from .scalars import _gdiv_exact, _gmul, _gsub

    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    prev = (1, 0)
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, nrows):
            if m[r][col] != (0, 0):
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        pivot = m[row][col]
        for r in range(row + 1, nrows):
            for c in range(col + 1, ncols):
                num = _gsub(_gmul(pivot, m[r][c]), _gmul(m[r][col], m[row][c]))
                m[r][c] = _gdiv_exact(num, prev)
            m[r][col] = (0, 0)
        prev = pivot
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def _pair_int(u, w, tables, cart, memo):
    """<(raising word u) (lowering word w)> times P_len(w), for index tuples
    u, w of equal length, from the tables of ``EvalContext.int_levels``.

    The recursion consumes the rightmost raising letter against each
    matching lowering slot, so the entries of a Gram slice share their
    subproblems through memo, which must map ((), ()) to 1.
    """
    key = (u, w)
    val = memo.get(key)
    if val is not None:
        return val
    k = len(w)
    c = u[-1]
    table = tables[k][c]
    cart_c = cart[c]
    u1 = u[:-1]
    re = im = a = 0
    for t in range(k - 1, -1, -1):
        j = w[t]
        if j == c:
            e = table.get(a)
            if e is not None:
                sr, si = _pair_int(u1, w[:t] + w[t + 1 :], tables, cart, memo)
                if sr or si:
                    re += e[0] * sr - e[1] * si
                    im += e[0] * si + e[1] * sr
        a -= cart_c[j]
    val = (re, im) if re or im else G0
    memo[key] = val
    return val


def pair_words_qqi(u, w, ctx: EvalContext):
    """<(raising word u) (lowering word w)> at a numeric point: the integer
    pairing divided by its scale."""
    if len(u) != len(w):
        return QQI_ZERO
    tables, scale = ctx.int_levels(len(w))
    re, im = _pair_int(u, w, tables, ctx.cart, {((), ()): G1})
    return (Fraction(re, scale), Fraction(im, scale))


def gram_int_rows(words, ctx: EvalContext):
    """The Gram slice on words of one weight (all of length k) as Gaussian
    integers: P_k times the rational Gram, hence of the same rank."""
    tables, _scale = ctx.int_levels(len(words[0]))
    memo = {((), ()): G1}
    return [[_pair_int(tuple(reversed(a)), b, tables, ctx.cart, memo) for b in words] for a in words]


def rank_at(weight: Weight, ctx: EvalContext, limit: int = 400) -> int:
    """Rank of the full Gram slice at a numeric point."""
    if ctx.mode.kind != "numeric":
        raise ValueError("rank computations require a numeric mode")
    words = fwords_of_weight(weight.coords, ctx.n, limit=limit)
    if not words:
        return 0
    return rank_gauss(gram_int_rows(words, ctx))


def ladder_spanning_set(coords, ctx: EvalContext):
    """Generator-prepended basis monomials spanning the weight space,
    granted the ladder facts at lower heights."""
    out = []
    for j in range(1, ctx.n + 1):
        up = tuple(c + a for c, a in zip(coords, ctx.alpha[j]))
        m = b_index_of_weight(up)
        if m is not None:
            out.append((j, m, AlgElt.f(j) * b_monomial(m, ctx.n)))
    return out


def _ladder_rank_ok(coords, ctx: EvalContext, check_points=(2, 3)) -> bool:
    """Verify rank(Gram of the spanning set) == number of basis monomials
    at independent numeric points."""
    key = tuple(coords)
    cached = ctx._rank_gate.get(key)
    if cached is not None:
        return cached
    expected = 0 if b_index_of_weight(coords) is None else 1
    span = ladder_spanning_set(coords, ctx)
    ok = True
    if span:
        for v0 in check_points:
            nctx = EvalContext(ctx.n, SpecMode.numeric(v0, ctx.mode.sigma))
            rows = [
                [
                    scalar_to_qqi(shapovalov(a[2], b[2], nctx), nctx.mode)
                    for b in span
                ]
                for a in span
            ]
            r = rank_gauss(_qqi_rows_to_gauss(rows))
            if r != expected:
                ok = False
                break
    else:
        ok = expected == 0
    ctx._rank_gate[key] = ok
    return ok


def is_zero_in_M(x: AlgElt, ctx: EvalContext) -> bool:
    """Whether a lowering element vanishes in the irreducible quotient.

    Sound when used ladder-style: all action checks at lower weight heights
    must have passed already, and the rank gate for this weight must hold.
    """
    if ctx.mode.kind == "generic":
        raise ValueError("module oracle needs the specialized weight")
    if x.is_zero():
        return True
    wt = x.weight(ctx.n)
    if not _ladder_rank_ok(wt.coords, ctx):
        raise OracleError(
            "rank gate failed at weight %r: form rank does not match the "
            "basis count" % (wt.coords,)
        )
    for _j, _m, w in ladder_spanning_set(wt.coords, ctx):
        if not shapovalov(w, x, ctx).is_zero():
            return False
    return True


def is_zero_generic(x: AlgElt, ctx: EvalContext, limit: int = 400) -> bool:
    """Zero test in the negative half at a fully generic weight: the element
    must pair to zero with every lowering word of its weight."""
    if ctx.mode.kind != "generic":
        raise ValueError("generic mode required")
    if x.is_zero():
        return True
    wt = x.weight(ctx.n)
    for w in fwords_of_weight(wt.coords, ctx.n, limit=limit):
        if not shapovalov(fword_elt(w), x, ctx).is_zero():
            return False
    return True
