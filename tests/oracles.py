"""Helpers the tests use and the package does not: a Cartan normal form of
algebra elements, accessors of the truncated pairing inverse, the plane
action and the star product term by term, and the full integer Gram slices
that ``rank_at`` ranks without filling."""

from itertools import groupby
from operator import itemgetter

from qsphere.plane import PlanePoly, act_generator, normalize_word
from qsphere.scalars import G1, Scalar
from qsphere.words import acc_add, alpha_vec, gen_k


def knormal(x, n):
    """Cartan normal form: commute every K-letter to the right end of its
    word, collecting the q-powers, and merge the K's into a single letter.

    Two words equal in the algebra modulo the Cartan commutation relations
    have identical images, so expansion identities involving K-letters are
    compared after this normalization.
    """
    terms: dict = {}
    for w, c in x.terms.items():
        mu = [0] * n
        letters = []
        vexp = 0
        for g in w:
            if g[0] == "K":
                for idx, m in enumerate(g[1]):
                    mu[idx] += m
            else:
                if any(mu):
                    av = alpha_vec(g[1], n)
                    dot = sum(m * a for m, a in zip(mu, av))
                    vexp += 2 * dot if g[0] == "e" else -2 * dot
                letters.append(g)
        if any(mu):
            letters.append(gen_k(tuple(mu)))
        acc_add(terms, [(tuple(letters), c * Scalar.v_power(vexp) if vexp else c)])
    return x._with(terms)


def ftensor_coeff(F, m):
    """The scalar coefficient of the multi-index m in the tensor F."""
    for mm, c, _e, _f in F.entries:
        if mm == tuple(m):
            return c
    raise KeyError(m)


def ftensor_to_json(F):
    return [{"m": list(m), "coeff": str(c)} for m, c, _e, _f in F.entries]


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


def _plane_word(mono, n):
    return tuple(k for idx, e in enumerate(mono) for k in [idx - n] * e)


def reference_star(p, r, F):
    """sum_m c_m (e_m . p)(f_m . r) term by term in Scalar arithmetic:
    every image recomputed per entry, and every product c_m * (left
    coefficient) * (right coefficient) * (normal-form coefficient) made and
    added as a Scalar, one canonical form per operation."""
    n = p.n
    acc: dict = {}
    for _m, c, ep, fp in F.entries:
        left = reference_act(ep, p)
        if left.is_zero():
            continue
        right = reference_act(fp, r)
        for m1, c1 in left.terms.items():
            for m2, c2 in right.terms.items():
                nf = normalize_word(_plane_word(m1, n) + _plane_word(m2, n), n)
                acc_add(acc, nf.items(), c * c1 * c2)
    return PlanePoly(n, acc)


def _fill_gram(words, tables, cart, grams):
    """The Gram of the lex-ordered words of one weight, filled from the
    Grams of their tails and memoized in grams by letter multiset; see
    ``gram_int_rows``."""
    k = len(words[0])
    if not k:
        return [[G1]]
    key = words[0]  # the lex-first word is sorted: the letter multiset
    rows = grams.get(key)
    if rows is not None:
        return rows
    size = len(words)
    rows = grams[key] = [[None] * size for _ in range(size)]
    start = 0
    for c, block in groupby(words, itemgetter(0)):
        tails = [w[1:] for w in block]
        up = _fill_gram(tails, tables, cart, grams)
        index = {w: r for r, w in enumerate(tails)}
        level_c, cart_c = tables[k][c], cart[c]
        cols = []  # the columns of E_c from the block on: (row, re, im)
        for w in words[start:]:
            col, a = [], 0
            for t in range(k - 1, -1, -1):
                j = w[t]
                if j == c and (e := level_c.get(a)) is not None:
                    col.append((index[w[:t] + w[t + 1 :]], e[0], e[1]))
                a -= cart_c[j]
            cols.append(col)
        for i, g in enumerate(up, start):
            row = rows[i]
            for j in range(i, size):
                re = im = 0
                for r, er, ei in cols[j - start]:
                    sr, si = g[r]
                    re += er * sr - ei * si
                    im += er * si + ei * sr
                row[j] = rows[j][i] = (re, im)
        start += len(tails)
    return rows


def gram_int_rows(words, ctx, v0, sigma):
    """The Gram slice on the lex-ordered words of one weight mu (all of
    length k) at v0 on the branch sigma as Gaussian integers: P_k times the
    rational Gram, hence of the same rank.  It applies the engine's step, which consumes the
    rightmost raising letter against each matching lowering slot, to whole
    rows: for x = (c,) + x', row x is row x' of the Gram of mu+alpha_c
    times E_c, whose column w holds, per slot t with w[t] = c, the level-k
    value of c at the pairing value of w's letters after t, in the row of w
    without slot t.  The tails of the words that start with c are the words
    of mu+alpha_c in lex order, so that Gram is filled from them, level by
    level, once per letter multiset and call.

    The contravariant form is symmetric in every mode and at every point:
    <a, b> = eps(omega(a) b), omega is an involutive anti-automorphism and
    eps o omega = eps, so <b, a> = eps(omega(omega(a) b)) = <a, b>.  Each
    level computes the entries with i <= j and mirrors the others.
    """
    tables, _scale = ctx.int_levels(len(words[0]), v0, sigma)
    return _fill_gram(words, tables, ctx.cart, {})
