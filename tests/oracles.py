"""Helpers the tests use and the package does not: a Cartan normal form of
algebra elements and accessors of the truncated pairing inverse."""

from qsphere.scalars import Scalar
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
