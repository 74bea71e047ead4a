"""Verification suites: every displayed identity at desk scale.

Each suite runs a family of exact checks and returns a structured report.
``SUITE_LIST`` holds one record per suite: its function, least rank, the
parameter ``--max-deg`` sets, the suites it depends on and, for a gate
suite, the rule that decides a dependent run.  A suite that leans on
another suite's result (the module oracle on the radical soundness of the
defining relations, the inverse tensor on the irreducibility ranks, the
star product on the invariant dimensions) runs behind a gate.

What one run shares lives in a ``Session``: the verdicts of the gate
suites, keyed on each report's suite and params, and one
``EvalContext`` per rank and mode (one sign-free specialized context per
rank), whose engine tables, spanning sets and ladder-gate verdicts carry
over from one suite to the next.  Every verdict in the
session at the rank that covers the dependent run must pass; when none
covers it, the gate suite runs once, in the same session, at what the
dependent run needs.

Every suite body runs inside one scaffold, ``_run``, which makes a fresh
session when the suite gets none (two standalone calls share nothing),
opens the gates and keeps the verdicts the table asks for, and times the
body; no suite does this itself.  Every suite that specializes the weight
runs once per (rank, degree, point), for both square roots
L_j = sigma*i*v^{-1}: its body runs once inside ``_branches``, every
engine value a pair (at +1, at -1) from one walk, records one verdict per
sign, and ``_branches`` reports the two signs' checks in turn and checks
that no verdict depends on the sign.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from .scalars import (
    ONE,
    Q,
    QBAR,
    ZERO,
    Scalar,
    SpecMode,
    qfact,
    qnum,
    theta,
    weight_symbol,
)
from .words import AlgElt, acc_add, alpha_vec, omega, qbracket, root_factors, root_vector
from .verma import (
    SIGNS,
    EvalContext,
    OracleError,
    b_height,
    b_monomial,
    enumerate_b_indices,
    expand,
    fword_count,
    fword_elt,
    fwords_of_weight,
    invariant_form,
    is_zero_in_M,
    is_zero_in_U,
    lowering_left,
    pair_left,
    pair_lowering,
    rank_at,
    shapovalov,
    vacuum_eval,
)
from .ftensor import build_F
from .plane import (
    PlanePoly,
    act,
    act_gen_on_word,
    candidate_invariants,
    chev_twist,
    invariant_subspace,
    iota,
    isotropy_operators,
    star,
)
from .report import VerificationReport

# the irreducibility scope: the largest Gram slice (in words) it ranks
_IRR_WORD_LIMIT = 200
# the random samples of xyz's bracket identity and module-algebra's
# commutator check: how many, and the seed that draws them
_XYZ_TRIPLES, _XYZ_SEED = 120, 2024
_MODULE_ALGEBRA_CASES, _MODULE_ALGEBRA_SEED = 200, 5


def _check_points(v0):
    """The point the run was given, checked by whoever parsed it, and a
    second point: 3, or 5 when the first is 3."""
    return (v0, Fraction(3) if v0 != 3 else Fraction(5))


@contextmanager
def _run(name, params, mode, session):
    """One run of suite `name`: yields its report and the session.

    The gates of the suites it depends on open first, outside the timing;
    ``elapsed_ms`` covers the body; a suite with a gate rule enters its
    verdict in the session when the body ends."""
    session = session or Session()
    session.ensure_gates(name, params["n"], params.get("max_deg"))
    rep = VerificationReport(name, params, mode)
    t0 = time.monotonic()
    yield rep, session
    rep.elapsed_ms = int((time.monotonic() - t0) * 1000)
    if SUITE_BY_NAME[name].gate is not None:
        session.record(rep)


@contextmanager
def _branches(rep, n, session):
    """The session's sign-free specialized context and a recorder, for a
    body that runs once for both branch signs: the engine's values in that
    context are pairs (at +1, at -1), and ``record(name, oks, witness)``
    takes one verdict per sign, and one witness per sign or one for both.
    When the body ends, the checks are recorded with the sign in their
    names, those of sigma = +1 first, then those of sigma = -1, then
    ``branch-invariance``, which checks that no verdict depends on the
    sign."""
    ctx = session.context(n, SpecMode.specialized())
    checks = []

    def record(name, oks, witness):
        checks.append((name, oks, witness))

    yield ctx, record
    verdicts = []
    for k, s in enumerate(SIGNS):
        seen = {}
        for name, oks, witness in checks:
            seen[name] = oks[k]
            rep.record("%s|sigma=%+d" % (name, s), oks[k], witness if isinstance(witness, str) else witness[k])
        verdicts.append(seen)
    ok = verdicts[0] == verdicts[1]
    rep.record("branch-invariance", ok, "verdict vectors differ between branches")


# ---------------------------------------------------------------------------
# Pairing factorization and its one-line consequences
# ---------------------------------------------------------------------------

def _factorization_rhs(m, sigma) -> Scalar:
    out = ONE
    thinv = ONE / theta()
    for mi in m:
        if mi == 0:
            continue
        out = out * qfact(mi) * thinv ** mi * weight_symbol(sigma, -mi) * Scalar.v_power(-mi)
        if mi % 2:
            out = -out
    return out


def verify_factorization(n=2, max_deg=4, session=None) -> VerificationReport:
    params = {"n": n, "max_deg": max_deg}
    with _run("factorization", params, "specialized(sigma=both)", session) as (rep, session):
        indices = enumerate_b_indices(n, max_deg)
        monomials = [(m, b_monomial(m, n)) for m in indices]
        # omega(e_{eps_n}^{k_n} ... e_{eps_1}^{k_1}) by its factors, as omega
        # reverses the product, each converted once to the engine's left side
        eparts = [(k, lowering_left([omega(x) for x in root_factors("e_eps", k, n)])) for k in indices]
        with _branches(rep, n, session) as (ctx, record):
            for k, eleft in eparts:
                for m, b in monomials:
                    lhs = pair_left(eleft, b, ctx)
                    rhs = [_factorization_rhs(m, s) if k == m else ZERO for s in SIGNS]
                    name = "k=%s,m=%s" % (list(k), list(m))
                    record(name, [l == r for l, r in zip(lhs, rhs)], ["lhs=%s rhs=%s" % lr for lr in zip(lhs, rhs)])
    return rep


def verify_harish(n=2, max_deg=4, session=None) -> VerificationReport:
    """Powers of one raising/lowering pair: the product formula with shifted
    q-numbers and the specialized closed form both match the engine."""
    params = {"n": n, "max_deg": max_deg}
    with _run("harish", params, "specialized(sigma=both)", session) as (rep, session):
        half = Fraction(1, 2)
        with _branches(rep, n, session) as (ctx, record):
            for i in range(1, n + 1):
                oe_i = omega(root_vector("e_eps", i, n))
                f_i = root_vector("f_eps", i, n)
                for m in range(max_deg + 1):
                    engines = pair_lowering((oe_i,) * m, f_i ** m, ctx)
                    m_ei = [m if j == i else 0 for j in range(1, n + 1)]
                    ratio = ONE
                    for l in range(1, m + 1):
                        ratio = ratio * (qnum(l * half) / qnum(half))
                    oks, witnesses = [], []
                    for s, engine in zip(SIGNS, engines):
                        prod = ratio
                        for l in range(m):
                            prod = prod * qnum(-l * half, shift=weight_symbol(s))
                        closed = _factorization_rhs(m_ei, s)
                        oks.append(engine == prod == closed)
                        witnesses.append("engine=%s product=%s closed=%s" % (engine, prod, closed))
                    record("i=%d,m=%d" % (i, m), oks, witnesses)
    return rep


# ---------------------------------------------------------------------------
# Radical soundness gate
# ---------------------------------------------------------------------------

def serre_elements(n):
    """The defining-relation elements on the lowering side, with labels."""
    out = []
    for j in range(2, n + 1):
        for jp in (j - 1, j + 1):
            if 1 <= jp <= n:
                s = qbracket(AlgElt.f(j), qbracket(AlgElt.f(j), AlgElt.f(jp), Q), QBAR)
                out.append(("serre[f%d,f%d]" % (j, jp), s))
    if n >= 2:
        out.append(
            ("comm[f1,fdelta]", qbracket(AlgElt.f(1), root_vector("f_delta", 1, n), ONE))
        )
    for j in range(1, n + 1):
        for jp in range(j + 2, n + 1):
            out.append(("comm[f%d,f%d]" % (j, jp), qbracket(AlgElt.f(j), AlgElt.f(jp), ONE)))
    return out


def verify_serre_radical(n=2, weight_bound=5, session=None) -> VerificationReport:
    params = {"n": n, "weight_bound": weight_bound}
    with _run("serre-radical", params, "kashiwara", session) as (rep, session):
        ctx = session.context(n, SpecMode.kashiwara())
        for label, s in serre_elements(n):
            ht = len(next(iter(s.terms)))
            max_tail = weight_bound - ht
            tails = [()]
            for tlen in range(1, max_tail + 1):
                tails.extend(_all_words(n, tlen))
            for t in tails:
                x = s * fword_elt(t) if t else s
                ok = is_zero_in_U(x, ctx)
                rep.record(
                    "%s,tail=%s" % (label, list(t)),
                    ok,
                    "element does not pair to zero under Kashiwara's form",
                )
    return rep


def _all_words(n, length):
    if length == 0:
        return [()]
    shorter = _all_words(n, length - 1)
    return [w + (j,) for w in shorter for j in range(1, n + 1)]


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

class Session:
    """What one run shares: the gate verdicts and the engine contexts.

    ``verdicts`` maps (suite, sorted params) to whether that gate
    suite's report passed.  ``contexts`` holds one ``EvalContext`` per
    (rank, mode): Kashiwara's form, whose values are ``Scalar``s, or the
    specialized weight, whose every value is the pair (at +1, at -1), with
    one set of integer tables and row bases per numeric point for both
    signs; they, its spanning sets and its ladder-gate verdicts (computed
    once for both signs) depend on nothing else, so suites that share a
    context get the results they would get alone.
    """

    def __init__(self):
        self.verdicts: dict = {}
        self.contexts: dict = {}

    def context(self, n, mode) -> EvalContext:
        ctx = self.contexts.get((n, mode))
        if ctx is None:
            ctx = self.contexts[n, mode] = EvalContext(n, mode)
        return ctx

    def record(self, rep):
        """Enter a gate suite's verdict; returns the report."""
        params = tuple(
            sorted((k, tuple(v) if isinstance(v, list) else v) for k, v in rep.params.items())
        )
        self.verdicts[rep.suite, params] = rep.passed
        return rep

    def ensure_gates(self, name, n, max_deg=None):
        """Open the gate of every suite `name` depends on: each verdict at
        rank n that covers this run must pass; with none, the gate suite
        runs once in this session at this run's need."""
        for dep in SUITE_BY_NAME[name].deps:
            gate = SUITE_BY_NAME[dep].gate
            found = []
            for (suite, params), ok in self.verdicts.items():
                p = dict(params)
                if suite == dep and p["n"] == n and gate.covers(p, max_deg):
                    found.append(ok)
            if not found:
                found = [gate.rerun(self, n, max_deg).passed]
            if not all(found):
                raise OracleError("%s gate failed at rank %d: %s" % (dep, n, gate.voids))


# ---------------------------------------------------------------------------
# Module structure: spanning action, normalizer consequences
# ---------------------------------------------------------------------------

def _span_checks(n, max_deg):
    """All action checks ordered by weight height (the ladder order)."""
    checks = []
    for m in enumerate_b_indices(n, max_deg):
        b = b_monomial(m, n)
        ht = b_height(m) + 1
        m_up = (m[0] + 1,) + m[1:]
        checks.append(
            (ht, "m=%s,gen=f1" % (list(m),), AlgElt.f(1) * b - b_monomial(m_up, n))
        )
        for i in range(1, n):
            mi = m[i - 1]
            rhs = AlgElt()
            if mi > 0:
                mp = list(m)
                mp[i - 1] -= 1
                mp[i] += 1
                rhs = b_monomial(tuple(mp), n).scaled(-Q * qnum(mi))
            checks.append(
                (ht, "m=%s,gen=f%d" % (list(m), i + 1), AlgElt.f(i + 1) * b - rhs)
            )
    checks.sort(key=lambda t: (t[0], t[1]))
    return checks


def verify_span(n=2, max_deg=4, session=None) -> VerificationReport:
    params = {"n": n, "max_deg": max_deg}
    with _run("span", params, "specialized(sigma=both)", session) as (rep, session):
        checks = _span_checks(n, max_deg)
        with _branches(rep, n, session) as (ctx, record):
            for _ht, name, x in checks:
                record(name, is_zero_in_M(x, ctx), "difference is nonzero in the module")
    return rep


def verify_normalizer(n=2, max_deg=4, session=None) -> VerificationReport:
    params = {"n": n, "max_deg": max_deg}
    with _run("normalizer", params, "specialized(sigma=both)", session) as (rep, session):
        # a generator of the deformed-isotropy column j annihilates basis
        # tails supported on columns >= j; the doubled-root generator kills
        # every tail beyond the first column
        gens = [("fdelta", root_vector("f_delta", 1, n), 2)]
        gens += [("f%d" % j, AlgElt.f(j), j) for j in range(2, n + 1)]
        tail_deg = max(0, max_deg - 1)
        with _branches(rep, n, session) as (ctx, record):
            for gname, g, first in gens:
                for m in _b_tails(n, tail_deg, first=first):
                    x = g * b_monomial(m, n)
                    ok = is_zero_in_M(x, ctx)
                    record(
                        "kill:%s,tail=%s" % (gname, list(m)),
                        ok,
                        "ideal generator does not annihilate the tail",
                    )
            # (b) exchange congruences on later tails
            for i in range(1, n):
                fe_i = root_vector("f_eps", i, n)
                fe_n = root_vector("f_eps", i + 1, n)
                ex = fe_n * fe_i - (fe_i * fe_n).scaled(QBAR)
                for m in _b_tails(n, max(0, max_deg - 2), first=i + 1):
                    x = ex * b_monomial(m, n)
                    ok = is_zero_in_M(x, ctx)
                    record(
                        "exchange:i=%d,tail=%s" % (i, list(m)),
                        ok,
                        "exchange congruence fails on the tail",
                    )
            # (c) the quotient generator is singular in the parent module
            fdelta = root_vector("f_delta", 1, n)
            for i in range(1, n + 1):
                x = AlgElt.e(i) * fdelta
                bad = [None] * len(SIGNS)  # per sign, the first word and value
                for w in fwords_of_weight(x.weight(n), n):
                    vals = vacuum_eval(omega(fword_elt(w)) * x, ctx)
                    bad = [b or (None if v.is_zero() else (w, str(v))) for b, v in zip(bad, vals)]
                    if all(bad):
                        break
                record(
                    "singular:e%d" % i,
                    [b is None for b in bad],
                    ["raising generator does not kill the quotient vector: %r" % (b,) for b in bad],
                )
    return rep


def _b_tails(n, max_total, first=2):
    """Basis multi-indices supported on columns first..n, total <= max_total."""
    out = []
    for m in enumerate_b_indices(n, max_total):
        if all(mi == 0 for mi in m[: first - 1]):
            out.append(m)
    return sorted(out)


# ---------------------------------------------------------------------------
# Appendix identities
# ---------------------------------------------------------------------------

def verify_xyz(n=3, session=None) -> VerificationReport:
    params = {"n": n, "triples": _XYZ_TRIPLES, "seed": _XYZ_SEED}
    with _run("xyz", params, "kashiwara", session) as (rep, session):
        rng = random.Random(_XYZ_SEED)
        # (a) the two-parameter bracket identity holds freely
        bad = 0
        for _t in range(_XYZ_TRIPLES):
            X, Y, Z = (_random_elt(rng, n) for _ in range(3))
            a, b, c = (_random_scalar(rng) for _ in range(3))
            lhs = qbracket(X, qbracket(Y, Z, a), b)
            rhs = qbracket(qbracket(X, Y, c), Z, a * b / c) + qbracket(
                Y, qbracket(X, Z, b / c), a / c
            ).scaled(c)
            if lhs != rhs:
                bad += 1
        rep.record("bracket-identity:%d-random-triples" % _XYZ_TRIPLES, bad == 0, "%d failures" % bad)
        # (b) the two vanishing conclusions, in U_q^- by Kashiwara's form
        ctx = session.context(n, SpecMode.kashiwara())
        for i in range(2, n):
            x, y, z = AlgElt.f(i - 1), AlgElt.f(i), AlgElt.f(i + 1)
            c1 = qbracket(qbracket(x, y, QBAR), qbracket(y, z, Q), ONE)
            c2 = qbracket(y, qbracket(x, qbracket(y, z, Q), Q), ONE)
            rep.record(
                "vanish:[[x,y],[y,z]]:i=%d" % i,
                is_zero_in_U(c1, ctx),
                "first conclusion nonzero in U_q^-",
            )
            rep.record(
                "vanish:[y,[x,[y,z]]]:i=%d" % i,
                is_zero_in_U(c2, ctx),
                "second conclusion nonzero in U_q^-",
            )
    return rep


def _random_elt(rng, n):
    terms = {}
    for _ in range(rng.randint(1, 2)):
        w = []
        for _l in range(rng.randint(0, 3)):
            kind = rng.choice(("e", "f", "K"))
            if kind == "K":
                w.append(("K", tuple(rng.randint(-1, 1) for _ in range(n))))
            else:
                w.append((kind, rng.randint(1, n)))
        terms[tuple(w)] = _random_scalar(rng)
    return AlgElt(terms)


def _random_scalar(rng):
    s = Scalar.v_power(rng.randint(-3, 3)) * Scalar.gauss(rng.randint(1, 3), rng.randint(-1, 1))
    return s


# ---------------------------------------------------------------------------
# Irreducibility evidence and the inverse tensor
# ---------------------------------------------------------------------------

def _rank_weights(n, max_deg):
    """Basis weights plus their simple-root shifts (action targets)."""
    weights = set()
    for m in enumerate_b_indices(n, max_deg):
        mu = tuple(-x for x in m)
        weights.add(mu)
        for j in range(1, n + 1):
            weights.add(tuple(a - b for a, b in zip(mu, alpha_vec(j, n))))
    return sorted(weights, reverse=True)


def verify_irreducibility(n=2, max_deg=4, v0=2, session=None) -> VerificationReport:
    """Full-slice Gram ranks against basis counts, plus nonzero diagonals.

    No slice is filled: row (c,) + x' of the Gram G_mu is row x' of
    G_{mu+alpha_c} times a sparse level matrix E_c, so each rank is the size
    of a basis of the row space built from the bases one letter up
    (``rank_at``).  The two branch signs share each basis, as their row
    spaces coincide; the bases are kept per point for the run.

    Weights with more than ``_IRR_WORD_LIMIT`` words are outside the scope
    of the run: the report params record the limit as ``word_limit`` and
    the number of weights beyond it as ``out_of_scope``, 0 at rank 2 up to
    degree 4.
    """
    word_limit = _IRR_WORD_LIMIT
    points = _check_points(v0)
    weights = [(mu, fword_count(mu, n)) for mu in _rank_weights(n, max_deg)]
    params = {
        "n": n,
        "max_deg": max_deg,
        "points": [str(p) for p in points],
        "word_limit": word_limit,
        "out_of_scope": sum(count > word_limit for _mu, count in weights),
    }
    with _run("irreducibility", params, "numeric(sigma=both)", session) as (rep, session):
        monomials = []  # (m, the factors of b_m, b_m), built once for both branches
        for m in enumerate_b_indices(n, max_deg):
            fs = root_factors("f_eps", m, n)
            monomials.append((m, fs, expand(fs)))
        with _branches(rep, n, session) as (sctx, record):
            for mu, count in weights:
                expected = 0 if any(c > 0 for c in mu) else 1
                if count == 0 or count > word_limit:
                    continue
                for p in points:
                    rank = rank_at(mu, sctx, p)
                    record(
                        "rank:mu=%s,v0=%s" % (list(mu), p),
                        [rank == expected] * len(SIGNS),
                        "rank %d, expected %d" % (rank, expected),
                    )
            for m, fs, b in monomials:
                diags = shapovalov(fs, b, sctx)
                name = "diagonal:m=%s" % (list(m),)
                record(name, [not d.is_zero() for d in diags], "diagonal form value vanishes")
    return rep


def verify_f_inverse(n=2, max_deg=4, session=None) -> VerificationReport:
    """F's coefficients normalize the pairings of its f- and e-parts, and
    parts of distinct indices of one total degree pair to zero; each e-part
    is paired by its root-vector factors."""
    params = {"n": n, "max_deg": max_deg}
    with _run("f-inverse", params, "specialized(sigma=both)", session) as (rep, session):
        F = build_F(n, max_deg)
        eparts = {m: root_factors("et_eps", m, n) for m, _c, _e, _f in F.entries}
        by_total: dict = {}  # total degree -> (m, f-part) of each index
        for m, _c, _e, fp in F.entries:
            by_total.setdefault(sum(m), []).append((m, fp))
        with _branches(rep, n, session) as (ctx, record):
            for m, coeff, _ep, fp in F.entries:
                vals = [coeff * v for v in invariant_form(fp, eparts[m], ctx)]
                record("diag:k=%s" % (list(m),), [v == ONE for v in vals], ["normalization is %s" % v for v in vals])
            # off-diagonal vanishing for equal total degree
            for total, ms in sorted(by_total.items()):
                if total == 0 or total > 3:
                    continue
                for ma, _fa in ms:
                    for mb, fb in ms:
                        if ma == mb:
                            continue
                        vals = invariant_form(fb, eparts[ma], ctx)
                        record(
                            "offdiag:m=%s,k=%s" % (list(ma), list(mb)),
                            [v.is_zero() for v in vals],
                            ["cross pairing is %s" % v for v in vals],
                        )
    return rep


# ---------------------------------------------------------------------------
# Plane suites
# ---------------------------------------------------------------------------

def _plane_relations(n):
    rels = []
    for i in range(-n, n + 1):
        for j in range(-n, n + 1):
            if i > j and i != -j:
                rels.append(((i, j), {(j, i): QBAR}))
    rels.append(((1, -1), {(-1, 1): ONE, (0, 0): Q - ONE}))
    for j in range(2, n + 1):
        rels.append(((j, -j), {(-j, j): ONE, (j - 1, -j + 1): Q, (-j + 1, j - 1): -QBAR}))
    return rels


def _plane_generators(n):
    gens = [("e", i) for i in range(1, n + 1)] + [("f", i) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        gens.append(("K", alpha_vec(i, n)))
    return gens


def verify_module_algebra(n=2, session=None) -> VerificationReport:
    params = {"n": n, "cases": _MODULE_ALGEBRA_CASES, "seed": _MODULE_ALGEBRA_SEED}
    with _run("module-algebra", params, "symbolic", session) as (rep, _session):
        # (a) the raw-word action respects each defining relation
        for lw, rdict in _plane_relations(n):
            for g in _plane_generators(n):
                lhs = act_gen_on_word(g, lw, n)
                rhs: dict = {}
                for w, c in rdict.items():
                    acc_add(rhs, act_gen_on_word(g, w, n).items(), c)
                rep.record(
                    "relation:%s,gen=%s" % (list(lw), _gen_label(g)),
                    lhs == rhs,
                    "action does not descend through the relation",
                )
        # (b) commutator compatibility on random polynomials
        rng = random.Random(_MODULE_ALGEBRA_SEED)
        bad = 0
        for _c in range(_MODULE_ALGEBRA_CASES):
            p = _random_plane_poly(rng, n)
            i = rng.randint(1, n)
            j = rng.randint(1, n)
            lhs = act(AlgElt.e(i), act(AlgElt.f(j), p)) - act(AlgElt.f(j), act(AlgElt.e(i), p))
            if i == j:
                av = alpha_vec(i, n)
                kp = act(AlgElt.K(av), p)
                km = act(AlgElt.K(tuple(-a for a in av)), p)
                rhs = (kp - km).scaled(ONE / (Q - QBAR))
            else:
                rhs = PlanePoly(n)
            if lhs != rhs:
                bad += 1
        rep.record("commutator:%d-random-cases" % _MODULE_ALGEBRA_CASES, bad == 0, "%d failures" % bad)
        # (c) involution compatibility on generators
        for i in range(1, n + 1):
            for k in range(-n, n + 1):
                xk = PlanePoly.coordinate(k, n)
                for u in (AlgElt.e(i), AlgElt.f(i), AlgElt.K(alpha_vec(i, n))):
                    ok = iota(act(u, xk)) == act(chev_twist(u), iota(xk))
                    rep.record(
                        "involution:i=%d,k=%d,%s" % (i, k, _gen_label(next(iter(u.terms))[0])),
                        ok,
                        "twist compatibility fails",
                    )
    return rep


def _gen_label(g):
    if g[0] == "K":
        return "K%s" % (list(g[1]),)
    return "%s%d" % g


def _random_plane_poly(rng, n):
    p = PlanePoly(n)
    for _ in range(rng.randint(1, 3)):
        w = tuple(rng.choice(range(-n, n + 1)) for _ in range(rng.randint(0, 3)))
        p = p + PlanePoly.from_word(w, n).scaled(Scalar.v_power(rng.randint(-2, 2)))
    return p


def verify_delta_inv(n=2, kmax=6, session=None) -> VerificationReport:
    with _run("delta-inv", {"n": n, "kmax": kmax}, "symbolic", session) as (rep, _session):
        x0 = PlanePoly.coordinate(0, n)
        xm1 = PlanePoly.coordinate(-1, n)
        xm2 = PlanePoly.coordinate(-2, n)
        fdelta = root_vector("f_delta", 1, n)
        edelta = root_vector("e_delta", 1, n)
        f1, f2 = AlgElt.f(1), AlgElt.f(2)

        def c_of(k):
            return (Scalar.v_power(-2 * k) - ONE) / (QBAR - ONE)

        for k in range(kmax + 1):
            xk = x0 ** k
            rep.record("fdelta-kills:k=%d" % k, act(fdelta, xk).is_zero(), "nonzero image")
            rep.record("edelta-kills:k=%d" % k, act(edelta, xk).is_zero(), "nonzero image")
            if k >= 1:
                got = act(f1, xk)
                want = (xm1 * x0 ** (k - 1)).scaled(-c_of(k))
                rep.record("inter1:k=%d" % k, got == want, "first displayed step fails")
            if k >= 2:
                ck = c_of(k) * c_of(k - 1)
                got2 = act(f1, act(f1, xk))
                want2 = (xm1 * xm1 * x0 ** (k - 2)).scaled(Q * ck)
                rep.record("inter2:k=%d" % k, got2 == want2, "second displayed step fails")
                got3 = act(f2, got2)
                want3 = (xm2 * xm1 * x0 ** (k - 2)).scaled(-ck * qnum(2))
                rep.record("inter3:k=%d" % k, got3 == want3, "third displayed step fails")
                got4 = act(f1, act(f2, act(f1, xk)))
                want4 = (xm2 * xm1 * x0 ** (k - 2)).scaled(-ck)
                rep.record("inter4:k=%d" % k, got4 == want4, "fourth displayed step fails")
    return rep


def verify_invariant_dims(n=2, max_deg=4, session=None) -> VerificationReport:
    with _run("invariant-dims", {"n": n, "max_deg": max_deg}, "symbolic", session) as (rep, _session):
        for m in range(max_deg + 1):
            expected = m // 2 + 1
            sl = invariant_subspace(n, m)
            rep.record(
                "dims:m=%d" % m,
                sl.dimension == expected,
                "dimension %d, expected %d" % (sl.dimension, expected),
            )
            rep.record("candidates-inside:m=%d" % m, sl.candidates_inside, "candidate escapes the kernel")
            rep.record(
                "candidates-independent:m=%d" % m,
                sl.candidates_independent,
                "candidates are dependent over Q(i)(v)",
            )
    return rep


def verify_star(n=2, max_deg=2, session=None) -> VerificationReport:
    """Closure, associativity on invariants, a non-associativity witness, and
    the classical limit of the twisted product."""
    with _run("star", {"n": n, "max_deg": max_deg}, "symbolic", session) as (rep, _session):
        # degree 2 at least: the non-associativity witness multiplies
        # degree-1 coordinates whatever the invariants' degree
        F = build_F(n, max(2, 2 * max_deg))
        cands = []
        for m in range(max_deg + 1):
            for idx, c in enumerate(candidate_invariants(n, m)):
                cands.append(("deg%d[%d]" % (m, idx), c))
        ops = isotropy_operators(n)
        pairwise = {
            (na, nb): star(a, b, F) for na, a in cands for nb, b in cands
        }
        # (a) closure: the twisted product of invariants stays invariant
        zero_wt = (0,) * n
        for na, _a in cands:
            for nb, _b in cands:
                sab = pairwise[(na, nb)]
                ok = all(act(op, sab).is_zero() for op in ops)
                ok = ok and set(sab.weight_components()) <= {zero_wt}
                rep.record("closure:%s*%s" % (na, nb), ok, "product leaves the joint kernel")
        # (b) associativity on invariant triples
        for na, a in cands:
            for nb, b in cands:
                sab = pairwise[(na, nb)]
                for nc, c in cands:
                    lhs = star(sab, c, F)
                    rhs = star(a, pairwise[(nb, nc)], F)
                    rep.record(
                        "assoc:%s*%s*%s" % (na, nb, nc),
                        lhs == rhs,
                        "associativity fails on invariants",
                    )
        # (c) a non-associativity witness among general low-degree elements
        coords = [PlanePoly.coordinate(k, n) for k in range(-1, 2)]
        witness = None
        for a in coords:
            for b in coords:
                for c in coords:
                    if star(star(a, b, F), c, F) != star(a, star(b, c, F), F):
                        witness = (a, b, c)
                        break
                if witness:
                    break
            if witness:
                break
        rep.record(
            "nonassoc-witness",
            witness is not None,
            "no witness found among coordinate triples (recorded, not fatal by itself)",
        )
        # (d) classical limit: at v = 1 the twist degenerates to the product
        for na, a in cands:
            for nb, b in cands:
                ok = _limit_equal(pairwise[(na, nb)], a * b)
                rep.record("limit:%s*%s" % (na, nb), ok, "star does not degenerate at v=1")
    return rep


def _limit_equal(p, r):
    """Whether p and r agree at v = 1; a pole there counts as a mismatch."""
    lhs, rhs = _at_v_one(p), _at_v_one(r)
    return lhs is not None and lhs == rhs


def _at_v_one(p):
    """The nonzero coefficients of p at v = 1, or None at a pole."""
    out = {}
    for m, c in p.terms.items():
        num, den = _sum_at_one(c.num), _sum_at_one(c.den)
        if not den:
            return None
        val = Scalar(num, den)
        if val:
            out[m] = val
    return out


def _sum_at_one(poly):
    """A polynomial in v at v = 1, the sum of its coefficients, as a
    constant polynomial."""
    re = sum(c[0] for c in poly.values())
    im = sum(c[1] for c in poly.values())
    return {0: (re, im)} if re or im else {}


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gate:
    """How a gate suite decides a dependent run at max_deg."""

    covers: object  # (params, max_deg) -> whether a recorded run covers it
    rerun: object  # (session, n, max_deg) -> the report that decides it when none does
    voids: str  # what a failed gate voids


@dataclass(frozen=True)
class Suite:
    name: str
    fn: object
    # the least rank with content: the doubled-root vectors need rank 2, and
    # xyz instantiates three consecutive columns
    min_rank: int = 1
    deg: str = "max_deg"  # the parameter --max-deg sets; None for none
    deps: tuple = ()  # gate suites that must pass first
    gate: Gate = None


# in a dependency-respecting order: the radical gate first, then rank evidence,
# then everything that leans on the oracles, ending with the plane.  Gate
# reruns call the module-level names, so a patched name is the one that runs.
SUITE_LIST = [
    Suite("serre-radical", verify_serre_radical, 2, "weight_bound", gate=Gate(
        lambda p, max_deg: p["weight_bound"] >= 4,
        lambda session, n, max_deg: verify_serre_radical(n, weight_bound=4, session=session),
        "the pairing oracle is unsound",
    )),
    Suite("xyz", verify_xyz, 3, None),
    Suite("factorization", verify_factorization),
    Suite("harish", verify_harish),
    Suite("irreducibility", verify_irreducibility, gate=Gate(
        lambda p, max_deg: p["max_deg"] == max_deg,
        lambda session, n, max_deg: verify_irreducibility(n, max_deg, session=session),
        "inverse-tensor checks are void",
    )),
    Suite("span", verify_span, 2, deps=("serre-radical",)),
    Suite("normalizer", verify_normalizer, 2, deps=("serre-radical",)),
    Suite("f-inverse", verify_f_inverse, 2, deps=("serre-radical", "irreducibility")),
    Suite("module-algebra", verify_module_algebra, deg=None),
    Suite("delta-inv", verify_delta_inv, 2, "kmax"),
    Suite("invariant-dims", verify_invariant_dims, 2, gate=Gate(
        lambda p, max_deg: p["max_deg"] >= 2 * max_deg,
        lambda session, n, max_deg: verify_invariant_dims(n, 2 * max_deg, session=session),
        "star closure checks are void",
    )),
    Suite("star", verify_star, 2, deps=("invariant-dims",)),
]
SUITE_BY_NAME = {s.name: s for s in SUITE_LIST}
# name -> suite function; the CLI looks a suite up here at call time
SUITES = {s.name: s.fn for s in SUITE_LIST}
