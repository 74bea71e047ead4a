"""Verification suites: every displayed identity at desk scale.

Each suite runs a family of exact checks and returns a structured report.
Oracle-based suites (anything deciding equality inside the module) are
gated behind the radical soundness of the defining relations; the gate is
cached per rank and re-verified on demand for standalone runs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .scalars import (
    ONE,
    ZERO,
    QQI_ZERO,
    Scalar,
    SpecMode,
    peval_qqi,
    qfact,
    qnum,
    qqi,
    qqi_inv,
    qqi_mul,
    specialize,
    theta,
)
from .words import AlgElt, Weight, alpha_vec, omega, qbracket, root_vector
from .verma import (
    EvalContext,
    OracleError,
    b_height,
    b_monomial,
    enumerate_b_indices,
    fword_elt,
    fwords_of_weight,
    invariant_form,
    is_zero_generic,
    is_zero_in_M,
    pair_lowering,
    rank_at,
    shapovalov,
    vacuum_eval,
)
from .ftensor import build_F, epart_twisted, fpart
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
from .report import VerificationReport, timer

_Q = Scalar.v_power(2)
_QBAR = Scalar.v_power(-2)
# default irreducibility scope: the largest Gram slice (in words) it ranks
_IRR_WORD_LIMIT = 200


def _sigma_list(sigma):
    if sigma in ("both", None):
        return (1, -1)
    return (int(sigma),)


def _check_points(v0):
    v0 = Fraction(v0)
    alt = Fraction(3) if v0 != 3 else Fraction(5)
    return (v0, alt)


def _mode_label(sigmas, kind="specialized"):
    if len(sigmas) == 2:
        return "%s(sigma=both)" % kind
    return "%s(sigma=%+d)" % (kind, sigmas[0])


def _branch_invariance(report, sigmas):
    """Verdicts must not depend on the branch sign."""
    if len(sigmas) < 2:
        return
    by_branch = {}
    for c in report.checks:
        name, _, tag = c.name.rpartition("|")
        if not name:
            continue
        by_branch.setdefault(tag, {})[name] = c.status
    tags = sorted(by_branch)
    if len(tags) == 2:
        ok = by_branch[tags[0]] == by_branch[tags[1]]
        report.record("branch-invariance", ok, "verdict vectors differ between branches")


# ---------------------------------------------------------------------------
# Pairing factorization and its one-line consequences
# ---------------------------------------------------------------------------

def _epart_plain(k, n) -> AlgElt:
    out = AlgElt.unit()
    for i in range(n, 0, -1):
        if k[i - 1]:
            out = out * root_vector("e_eps", i, n) ** k[i - 1]
    return out


def _factorization_rhs(m, mode) -> Scalar:
    out = ONE
    thinv = ONE / theta()
    for i, mi in enumerate(m, start=1):
        if mi == 0:
            continue
        lpow = specialize(Scalar.L_power(i, -mi), mode)
        out = out * qfact(mi) * thinv ** mi * lpow * Scalar.v_power(-mi)
        if mi % 2:
            out = -out
    return out


def verify_factorization(n=2, max_deg=4, sigma="both") -> VerificationReport:
    sigmas = _sigma_list(sigma)
    rep = VerificationReport(
        "factorization", {"n": n, "max_deg": max_deg}, _mode_label(sigmas)
    )
    with timer(rep):
        indices = enumerate_b_indices(n, max_deg)
        for s in sigmas:
            ctx = EvalContext(n, SpecMode.specialized(s))
            for k in indices:
                eomega = omega(_epart_plain(k, n))
                for m in indices:
                    lhs = pair_lowering(eomega, b_monomial(m, n), ctx)
                    rhs = _factorization_rhs(m, ctx.mode) if k == m else ZERO
                    rep.record(
                        "k=%s,m=%s|sigma=%+d" % (list(k), list(m), s),
                        lhs == rhs,
                        "lhs=%s rhs=%s" % (lhs, rhs),
                    )
        _branch_invariance(rep, sigmas)
    return rep


def verify_harish(n=2, max_deg=4, sigma="both") -> VerificationReport:
    """Powers of one raising/lowering pair: the product formula with shifted
    q-numbers and the specialized closed form both match the engine."""
    sigmas = _sigma_list(sigma)
    rep = VerificationReport("harish", {"n": n, "max_deg": max_deg}, _mode_label(sigmas))
    with timer(rep):
        half = Fraction(1, 2)
        for s in sigmas:
            ctx = EvalContext(n, SpecMode.specialized(s))
            for i in range(1, n + 1):
                shift = specialize(Scalar.L_power(i, 1), ctx.mode)
                e_i = root_vector("e_eps", i, n)
                f_i = root_vector("f_eps", i, n)
                for m in range(max_deg + 1):
                    engine = pair_lowering(omega(e_i ** m), f_i ** m, ctx)
                    prod = ONE
                    for l in range(1, m + 1):
                        prod = prod * (qnum(l * half) / qnum(half))
                    for l in range(m):
                        prod = prod * qnum(-l * half, shift=shift)
                    closed = ONE
                    if m:
                        closed = (
                            qfact(m)
                            * (ONE / theta()) ** m
                            * specialize(Scalar.L_power(i, -m), ctx.mode)
                            * Scalar.v_power(-m)
                        )
                        if m % 2:
                            closed = -closed
                    ok = engine == prod == closed
                    rep.record(
                        "i=%d,m=%d|sigma=%+d" % (i, m, s),
                        ok,
                        "engine=%s product=%s closed=%s" % (engine, prod, closed),
                    )
        _branch_invariance(rep, sigmas)
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
                s = qbracket(AlgElt.f(j), qbracket(AlgElt.f(j), AlgElt.f(jp), _Q), _QBAR)
                out.append(("serre[f%d,f%d]" % (j, jp), s))
    if n >= 2:
        out.append(
            ("comm[f1,fdelta]", qbracket(AlgElt.f(1), root_vector("f_delta", 1, n), ONE))
        )
    for j in range(1, n + 1):
        for jp in range(j + 2, n + 1):
            out.append(("comm[f%d,f%d]" % (j, jp), qbracket(AlgElt.f(j), AlgElt.f(jp), ONE)))
    return out


def verify_serre_radical(n=2, weight_bound=5, **_ignored) -> VerificationReport:
    rep = VerificationReport("serre-radical", {"n": n, "weight_bound": weight_bound}, "generic")
    with timer(rep):
        ctx = EvalContext(n, SpecMode.generic())
        for label, s in serre_elements(n):
            ht = len(next(iter(s.terms)))
            max_tail = weight_bound - ht
            tails = [()]
            for tlen in range(1, max_tail + 1):
                tails.extend(_all_words(n, tlen))
            for t in tails:
                x = s * fword_elt(t) if t else s
                ok = is_zero_generic(x, ctx)
                rep.record(
                    "%s,tail=%s" % (label, list(t)),
                    ok,
                    "element does not pair to zero generically",
                )
    return rep


def _all_words(n, length):
    if length == 0:
        return [()]
    shorter = _all_words(n, length - 1)
    return [w + (j,) for w in shorter for j in range(1, n + 1)]


_GATE_CACHE: dict = {}


def ensure_serre_gate(n):
    """Compact radical check gating every module-oracle suite."""
    ok = _GATE_CACHE.get(n)
    if ok is None:
        rep = verify_serre_radical(n, weight_bound=4)
        ok = rep.passed
        _GATE_CACHE[n] = ok
    if not ok:
        raise OracleError(
            "radical gate failed at rank %d: the pairing oracle is unsound" % n
        )


# ---------------------------------------------------------------------------
# Module structure: spanning action, normalizer consequences
# ---------------------------------------------------------------------------

def _span_checks(n, max_deg):
    """All action checks ordered by weight height (the ladder order)."""
    q = _Q
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
                rhs = b_monomial(tuple(mp), n).scaled(-q * qnum(mi))
            checks.append(
                (ht, "m=%s,gen=f%d" % (list(m), i + 1), AlgElt.f(i + 1) * b - rhs)
            )
    checks.sort(key=lambda t: (t[0], t[1]))
    return checks


def verify_span(n=2, max_deg=4, sigma="both") -> VerificationReport:
    sigmas = _sigma_list(sigma)
    rep = VerificationReport("span", {"n": n, "max_deg": max_deg}, _mode_label(sigmas))
    ensure_serre_gate(n)
    with timer(rep):
        checks = _span_checks(n, max_deg)
        for s in sigmas:
            ctx = EvalContext(n, SpecMode.specialized(s))
            for _ht, name, x in checks:
                ok = is_zero_in_M(x, ctx)
                rep.record("%s|sigma=%+d" % (name, s), ok, "difference is nonzero in the module")
        _branch_invariance(rep, sigmas)
    return rep


def verify_normalizer(n=2, max_deg=4, sigma="both", m_cap=None) -> VerificationReport:
    sigmas = _sigma_list(sigma)
    m_cap = n if m_cap is None else min(m_cap, n)
    rep = VerificationReport(
        "normalizer", {"n": n, "max_deg": max_deg, "m_cap": m_cap}, _mode_label(sigmas)
    )
    ensure_serre_gate(n)
    with timer(rep):
        # a generator of the deformed-isotropy column j annihilates basis
        # tails supported on columns >= j; the doubled-root generator kills
        # every tail beyond the first column
        gens = [("fdelta", root_vector("f_delta", 1, n), 2)]
        gens += [("f%d" % j, AlgElt.f(j), j) for j in range(2, m_cap + 1)]
        tail_deg = max(0, max_deg - 1)
        for s in sigmas:
            ctx = EvalContext(n, SpecMode.specialized(s))
            for gname, g, first in gens:
                for m in _b_tails(n, tail_deg, first=first):
                    x = g * b_monomial(m, n)
                    ok = is_zero_in_M(x, ctx)
                    rep.record(
                        "kill:%s,tail=%s|sigma=%+d" % (gname, list(m), s),
                        ok,
                        "ideal generator does not annihilate the tail",
                    )
            # (b) exchange congruences on later tails
            for i in range(1, n):
                fe_i = root_vector("f_eps", i, n)
                fe_n = root_vector("f_eps", i + 1, n)
                ex = fe_n * fe_i - (fe_i * fe_n).scaled(_QBAR)
                for m in _b_tails(n, max(0, max_deg - 2), first=i + 1):
                    x = ex * b_monomial(m, n)
                    ok = is_zero_in_M(x, ctx)
                    rep.record(
                        "exchange:i=%d,tail=%s|sigma=%+d" % (i, list(m), s),
                        ok,
                        "exchange congruence fails on the tail",
                    )
            # (c) the quotient generator is singular in the parent module
            fdelta = root_vector("f_delta", 1, n)
            for i in range(1, n + 1):
                x = AlgElt.e(i) * fdelta
                wt = x.weight(n)
                bad = None
                for w in fwords_of_weight(wt.coords, n):
                    val = vacuum_eval(omega(fword_elt(w)) * x, ctx)
                    if not val.is_zero():
                        bad = (w, str(val))
                        break
                rep.record(
                    "singular:e%d|sigma=%+d" % (i, s),
                    bad is None,
                    "raising generator does not kill the quotient vector: %r" % (bad,),
                )
        _branch_invariance(rep, sigmas)
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

def verify_xyz(n=3, triples=120, seed=2024, **_ignored) -> VerificationReport:
    rep = VerificationReport("xyz", {"n": n, "triples": triples, "seed": seed}, "generic")
    with timer(rep):
        rng = random.Random(seed)
        # (a) the two-parameter bracket identity holds freely
        if triples:
            bad = 0
            for _t in range(triples):
                X, Y, Z = (_random_elt(rng, n) for _ in range(3))
                a, b, c = (_random_scalar(rng) for _ in range(3))
                lhs = qbracket(X, qbracket(Y, Z, a), b)
                rhs = qbracket(qbracket(X, Y, c), Z, a * b / c) + qbracket(
                    Y, qbracket(X, Z, b / c), a / c
                ).scaled(c)
                if lhs != rhs:
                    bad += 1
            rep.record(
                "bracket-identity:%d-random-triples" % triples, bad == 0, "%d failures" % bad
            )
        # (b) the two vanishing conclusions, through the generic oracle
        ctx = EvalContext(n, SpecMode.generic())
        for i in range(2, n):
            x, y, z = AlgElt.f(i - 1), AlgElt.f(i), AlgElt.f(i + 1)
            c1 = qbracket(qbracket(x, y, _QBAR), qbracket(y, z, _Q), ONE)
            c2 = qbracket(y, qbracket(x, qbracket(y, z, _Q), _Q), ONE)
            rep.record(
                "vanish:[[x,y],[y,z]]:i=%d" % i,
                is_zero_generic(c1, ctx),
                "first conclusion nonzero generically",
            )
            rep.record(
                "vanish:[y,[x,[y,z]]]:i=%d" % i,
                is_zero_generic(c2, ctx),
                "second conclusion nonzero generically",
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


def verify_irreducibility(
    n=2, max_deg=4, sigma="both", v0=2, word_limit=_IRR_WORD_LIMIT
) -> VerificationReport:
    """Full-slice Gram ranks against basis counts, plus nonzero diagonals.

    Weights whose word enumeration exceeds word_limit are outside the
    declared scope of the run (the limit is recorded in the report params);
    at rank 2 the default limit covers every weight up to degree 4.
    """
    sigmas = _sigma_list(sigma)
    points = _check_points(v0)
    rep = VerificationReport(
        "irreducibility",
        {
            "n": n,
            "max_deg": max_deg,
            "points": [str(p) for p in points],
            "word_limit": word_limit,
        },
        _mode_label(sigmas, kind="numeric"),
    )
    with timer(rep):
        for s in sigmas:
            sctx = EvalContext(n, SpecMode.specialized(s))
            nctxs = [(p, EvalContext(n, SpecMode.numeric(p, s))) for p in points]
            for mu in _rank_weights(n, max_deg):
                expected = 0 if any(c > 0 for c in mu) else 1
                if expected and sum(-c for c in mu) > max_deg + 1:
                    continue
                words = fwords_of_weight(mu, n)
                if not words or len(words) > word_limit:
                    continue
                for p, ctx in nctxs:
                    r = rank_at(Weight(mu), ctx)
                    rep.record(
                        "rank:mu=%s,v0=%s|sigma=%+d" % (list(mu), p, s),
                        r == expected,
                        "rank %d, expected %d" % (r, expected),
                    )
            for m in enumerate_b_indices(n, max_deg):
                b = b_monomial(m, n)
                diag = shapovalov(b, b, sctx)
                rep.record(
                    "diagonal:m=%s|sigma=%+d" % (list(m), s),
                    not diag.is_zero(),
                    "diagonal form value vanishes",
                )
        _branch_invariance(rep, sigmas)
    _IRR_GATE[(n, max_deg, tuple(sigmas), Fraction(v0), word_limit)] = rep.passed
    return rep


def verify_f_inverse(n=2, max_deg=4, sigma="both") -> VerificationReport:
    sigmas = _sigma_list(sigma)
    rep = VerificationReport("f-inverse", {"n": n, "max_deg": max_deg}, _mode_label(sigmas))
    _ensure_irreducibility_gate(n, max_deg, sigmas)
    with timer(rep):
        F = build_F(n, max_deg)
        for s in sigmas:
            ctx = EvalContext(n, SpecMode.specialized(s))
            for m, coeff, ep, fp in F.entries:
                val = coeff * invariant_form(fp, ep, ctx)
                rep.record(
                    "diag:k=%s|sigma=%+d" % (list(m), s),
                    val == ONE,
                    "normalization is %s" % val,
                )
            # off-diagonal vanishing for equal total degree
            by_total: dict = {}
            for m, _c, _e, _f in F.entries:
                by_total.setdefault(sum(m), []).append(m)
            for total, ms in sorted(by_total.items()):
                if total == 0 or total > 3:
                    continue
                for ma in ms:
                    for mb in ms:
                        if ma == mb:
                            continue
                        val = invariant_form(fpart(mb, n), epart_twisted(ma, n), ctx)
                        rep.record(
                            "offdiag:m=%s,k=%s|sigma=%+d" % (list(ma), list(mb), s),
                            val.is_zero(),
                            "cross pairing is %s" % val,
                        )
        _branch_invariance(rep, sigmas)
    return rep


_IRR_GATE: dict = {}  # verdicts keyed on (n, max_deg, sigmas, v0, word_limit)


def _ensure_irreducibility_gate(n, max_deg, sigmas):
    """Judge by the full-scope verdicts (any v0, word_limit at least the
    default), all of which must pass; with none, rerun at the defaults."""
    key = (n, max_deg, tuple(sigmas))
    found = [
        ok for (*k, _v0, lim), ok in _IRR_GATE.items() if tuple(k) == key and lim >= _IRR_WORD_LIMIT
    ]
    if not found:
        sub = verify_irreducibility(n, max_deg, "both" if len(sigmas) == 2 else sigmas[0])
        found = [sub.passed]
    if not all(found):
        raise OracleError("irreducibility gate failed; inverse-tensor checks are void")


# ---------------------------------------------------------------------------
# Plane suites
# ---------------------------------------------------------------------------

def _plane_relations(n):
    rels = []
    for i in range(-n, n + 1):
        for j in range(-n, n + 1):
            if i > j and i != -j:
                rels.append(((i, j), {(j, i): _QBAR}))
    rels.append(((1, -1), {(-1, 1): ONE, (0, 0): _Q - ONE}))
    for j in range(2, n + 1):
        rels.append(((j, -j), {(-j, j): ONE, (j - 1, -j + 1): _Q, (-j + 1, j - 1): -_QBAR}))
    return rels


def _plane_generators(n):
    gens = [("e", i) for i in range(1, n + 1)] + [("f", i) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        gens.append(("K", alpha_vec(i, n)))
    return gens


def verify_module_algebra(n=2, cases=200, seed=5, **_ignored) -> VerificationReport:
    rep = VerificationReport("module-algebra", {"n": n, "cases": cases, "seed": seed}, "symbolic")
    with timer(rep):
        # (a) the raw-word action respects each defining relation
        for lw, rdict in _plane_relations(n):
            for g in _plane_generators(n):
                lhs = act_gen_on_word(g, lw, n)
                acc: dict = {}
                for w, c in rdict.items():
                    for tm, tc in act_gen_on_word(g, w, n).items():
                        cur = acc.get(tm)
                        cur = c * tc if cur is None else cur + c * tc
                        if cur:
                            acc[tm] = cur
                        else:
                            acc.pop(tm, None)
                lp = PlanePoly(n)
                lp.terms = {m: c for m, c in lhs.items() if c}
                rp = PlanePoly(n)
                rp.terms = acc
                rep.record(
                    "relation:%s,gen=%s" % (list(lw), _gen_label(g)),
                    lp == rp,
                    "action does not descend through the relation",
                )
        # (b) commutator compatibility on random polynomials
        rng = random.Random(seed)
        bad = 0
        done = 0
        while done < cases:
            p = _random_plane_poly(rng, n)
            i = rng.randint(1, n)
            j = rng.randint(1, n)
            lhs = act(AlgElt.e(i), act(AlgElt.f(j), p)) - act(AlgElt.f(j), act(AlgElt.e(i), p))
            if i == j:
                av = alpha_vec(i, n)
                kp = act(AlgElt.K(av), p)
                km = act(AlgElt.K(tuple(-a for a in av)), p)
                rhs = (kp - km).scaled(ONE / (_Q - _QBAR))
            else:
                rhs = PlanePoly(n)
            if lhs != rhs:
                bad += 1
            done += 1
        rep.record("commutator:%d-random-cases" % cases, bad == 0, "%d failures" % bad)
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


def verify_delta_inv(n=2, kmax=6, **_ignored) -> VerificationReport:
    rep = VerificationReport("delta-inv", {"n": n, "kmax": kmax}, "symbolic")
    with timer(rep):
        x0 = PlanePoly.coordinate(0, n)
        xm1 = PlanePoly.coordinate(-1, n)
        xm2 = PlanePoly.coordinate(-2, n)
        fdelta = root_vector("f_delta", 1, n)
        edelta = root_vector("e_delta", 1, n)
        f1, f2 = AlgElt.f(1), AlgElt.f(2)

        def c_of(k):
            return (Scalar.v_power(-2 * k) - ONE) / (_QBAR - ONE)

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
                want2 = (xm1 * xm1 * x0 ** (k - 2)).scaled(_Q * ck)
                rep.record("inter2:k=%d" % k, got2 == want2, "second displayed step fails")
                got3 = act(f2, got2)
                want3 = (xm2 * xm1 * x0 ** (k - 2)).scaled(-ck * qnum(2))
                rep.record("inter3:k=%d" % k, got3 == want3, "third displayed step fails")
                got4 = act(f1, act(f2, act(f1, xk)))
                want4 = (xm2 * xm1 * x0 ** (k - 2)).scaled(-ck)
                rep.record("inter4:k=%d" % k, got4 == want4, "fourth displayed step fails")
    return rep


def verify_invariant_dims(n=2, max_deg=6, v0=2, **_ignored) -> VerificationReport:
    points = _check_points(v0)
    rep = VerificationReport(
        "invariant-dims",
        {"n": n, "max_deg": max_deg, "points": [str(p) for p in points]},
        "numeric",
    )
    with timer(rep):
        for m in range(max_deg + 1):
            expected = m // 2 + 1
            try:
                sl = invariant_subspace(n, m, v0s=points)
            except RuntimeError as e:
                rep.record("dims:m=%d" % m, False, str(e))
                continue
            rep.record(
                "dims:m=%d" % m,
                sl.dimension == expected,
                "dimension %d, expected %d" % (sl.dimension, expected),
            )
            rep.record("candidates-inside:m=%d" % m, sl.candidates_inside, "candidate escapes the kernel")
            rep.record(
                "candidates-independent:m=%d" % m,
                sl.candidates_independent,
                "candidates are dependent at a numeric point",
            )
    return rep


_DIMS_GATE: dict = {}


def _ensure_dims_gate(n, max_deg):
    key = (n, max_deg)
    ok = _DIMS_GATE.get(key)
    if ok is None:
        ok = verify_invariant_dims(n, max_deg).passed
        _DIMS_GATE[key] = ok
    if not ok:
        raise OracleError("invariant-dimension gate failed; star closure checks are void")


def verify_star(n=2, max_deg=2, **_ignored) -> VerificationReport:
    """Closure, associativity on invariants, a non-associativity witness, and
    the classical limit of the twisted product."""
    rep = VerificationReport("star", {"n": n, "max_deg": max_deg}, "symbolic")
    _ensure_dims_gate(n, 2 * max_deg)
    with timer(rep):
        F = build_F(n, 2 * max_deg)
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
        pairs = [(na, a, nb, b) for na, a in cands[:4] for nb, b in cands[:4]]
        for na, a, nb, b in pairs:
            ok = _limit_equal(star(a, b, F), a * b)
            rep.record("limit:%s*%s" % (na, nb), ok, "star does not degenerate at v=1")
    return rep


def _limit_equal(p, r):
    one_pt = qqi(1)
    lhs = {}
    for m, c in p.terms.items():
        nv = peval_qqi(c.num, one_pt)
        dv = peval_qqi(c.den, one_pt)
        if dv == QQI_ZERO:
            return False
        val = qqi_mul(nv, qqi_inv(dv))
        if val != QQI_ZERO:
            lhs[m] = val
    rhs = {}
    for m, c in r.terms.items():
        nv = peval_qqi(c.num, one_pt)
        dv = peval_qqi(c.den, one_pt)
        if dv == QQI_ZERO:
            return False
        val = qqi_mul(nv, qqi_inv(dv))
        if val != QQI_ZERO:
            rhs[m] = val
    return lhs == rhs


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

SUITES = {
    "factorization": verify_factorization,
    "span": verify_span,
    "normalizer": verify_normalizer,
    "harish": verify_harish,
    "serre-radical": verify_serre_radical,
    "xyz": verify_xyz,
    "irreducibility": verify_irreducibility,
    "f-inverse": verify_f_inverse,
    "module-algebra": verify_module_algebra,
    "delta-inv": verify_delta_inv,
    "invariant-dims": verify_invariant_dims,
    "star": verify_star,
}

# dependency-respecting execution order: the radical gate first, then rank
# evidence, then everything that leans on the oracles, ending with the plane
SUITE_ORDER = [
    "serre-radical",
    "xyz",
    "factorization",
    "harish",
    "irreducibility",
    "span",
    "normalizer",
    "f-inverse",
    "module-algebra",
    "delta-inv",
    "invariant-dims",
    "star",
]

# suites that must not run once a fatal dependency failed
SUITE_DEPS = {
    "span": ["serre-radical"],
    "normalizer": ["serre-radical"],
    "f-inverse": ["serre-radical", "irreducibility"],
    "star": ["invariant-dims"],
}

# suites whose content involves the doubled-root vectors (rank >= 2 only)
DELTA_SUITES = {
    "serre-radical",
    "xyz",
    "span",
    "normalizer",
    "f-inverse",
    "delta-inv",
    "invariant-dims",
    "star",
}
