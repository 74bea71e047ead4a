import json

import pytest

import qsphere.suites as suites
import qsphere.verma as verma
from qsphere.report import VerificationReport
from qsphere.verma import OracleError, fwords_of_weight
from qsphere.suites import (
    SUITE_BY_NAME,
    SUITE_LIST,
    SUITES,
    Session,
    serre_elements,
    verify_delta_inv,
    verify_factorization,
    verify_harish,
    verify_module_algebra,
    verify_span,
    verify_xyz,
)


def test_registry_is_complete():
    assert list(SUITES) == [s.name for s in SUITE_LIST]
    assert all(SUITES[s.name] is s.fn for s in SUITE_LIST)
    assert len(SUITES) == 12


def test_suite_table_is_consistent():
    """Names are unique; a suite depends only on earlier suites that have a
    gate rule; every gate rule decides some suite's dependency."""
    names = [s.name for s in SUITE_LIST]
    assert len(set(names)) == len(names)
    for i, suite in enumerate(SUITE_LIST):
        for dep in suite.deps:
            assert dep in names[:i], (suite.name, dep)
            assert SUITE_BY_NAME[dep].gate is not None, (suite.name, dep)
    deps = {dep for s in SUITE_LIST for dep in s.deps}
    assert {s.name for s in SUITE_LIST if s.gate is not None} == deps


def test_report_schema():
    rep = verify_delta_inv(2, kmax=2)
    blob = json.loads(rep.to_json())
    assert set(blob) == {"suite", "params", "mode", "checks", "elapsed_ms"}
    for c in blob["checks"]:
        assert set(c) == {"name", "status", "witness"}
        assert c["status"] in ("pass", "fail")
    assert blob["suite"] == "delta-inv"


def test_reports_are_deterministic_modulo_elapsed():
    a = verify_harish(2, 2).to_dict()
    b = verify_harish(2, 2).to_dict()
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b


def test_factorization_suite_small():
    rep = verify_factorization(2, 2)
    assert rep.passed
    # 6 multi-indices => 36 pairs per branch, plus the invariance check
    assert len(rep.checks) == 73


def test_span_suite_small():
    rep = verify_span(2, 2)
    assert rep.passed


def test_serre_elements_inventory():
    labels = [l for l, _ in serre_elements(3)]
    assert "serre[f2,f1]" in labels
    assert "serre[f2,f3]" in labels
    assert "serre[f3,f2]" in labels
    assert "comm[f1,fdelta]" in labels
    assert "comm[f1,f3]" in labels


def _failed(session, suite, params, mode):
    """A failing report of a gate suite, entered in the session."""
    rep = VerificationReport(suite, params, mode)
    rep.record("forced", False, "forced failure")
    return session.record(rep)


def _passed(session, suite, params, mode):
    rep = VerificationReport(suite, params, mode)
    rep.record("forced", True)
    return session.record(rep)


def test_serre_gate_blocks_oracle_suites():
    session = Session()
    _failed(session, "serre-radical", {"n": 2, "weight_bound": 4}, "kashiwara")
    with pytest.raises(OracleError):
        session.ensure_gates("span", 2)
    with pytest.raises(OracleError):
        verify_span(2, 1, session=session)


def test_a_verdict_stays_in_its_session(monkeypatch):
    """A failing verdict gates only calls made with its own session."""
    failing = Session()
    _failed(failing, "serre-radical", {"n": 2, "weight_bound": 4}, "kashiwara")
    runs = _spy(monkeypatch, "verify_serre_radical", "n")
    other = Session()
    other.ensure_gates("span", 2)
    assert verify_span(2, 1, session=other).passed
    assert verify_span(2, 1).passed
    assert runs == [2, 2]
    with pytest.raises(OracleError):
        failing.ensure_gates("span", 2)


def test_verdict_at_another_rank_does_not_count(monkeypatch):
    session = Session()
    _failed(session, "serre-radical", {"n": 3, "weight_bound": 4}, "kashiwara")
    runs = _spy(monkeypatch, "verify_serre_radical", "n")
    session.ensure_gates("span", 2)
    assert runs == [2]


def test_serre_radical_run_opens_the_gate(monkeypatch):
    """The suite's own run covers the gate at weight_bound >= 4; after a
    shallower one the gate reruns once, at 4."""
    session = Session()
    assert SUITES["serre-radical"](n=2, session=session).passed
    runs = _spy(monkeypatch, "verify_serre_radical", "weight_bound")
    session.ensure_gates("span", 2)
    assert runs == []
    session = Session()
    assert SUITES["serre-radical"](n=2, weight_bound=3, session=session).passed
    session.ensure_gates("span", 2)
    session.ensure_gates("normalizer", 2)
    assert runs == [4]


def _spy_ladder_gates(monkeypatch):
    """Record the weight of every ladder gate computed, not read from its
    context; one gate covers both branch signs."""
    computed = []
    original = verma._ladder_rank_ok

    def spy(coords, ctx):
        if tuple(coords) not in ctx._rank_gate:
            computed.append(tuple(coords))
        return original(coords, ctx)

    monkeypatch.setattr(verma, "_ladder_rank_ok", spy)
    return computed


def test_normalizer_reuses_the_ladder_gates_of_span(monkeypatch):
    """At rank 2, 7 of normalizer's 8 gate weights are ones span has
    already certified; in one session normalizer computes only the other 1.
    Each gate is computed once, for both branch signs."""
    computed = _spy_ladder_gates(monkeypatch)
    assert suites.verify_normalizer(2, session=Session()).passed
    wanted = set(computed)
    assert len(wanted) == len(computed) == 8
    session = Session()
    assert verify_span(2, session=session).passed
    computed.clear()
    assert suites.verify_normalizer(2, session=session).passed
    assert len(set(computed)) == len(computed) == 1 and set(computed) <= wanted


def test_xyz_suite_counts():
    rep = verify_xyz(3)
    assert rep.passed
    names = [c.name for c in rep.checks]
    assert any(n.startswith("bracket-identity") for n in names)
    assert sum(n.startswith("vanish:") for n in names) == 2


def test_module_algebra_suite_small():
    rep = verify_module_algebra(2)
    assert rep.passed


def test_branch_invariance_meta_check():
    rep = verify_factorization(2, 1)
    names = [c.name for c in rep.checks]
    assert "branch-invariance" in names


def test_branch_invariance_fails_when_the_branches_disagree(monkeypatch):
    """An oracle that fails only on the minus branch makes every check of that
    branch fail, and branch-invariance with them."""
    original = suites.is_zero_in_M

    def one_sided(x, ctx):
        plus, _minus = original(x, ctx)
        return plus, False

    monkeypatch.setattr(suites, "is_zero_in_M", one_sided)
    rep = verify_span(2, 1)
    failed = {c.name: c.witness for c in rep.failures}
    assert failed.pop("branch-invariance", None) == "verdict vectors differ between branches"
    assert failed and all(name.endswith("|sigma=-1") for name in failed)
    assert rep.checks[-1].name == "branch-invariance"


@pytest.mark.parametrize("suite", SUITE_LIST, ids=lambda s: s.name)
def test_only_the_suite_table_decides_which_verdicts_are_kept(suite):
    """A standalone run keeps its own verdict exactly when its suite has a
    gate rule, and one verdict for each gate suite it reran."""
    kw = {"n": suite.min_rank}
    if suite.deg is not None:
        kw[suite.deg] = 1
    session = Session()
    assert suite.fn(**kw, session=session).passed
    own = [suite.name] if suite.gate is not None else []
    assert sorted(key[0] for key in session.verdicts) == sorted([*suite.deps, *own])


def test_failure_paths_record_witnesses():
    rep = VerificationReport("demo", {}, "none")
    rep.record("good", True, "unused")
    rep.record("bad", False, "the witness")
    assert not rep.passed
    assert rep.failures[0].witness == "the witness"
    assert json.loads(rep.to_json())["checks"][0]["witness"] is None


def _spy(monkeypatch, fname, param):
    """Record `param` of every run of the gate suite `fname` a gate starts."""
    runs = []
    original = getattr(suites, fname)

    def spy(*args, **kwargs):
        rep = original(*args, **kwargs)
        runs.append(rep.params[param])
        return rep

    monkeypatch.setattr(suites, fname, spy)
    return runs


def test_full_scope_verdict_at_another_point_is_reused(monkeypatch):
    session = Session()
    assert suites.verify_irreducibility(2, 2, v0=5, session=session).passed
    runs = _spy(monkeypatch, "verify_irreducibility", "n")
    assert suites.verify_f_inverse(2, 2, session=session).passed
    assert runs == []


def test_failing_full_scope_verdict_closes_the_inverse_gate():
    session = Session()
    params = {"n": 2, "max_deg": 2, "word_limit": 200, "out_of_scope": 0}
    _failed(session, "irreducibility", dict(params, points=["2", "3"]), "numeric(sigma=both)")
    _passed(session, "irreducibility", dict(params, points=["3", "5"]), "numeric(sigma=both)")
    with pytest.raises(OracleError):
        suites.verify_f_inverse(2, 2, session=session)


@pytest.mark.parametrize("word_limit", [30, 29])
def test_irreducibility_scope_is_the_enumerated_word_limit(monkeypatch, word_limit):
    """Rank checks run exactly on the weights whose enumerated word list is
    nonempty and at most _IRR_WORD_LIMIT long; two rank-3 weights at degree
    2 have 30 words, so the two limits give different scopes."""
    n, max_deg = 3, 2
    monkeypatch.setattr(suites, "_IRR_WORD_LIMIT", word_limit)
    rep = suites.verify_irreducibility(n, max_deg)
    assert rep.params["word_limit"] == word_limit
    want = set()
    for mu in suites._rank_weights(n, max_deg):
        if not any(c > 0 for c in mu) and sum(-c for c in mu) > max_deg + 1:
            continue
        words = fwords_of_weight(mu, n)
        if words and len(words) <= word_limit:
            for p in suites._check_points(2):
                for s in (1, -1):
                    want.add("rank:mu=%s,v0=%s|sigma=%+d" % (list(mu), p, s))
    assert rep.passed
    assert {c.name for c in rep.checks if c.name.startswith("rank:")} == want


@pytest.mark.parametrize(
    "n,max_deg,word_limit,count",
    [(2, 4, None, 0), (3, 4, None, 33), (3, 2, 30, 6), (3, 2, 29, 8), (2, 4, 5, 13)],
)
def test_irreducibility_reports_the_weights_beyond_the_word_limit(monkeypatch, n, max_deg, word_limit, count):
    """``out_of_scope`` is the number of rank weights with more words than
    the word limit, the suite's own or a patched one; the two rank-3 weights
    of 30 words at degree 2 are out of scope at 29 and in scope at 30."""
    if word_limit is not None:
        monkeypatch.setattr(suites, "_IRR_WORD_LIMIT", word_limit)
    rep = suites.verify_irreducibility(n, max_deg)
    limit = rep.params["word_limit"]
    beyond = [mu for mu in suites._rank_weights(n, max_deg) if suites.fword_count(mu, n) > limit]
    assert rep.params["out_of_scope"] == len(beyond) == count
    assert rep.passed


def test_irreducibility_ranks_slices_up_to_the_suite_word_limit(monkeypatch):
    """The suite's word limit alone bounds the ranks: at 500 the weight
    (-2, 0, -2) has 420 words and is ranked, not refused."""
    assert suites.fword_count((-2, 0, -2), 3) == 420
    monkeypatch.setattr(suites, "_IRR_WORD_LIMIT", 500)
    rep = suites.verify_irreducibility(3, 3)
    assert rep.passed
    assert len(rep.checks) == 209
    names = {c.name for c in rep.checks}
    for s in ("+1", "-1"):
        assert "rank:mu=[-2, 0, -2],v0=3|sigma=%s" % s in names


def test_irreducibility_enumerates_no_weight_above_the_word_limit(monkeypatch):
    """The suite decides the scope before any enumeration: at rank 3 and
    degree 4 some rank weights have more than _IRR_WORD_LIMIT words, and
    no word list of one of them is ever built."""
    n, limit = 3, suites._IRR_WORD_LIMIT
    assert any(suites.fword_count(mu, n) > limit for mu in suites._rank_weights(n, 4))
    enumerate_words, seen = verma.fwords_of_weight, []

    def bounded(coords, rank):
        assert suites.fword_count(coords, rank) <= limit, coords
        seen.append(coords)
        return enumerate_words(coords, rank)

    monkeypatch.setattr(verma, "fwords_of_weight", bounded)
    assert suites.verify_irreducibility(n, 4).passed
    assert seen


def test_irreducibility_ranks_in_the_specialized_contexts():
    """The numeric points are evaluations in the one sign-free specialized
    context of the rank, not contexts of their own, and both branch signs
    share it."""
    session = Session()
    rep = suites.verify_irreducibility(2, 2, session=session)
    assert rep.passed
    assert set(session.contexts) == {(2, suites.SpecMode.specialized())}
    ranks = [c.name for c in rep.checks if c.name.startswith("rank:")]
    assert ranks and {name.rsplit("|", 1)[1] for name in ranks} == {"sigma=+1", "sigma=-1"}


def test_irreducibility_walks_each_diagonal_once_for_both_signs(monkeypatch):
    """At rank 3 and degree 4 the 35 diagonal pairings are the suite's only
    engine walks, one per basis monomial, each giving both signs' values."""
    calls = []
    original = verma._evaluate

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(verma, "_evaluate", counted)
    assert suites.verify_irreducibility(3, 4).passed
    assert len(calls) == 35


def _spy_invariant_dims(monkeypatch):
    return _spy(monkeypatch, "verify_invariant_dims", "max_deg")


def test_covering_dims_verdict_at_a_higher_degree_is_reused(monkeypatch):
    session = Session()
    assert suites.verify_invariant_dims(2, 3, session=session).passed
    runs = _spy_invariant_dims(monkeypatch)
    assert suites.verify_star(2, 1, session=session).passed
    assert runs == []


def test_star_gate_reruns_without_a_covering_dims_verdict(monkeypatch):
    session = Session()
    assert suites.verify_invariant_dims(2, 1, session=session).passed
    runs = _spy_invariant_dims(monkeypatch)
    assert suites.verify_star(2, 1, session=session).passed
    assert runs == [2]


def test_failing_covering_dims_verdict_closes_the_star_gate():
    session = Session()
    _failed(session, "invariant-dims", {"n": 2, "max_deg": 4}, "symbolic")
    _passed(session, "invariant-dims", {"n": 2, "max_deg": 6}, "symbolic")
    with pytest.raises(OracleError):
        suites.verify_star(2, 2, session=session)


# gate suite -> the module-level name its gate rule reruns
GATE_FUNCTIONS = {s.name: SUITES[s.name].__name__ for s in SUITE_LIST if s.gate is not None}


@pytest.mark.parametrize("name", sorted(s.name for s in SUITE_LIST if s.deps))
def test_a_standalone_suite_reruns_exactly_its_gates(monkeypatch, name):
    """Without a session, a gated suite runs each suite it depends on once,
    in dependency order, and no other."""
    reruns = []
    for dep, fname in GATE_FUNCTIONS.items():
        original = getattr(suites, fname)

        def spy(*args, _dep=dep, _original=original, **kwargs):
            reruns.append(_dep)
            return _original(*args, **kwargs)

        monkeypatch.setattr(suites, fname, spy)
    assert SUITES[name](n=2, max_deg=1).passed
    assert reruns == list(SUITE_BY_NAME[name].deps)
