import json

import pytest

import qsphere.suites as suites
from qsphere.report import VerificationReport
from qsphere.verma import OracleError
from qsphere.suites import (
    SUITES,
    SUITE_ORDER,
    ensure_serre_gate,
    serre_elements,
    verify_delta_inv,
    verify_factorization,
    verify_harish,
    verify_module_algebra,
    verify_span,
    verify_xyz,
)


def test_registry_is_complete():
    assert set(SUITES) == set(SUITE_ORDER)
    assert len(SUITES) == 12


def test_report_schema():
    rep = verify_delta_inv(2, kmax=2)
    blob = json.loads(rep.to_json())
    assert set(blob) == {"suite", "params", "mode", "checks", "elapsed_ms"}
    for c in blob["checks"]:
        assert set(c) == {"name", "status", "witness"}
        assert c["status"] in ("pass", "fail")
    assert blob["suite"] == "delta-inv"


def test_reports_are_deterministic_modulo_elapsed():
    a = verify_harish(2, 2, "both").to_dict()
    b = verify_harish(2, 2, "both").to_dict()
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b


def test_factorization_suite_small():
    rep = verify_factorization(2, 2, "both")
    assert rep.passed
    # 6 multi-indices => 36 pairs per branch, plus the invariance check
    assert len(rep.checks) == 73


def test_span_suite_small():
    rep = verify_span(2, 2, "+1")
    assert rep.passed


def test_serre_elements_inventory():
    labels = [l for l, _ in serre_elements(3)]
    assert "serre[f2,f1]" in labels
    assert "serre[f2,f3]" in labels
    assert "serre[f3,f2]" in labels
    assert "comm[f1,fdelta]" in labels
    assert "comm[f1,f3]" in labels


def test_serre_gate_blocks_oracle_suites(monkeypatch):
    monkeypatch.setitem(suites._GATE_CACHE, 2, False)
    with pytest.raises(OracleError):
        ensure_serre_gate(2)
    with pytest.raises(OracleError):
        verify_span(2, 1)


def test_xyz_suite_counts():
    rep = verify_xyz(3, triples=30, seed=1)
    assert rep.passed
    names = [c.name for c in rep.checks]
    assert any(n.startswith("bracket-identity") for n in names)
    assert sum(n.startswith("vanish:") for n in names) == 2


def test_module_algebra_suite_small():
    rep = verify_module_algebra(2, cases=40, seed=3)
    assert rep.passed


def test_branch_invariance_meta_check():
    rep = verify_factorization(2, 1, "both")
    names = [c.name for c in rep.checks]
    assert "branch-invariance" in names
    rep_single = verify_factorization(2, 1, "+1")
    assert "branch-invariance" not in [c.name for c in rep_single.checks]


def test_failure_paths_record_witnesses():
    rep = VerificationReport("demo", {}, "none")
    rep.record("good", True, "unused")
    rep.record("bad", False, "the witness")
    assert not rep.passed
    assert rep.failures[0].witness == "the witness"
    assert json.loads(rep.to_json())["checks"][0]["witness"] is None


def _spy_irreducibility(monkeypatch):
    """Record the word_limit of every irreducibility run the gate starts."""
    runs = []
    original = suites.verify_irreducibility

    def spy(*args, **kwargs):
        rep = original(*args, **kwargs)
        runs.append(rep.params["word_limit"])
        return rep

    monkeypatch.setattr(suites, "verify_irreducibility", spy)
    return runs


def test_narrowed_irreducibility_run_does_not_open_the_inverse_gate(monkeypatch):
    monkeypatch.setattr(suites, "_IRR_GATE", {})
    rep = suites.verify_irreducibility(2, 2, word_limit=0)
    assert rep.passed and not any(c.name.startswith("rank:") for c in rep.checks)
    runs = _spy_irreducibility(monkeypatch)
    assert suites.verify_f_inverse(2, 2).passed
    assert runs == [200]


def test_full_scope_verdict_at_another_point_is_reused(monkeypatch):
    monkeypatch.setattr(suites, "_IRR_GATE", {})
    assert suites.verify_irreducibility(2, 2, v0=5).passed
    runs = _spy_irreducibility(monkeypatch)
    assert suites.verify_f_inverse(2, 2).passed
    assert runs == []


def test_failing_full_scope_verdict_closes_the_inverse_gate(monkeypatch):
    monkeypatch.setattr(suites, "_IRR_GATE", {(2, 2, (1, -1), 2, 200): False, (2, 2, (1, -1), 3, 200): True})
    with pytest.raises(OracleError):
        suites.verify_f_inverse(2, 2)
