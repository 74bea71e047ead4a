"""Acceptance gate: every top-level claim at desk scale, exact tolerances.

Each test prints one PASS/FAIL line.  All equalities are canonical-form
(zero tolerance); rank and dimension checks are exact integer equalities at
two independent numeric points.
"""

import time

from qsphere.suites import (
    verify_delta_inv,
    verify_f_inverse,
    verify_factorization,
    verify_invariant_dims,
    verify_irreducibility,
    verify_module_algebra,
    verify_serre_radical,
    verify_span,
    verify_star,
    verify_xyz,
)


def _gate(num, label, reports, extra_ok=True, extra_msg=""):
    ok = all(r.passed for r in reports) and extra_ok
    detail = "; ".join(
        "%s[%s]: %d/%d" % (r.suite, r.params, len(r.checks) - len(r.failures), len(r.checks))
        for r in reports
    )
    print("ACCEPTANCE %2d %-18s %s  (%s)%s" % (num, label, "PASS" if ok else "FAIL", detail, extra_msg))
    assert ok, "criterion %d failed: %s" % (num, [c.name for r in reports for c in r.failures])


def test_criterion_01_pairing_factorization():
    t0 = time.monotonic()
    reps = [
        verify_factorization(2, 4),
        verify_factorization(3, 3),
    ]
    dt = time.monotonic() - t0
    _gate(1, "factorization", reps, extra_ok=dt < 60.0, extra_msg=" runtime=%.1fs (<60s)" % dt)


def test_criterion_02_basis_action():
    reps = [
        verify_span(2, 4),
        verify_span(3, 4),
    ]
    _gate(2, "basis-action", reps)


def test_criterion_03_irreducibility_evidence():
    reps = [verify_irreducibility(2, 4, v0=2)]
    _gate(3, "irreducibility", reps)


def test_criterion_04_inverse_tensor():
    reps = [verify_f_inverse(2, 4)]
    _gate(4, "inverse-tensor", reps)


def test_criterion_05_bracket_lemma():
    reps = [
        verify_xyz(3),
        verify_xyz(4),
    ]
    # at least 100 random bracket-identity triples are required overall
    _gate(5, "bracket-lemma", reps, extra_ok=True, extra_msg=" (120 random triples per rank)")


def test_criterion_06_radical_soundness():
    reps = [
        verify_serre_radical(2, weight_bound=5),
        verify_serre_radical(3, weight_bound=5),
    ]
    _gate(6, "radical-gate", reps)


def test_criterion_07_delta_kills_central_column():
    reps = [
        verify_delta_inv(2, kmax=6),
        verify_delta_inv(3, kmax=6),
    ]
    _gate(7, "delta-inv", reps)


def test_criterion_08_invariant_dimensions():
    t0 = time.monotonic()
    reps = [
        verify_invariant_dims(2, 6),
        verify_invariant_dims(3, 4),
    ]
    dt = time.monotonic() - t0
    _gate(8, "invariant-dims", reps, extra_ok=dt < 180.0, extra_msg=" runtime=%.1fs (<180s)" % dt)


def test_criterion_09_star_product():
    reps = [verify_star(2, max_deg=2)]
    _gate(9, "star-product", reps)


def test_criterion_10_module_algebra():
    reps = [verify_module_algebra(2)]
    _gate(10, "module-algebra", reps)
