"""Degree-truncated inverse of the invariant pairing.

The tensor collects, per multi-index m, a scalar coefficient together with
the twisted raising monomial and the lowering monomial attached to m.  Its
defining property -- contraction against the invariant form acts as the
identity degree by degree -- is verified by the f-inverse suite.
"""

from __future__ import annotations

from .scalars import ONE, Scalar, qfact, theta
from .words import root_factors
from .verma import b_monomial, enumerate_b_indices, expand


class FTensor:
    """Truncated two-sided lift of the inverse invariant form."""

    __slots__ = ("n", "D", "entries", "images")

    def __init__(self, n, D, entries):
        self.n = n
        self.D = D
        self.entries = entries  # list of (m, coeff, epart, fpart)
        # contracted operand images, filled by plane.star for this tensor only
        self.images = {}


def f_coefficient(m, n) -> Scalar:
    """(-theta)^{sum m} prod_i q^{-m_i^2/2 + 2 m_i (i-1)} / prod_i [m_i]_q!"""
    total = sum(m)
    out = (-theta()) ** total if total else ONE
    vexp = 0
    for i, mi in enumerate(m, start=1):
        vexp += -mi * mi + 4 * mi * (i - 1)
    out = out * Scalar.v_power(vexp)
    for mi in m:
        out = out / qfact(mi)
    return out


def build_F(n: int, D: int) -> FTensor:
    if D < 0:
        raise ValueError("truncation degree must be non-negative")
    entries = []
    for m in enumerate_b_indices(n, D):
        epart = expand(root_factors("et_eps", m, n))
        entries.append((m, f_coefficient(m, n), epart, b_monomial(m, n)))
    return FTensor(n, D, entries)
