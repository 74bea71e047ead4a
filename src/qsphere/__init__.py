"""Exact symbolic engine for a quantized even-dimensional sphere.

The package builds the quantized enveloping algebra of the odd orthogonal
series at a distinguished non-classical weight, evaluates its invariant and
contravariant forms exactly, constructs the truncated inverse-form tensor,
realizes the quantum Euclidean plane as a module algebra with a twisted
star product, and mechanically verifies the whole chain of identities at
desk scale.  Entry points: the `qsphere` command line and the suite
functions in `qsphere.suites`.
"""

from .scalars import Scalar, SpecMode, qfact, qnum, theta
from .words import AlgElt, omega, antipode, qbracket, root_vector, weight_of
from .verma import (
    EvalContext,
    OracleError,
    invariant_form,
    is_zero_in_M,
    rank_at,
    shapovalov,
    vacuum_eval,
)
from .ftensor import FTensor, build_F
from .plane import PlanePoly, act, casimir, invariant_subspace, star

__all__ = [
    "Scalar",
    "SpecMode",
    "qfact",
    "qnum",
    "theta",
    "AlgElt",
    "omega",
    "antipode",
    "qbracket",
    "root_vector",
    "weight_of",
    "EvalContext",
    "OracleError",
    "invariant_form",
    "is_zero_in_M",
    "rank_at",
    "shapovalov",
    "vacuum_eval",
    "FTensor",
    "build_F",
    "PlanePoly",
    "act",
    "casimir",
    "invariant_subspace",
    "star",
]

__version__ = "0.1.0"
