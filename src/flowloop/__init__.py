"""Exact flow-loop counts and BPS q-series for homogeneous braid closures.

The package computes, in exact integer arithmetic, the loop-counting
series Phi(x, q) of the return flow of a homogeneous braid closure, its
BPS normalization, the weight-graded braid representations behind it,
the dual classical invariant (Alexander polynomial via two independent
routes), and the q = 1 template dynamics (orbits and zeta function).

Quick start::

    from flowloop import parse_braid, zhat
    res = zhat(parse_braid("1 -2 1 -2"), order=5)
    print(res.zhat.render(tail=True))

Everything is pure Python with integer coefficients; no environment
variable changes what is computed or how.  Malformed or out-of-range
input raises `ParseError` or `InputError`; a failed internal cross-check
raises `VerificationError`, which always signals a bug.
"""

from .braid import (
    BraidStats,
    BraidWord,
    alexander_classical,
    analyze,
    parse_braid,
    render_word,
)
from .errors import InputError, ParseError, VerificationError
from .lawrence import (
    HALF,
    UNDER,
    GradedMatrix,
    generator_matrix,
    graded_trace,
    rep_matrix,
    unknot_closure_check,
)
from .ring import (
    Framing,
    QLaurent,
    XSeries,
    period_doubling_identity,
    qbinom,
    qtrinom,
    saddle_node_identity,
)
from .template import (
    Orbit,
    Strip,
    Template,
    build_template,
    enumerate_orbits,
    zeta_classical,
)
from .verify import run_suite, suite_names
from .verma import kohno_check, r_entry, tensor_action, tensor_trace
from .zhat import (
    REFERENCE_MODELS,
    ZhatResult,
    phi_homogeneous,
    phi_positive,
    reference_series,
    zhat,
)

__version__ = "0.1.0"


__all__ = [
    "BraidStats",
    "BraidWord",
    "Framing",
    "GradedMatrix",
    "HALF",
    "InputError",
    "Orbit",
    "ParseError",
    "QLaurent",
    "REFERENCE_MODELS",
    "Strip",
    "Template",
    "UNDER",
    "VerificationError",
    "XSeries",
    "ZhatResult",
    "alexander_classical",
    "analyze",
    "build_template",
    "enumerate_orbits",
    "generator_matrix",
    "graded_trace",
    "kohno_check",
    "parse_braid",
    "period_doubling_identity",
    "phi_homogeneous",
    "phi_positive",
    "qbinom",
    "qtrinom",
    "r_entry",
    "reference_series",
    "render_word",
    "rep_matrix",
    "run_suite",
    "saddle_node_identity",
    "suite_names",
    "tensor_action",
    "tensor_trace",
    "unknot_closure_check",
    "zeta_classical",
    "zhat",
    "__version__",
]
