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
raises `VerificationError`, which signals a bug, unless it is a
stabilization guard firing at a cutoff `cap` the caller set below the
default.

`template`, `verify` and `verma` load on first use: their public names
resolve through the module `__getattr__` below, so `import flowloop` and
a `zhat` call never load them.
"""

import importlib

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
from .zhat import (
    REFERENCE_MODELS,
    ZhatResult,
    phi_homogeneous,
    phi_positive,
    reference_series,
    zhat,
)

__version__ = "0.1.0"

# the public names of the submodules that load on first use: a cold
# `flowloop zhat` needs none of them
_LAZY = {
    "Orbit": "template",
    "Strip": "template",
    "Template": "template",
    "build_template": "template",
    "enumerate_orbits": "template",
    "zeta_classical": "template",
    "run_suite": "verify",
    "suite_names": "verify",
    "kohno_check": "verma",
    "r_entry": "verma",
    "tensor_action": "verma",
    "tensor_trace": "verma",
}


def __getattr__(name):
    """Resolve a lazy public name from its submodule on every access (PEP
    562), without caching it here, so that rebinding the submodule's
    attribute rebinds this name too."""
    sub = _LAZY.get(name)
    if sub is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{sub}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


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
