"""Built-in consistency suites.

Each check is a small self-contained computation with a frozen expected
outcome (classical polynomial, closed-form model, algebraic identity).
They are grouped by module so `flowloop verify --suite lawrence` can be
run after touching one layer without paying for the rest; "all" runs
every suite in dependency order.  run_suite times each check into
CheckResult.seconds, which `flowloop verify --format json` prints and
render() leaves out.
"""

import time
from dataclasses import dataclass, field

from . import braid, lawrence, template, verma
from .errors import InputError, VerificationError
from .zhat import (
    phi_homogeneous,
    phi_positive,
    reference_series,
    zhat as _compute_zhat,
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


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str
    # wall time of the check; render() leaves it out, so the rendered
    # line of a check is the same on every run
    seconds: float = field(default=0.0, compare=False)

    def render(self):
        mark = "ok  " if self.ok else "FAIL"
        return f"{mark} {self.suite}.{self.name}: {self.detail}"


def _need(cond, msg):
    if not cond:
        raise VerificationError(msg)


def _ql(pairs):
    return QLaurent(dict(pairs))


def _xs(pairs, trunc):
    return XSeries({x: _ql(q) for x, q in pairs}, trunc)


# ---------------------------------------------------------------------------
# ring

def _check_gaussian():
    _need(qbinom(2, 1) == _ql([(0, 1), (2, 1)]), "[2;1] != 1+q")
    _need(qbinom(-1, 2) == _ql([(-6, 1)]), "[-1;2] != q^-3")
    _need(qbinom(3, 5).is_zero, "[3;5] != 0")
    _need(qtrinom(2, 1, 1, 0) == _ql([(0, 1), (2, 1)]), "[2;1,1,0] != 1+q")
    want = _ql([(0, 1), (2, 1)]) * _ql([(0, 1), (2, 1), (4, 1)])
    _need(qtrinom(3, 1, 1, 1) == want, "[3;1,1,1] != (1+q)(1+q+q^2)")
    _need(qtrinom(2, 1, 1, 1).is_zero, "inconsistent trinomial != 0")
    return "binomials and trinomials match frozen values"


def _check_exact_div():
    a = _ql([(-3, 2), (0, -1), (4, 5)])
    b = _ql([(-1, 1), (2, 3)])
    _need((a * b).exact_div(b) == a, "division does not undo multiplication")
    _need((a * a * b).exact_div(a) == a * b, "repeated factor quotient wrong")
    try:
        (a * b + 1).exact_div(b)
    except VerificationError:
        pass
    else:
        raise VerificationError("inexact quotient did not raise")
    return "exact division round-trips and rejects remainders"


def _check_series_inverse():
    p = {0: 1, 2: -1, 4: -1}  # 1 - x - x^2
    quot = braid._axis_quotient(1, p, 6)
    _need(quot * XSeries(p) == XSeries({0: 1, 2: -1}, 13),
          "((1 - x)/p) * p != 1 - x")
    return "series inversion round-trips at order 6"


def _check_saddle_node():
    for half in (-2, -1, 0, 1, 2, 4):
        got = saddle_node_identity(Framing(half), 12)
        _need(
            got == XSeries.one(25),
            f"saddle-node sum at framing {half}/2 is {got.render()}",
        )
    return "pair-creation sum collapses to 1 for six framings"


def _check_period_doubling():
    for half in (-2, -1, 0, 1, 2, 4):
        lhs, rhs = period_doubling_identity(Framing(half), 12)
        _need(
            lhs == rhs,
            f"period-doubling split differs at framing {half}/2",
        )
    return "even/odd split matches for six framings"


# ---------------------------------------------------------------------------
# braid

_TREFOIL = "1 1 1"
_FIG8 = "1 -2 1 -2"

_ALEXANDER_FROZEN = {
    # classical Alexander polynomials, normalized to lowest term +1
    "1": ((0, 1),),
    "1 1 1": ((0, 1), (2, -1), (4, 1)),
    "1 1 1 2": ((0, 1), (2, -1), (4, 1)),
    "1 -2 1 -2": ((0, 1), (2, -3), (4, 1)),
    "1 1 1 1 1": ((0, 1), (2, -1), (4, 1), (6, -1), (8, 1)),
}


def _check_parse():
    for text in ("1 1 1", "n=3; 1 -2 1 -2", "1, 2, 1"):
        word = braid.parse_braid(text)
        _need(
            braid.parse_braid(braid.render_word(word)) == word,
            f"render/parse round-trip failed for {text!r}",
        )
    for bad in ("", "0", "n=3; 3", "n=2; x", "n=1; 1"):
        try:
            braid.parse_braid(bad)
        except braid.ParseError:
            continue
        raise VerificationError(f"malformed input {bad!r} was accepted")
    return "round-trips and rejections behave"


def _check_stats():
    s = braid.analyze(braid.parse_braid(_TREFOIL))
    _need(
        (s.n, s.c, s.writhe, s.cr_minus, s.col_minus) == (2, 3, 3, 0, 0),
        "trefoil stats wrong",
    )
    _need(s.genus == 1 and s.closure_components == 1, "trefoil genus wrong")
    s = braid.analyze(braid.parse_braid(_FIG8))
    _need(
        (s.n, s.c, s.writhe, s.cr_minus, s.col_minus) == (3, 4, 0, 2, 1),
        "figure-eight stats wrong",
    )
    _need(s.genus == 1, "figure-eight genus wrong")
    s = braid.analyze(braid.parse_braid("1 -1"))
    _need(not s.is_homogeneous, "mixed column not detected")
    return "writhe, signs, genus, components as frozen"


def _check_alexander():
    for text, pairs in _ALEXANDER_FROZEN.items():
        word = braid.parse_braid(text)
        delta, inv = braid.alexander_classical(word, order=6)
        want = _xs([(x, [(0, c)]) for x, c in pairs], None)
        _need(
            delta == want,
            f"Delta({text}) = {delta.render()} != {want.render()}",
        )
        _need(inv.coeff(0) == 1, f"inverse series of {text} missing 1")
    return f"{len(_ALEXANDER_FROZEN)} knots match the classical table"


def _check_inverse_series():
    word = braid.parse_braid(_FIG8)
    _, inv = braid.alexander_classical(word, order=4)
    want = _xs(
        [(0, [(0, 1)]), (2, [(0, 2)]), (4, [(0, 5)]),
         (6, [(0, 13)]), (8, [(0, 34)])],
        9,
    )
    _need(inv == want, f"(1-x)/Delta for {_FIG8} = {inv.render()}")
    return "figure-eight inverse series matches 1,2,5,13,34"


# ---------------------------------------------------------------------------
# lawrence

def _check_dims():
    for n in range(2, 6):
        for m in range(6):
            _need(
                len(lawrence.weight_states(n, m)) == lawrence.dim(n, m),
                f"state count != dim at (n,m)=({n},{m})",
            )
    return "state counts match binomial dimensions up to n=5, m=5"


def _check_mirror():
    for conv in (lawrence.HALF, lawrence.UNDER):
        _need(
            lawrence._mirror_validated(conv),
            f"mirrored inverse fails for convention {conv}",
        )
    return "mirrored generators invert for both conventions"


def _check_triangular():
    mirror = lawrence.generator_matrix(3, 2, 1, -1)
    direct = lawrence._triangular_inverse(
        lawrence.generator_matrix(3, 2, 1, +1)
    )
    _need(mirror == direct, "triangular inverse != mirrored inverse")
    return "triangular fallback agrees with the mirror at (3,2)"


def _check_far_commutation():
    a = lawrence.generator_matrix(4, 2, 1, +1)
    b = lawrence.generator_matrix(4, 2, 3, +1)
    _need(a.after(b) == b.after(a), "distant generators do not commute")
    return "distant generators commute at (4,2)"


def _check_braid_relation():
    w1 = braid.parse_braid("n=3; 1 2 1")
    w2 = braid.parse_braid("n=3; 2 1 2")
    for m in range(4):
        _need(
            lawrence.rep_matrix(w1, m) == lawrence.rep_matrix(w2, m),
            f"braid relation fails at weight {m}",
        )
    return "braid relation holds through weight 3"


def _check_unknot_collapse():
    for text, z_order in (("1", 6), ("n=3; 1 2", 5)):
        word = braid.parse_braid(text)
        got = lawrence.unknot_closure_check(word, z_order)
        want = _xs([(0, [(0, 1)]), (2, [(0, -1)])], 2 * z_order + 1)
        _need(
            got == want,
            f"unknot specialization of {text!r} is {got.render('z')}",
        )
    return "unknot closures collapse to 1 - z"


# ---------------------------------------------------------------------------
# verma

def _check_braiding_entries():
    got = verma.r_entry(0, 0, 0, 0)
    _need(
        got == XSeries._raw({-1: QLaurent.monomial(1, 1)}, None),
        f"R[00->00] = {got.render()}",
    )
    got = verma.r_entry(1, 0, 0, 1)
    _need(
        got == XSeries._raw({-2: QLaurent.monomial(1, 2)}, None),
        f"R[10->01] = {got.render()}",
    )
    _need(verma.r_entry(1, 1, 0, 0).is_zero, "sector leak in R")
    return "braiding coefficients match frozen values"


def _check_verma_mirror():
    _need(verma._mirror_ok(), "inverse braiding fails")
    return "inverse braiding validated on weights 0..3"


def _check_yang_baxter():
    w1 = braid.parse_braid("n=3; 1 2 1")
    w2 = braid.parse_braid("n=3; 2 1 2")
    for m in range(3):
        a = verma.tensor_action(w1, m)
        b = verma.tensor_action(w2, m)
        _need(a == b, f"Yang-Baxter fails on tensor weight {m}")
    return "Yang-Baxter relation holds through tensor weight 2"


def _check_trace_identity():
    for text in ("1", "1 1 1", "n=3; 1 2"):
        word = braid.parse_braid(text)
        ok, lhs, rhs = verma.kohno_check(word, 3)
        _need(ok, f"trace identity fails for {text!r}: {lhs} vs {rhs}")
    return "tensor traces match summed weight-space traces"


# ---------------------------------------------------------------------------
# zhat

_TREFOIL_PHI = (
    (0, ((0, 1),)),
    (4, ((2, -1),)),
    (6, ((4, -1),)),
    (10, ((10, 1),)),
    (12, ((14, 1),)),
)

_FIG8_PHI = (
    (0, ((0, 1),)),
    (2, ((0, 2),)),
    (4, ((-2, 1), (0, 3), (2, 1))),
    (6, ((-4, 2), (-2, 2), (0, 5), (2, 2), (4, 2))),
)


def _check_models_trefoil():
    a = reference_series("trefoil_braid", 8)
    b = reference_series("trefoil_direct", 8)
    _need(a == b, "trefoil models disagree")
    word = braid.parse_braid(_TREFOIL)
    _need(phi_positive(word, 8) == a, "trace route != trefoil model")
    return "both trefoil models and the trace route agree at order 8"


def _check_models_fig8():
    a = reference_series("fig8_braid", 4)
    b = reference_series("fig8_direct", 4)
    _need(a == b, "figure-eight models disagree")
    word = braid.parse_braid(_FIG8)
    _need(
        phi_homogeneous(word, 4) == a,
        "transfer route != figure-eight model",
    )
    return "both figure-eight models and the transfer route agree at order 4"


def _check_frozen_phi():
    word = braid.parse_braid(_TREFOIL)
    got = phi_positive(word, 6)
    want = _xs(list(_TREFOIL_PHI), 13)
    _need(got == want, f"trefoil loop count = {got.render()}")
    word = braid.parse_braid(_FIG8)
    got = phi_homogeneous(word, 3)
    want = _xs(list(_FIG8_PHI), 7)
    _need(got == want, f"figure-eight loop count = {got.render()}")
    return "leading terms match the frozen series"


def _check_dp_vs_traces():
    for text, order in ((_TREFOIL, 5), ("1 1 1 2", 4)):
        word = braid.parse_braid(text)
        _need(
            phi_homogeneous(word, order)
            == phi_positive(word, order),
            f"transfer and trace routes disagree for {text!r}",
        )
    return "transfer DP equals the trace route on positive words"


def _check_unknot_zhat():
    for text, order in (("1", 5), ("n=3; 1 2", 4)):
        word = braid.parse_braid(text)
        res = _compute_zhat(word, order)
        want = XSeries._raw(
            {-1: QLaurent.monomial(-1, 0), 1: QLaurent.monomial(1, 0)},
            2 * order,
        )
        _need(
            res.zhat == want,
            f"unknot series for {text!r} is {res.zhat.render()}",
        )
    return "unknot words give x^(1/2) - x^(-1/2)"


def _check_classical_limit():
    for text, order in ((_TREFOIL, 6), (_FIG8, 4), ("1 1 1 2", 4),
                        ("n=4; 1 -2 1 -3 -2", 3)):
        word = braid.parse_braid(text)
        _, inv = braid.alexander_classical(word, order)
        _need(
            _compute_zhat(word, order).phi.specialize_q1() == inv,
            f"q=1 loop count != (1-x)/Delta for {text!r}",
        )
    return "q = 1 collapses to (1-x)/Delta on four knots"


# ---------------------------------------------------------------------------
# template

def _check_template_fig8():
    word = braid.parse_braid(_FIG8)
    t = template.build_template(word)
    _need(len(t.strips) == 8, f"figure-eight has {len(t.strips)} strips")
    _need(t.branch_count == 4, "figure-eight branch count wrong")
    _need(t.nullity == 5, f"figure-eight nullity = {t.nullity}")
    return "figure-eight template: 8 strips, 4 branch lines, nullity 5"


def _check_orbit_table():
    word = braid.parse_braid("1 1 1 2")
    t = template.build_template(word)
    got = [o.render() for o in template.enumerate_orbits(t, 2)]
    want = [
        "1 - T4",
        "1 + S3_4 S4_3",
        "2 - S3_4 T4 S4_3",
        "2 - T2 S3_4 S4_2",
    ]
    _need(got == want, f"orbit table through degree 2 is {got}")
    return "orbit table through degree 2 matches the frozen list"


def _check_zeta():
    for text, order in ((_TREFOIL, 4), (_FIG8, 3), ("1 1 1 2", 3),
                        ("n=4; 1 -2 1 -3 -2", 3)):
        word = braid.parse_braid(text)
        _, inv = braid.alexander_classical(word, order)
        got = template.zeta_classical(word, order)
        _need(
            got == inv,
            f"zeta({text!r}) = {got.render()} != {inv.render()}",
        )
    return "orbit zeta equals (1-x)/Delta on four knots"


# ---------------------------------------------------------------------------
# registry

SUITES = {
    "ring": (
        ("gaussian-coefficients", _check_gaussian),
        ("exact-division", _check_exact_div),
        ("series-inverse", _check_series_inverse),
        ("saddle-node", _check_saddle_node),
        ("period-doubling", _check_period_doubling),
    ),
    "braid": (
        ("parse-roundtrip", _check_parse),
        ("closure-stats", _check_stats),
        ("alexander-table", _check_alexander),
        ("inverse-series", _check_inverse_series),
    ),
    "lawrence": (
        ("dimensions", _check_dims),
        ("mirror-inverse", _check_mirror),
        ("triangular-fallback", _check_triangular),
        ("far-commutation", _check_far_commutation),
        ("braid-relation", _check_braid_relation),
        ("unknot-collapse", _check_unknot_collapse),
    ),
    "verma": (
        ("braiding-entries", _check_braiding_entries),
        ("mirror-inverse", _check_verma_mirror),
        ("yang-baxter", _check_yang_baxter),
        ("trace-identity", _check_trace_identity),
    ),
    "zhat": (
        ("trefoil-models", _check_models_trefoil),
        ("fig8-models", _check_models_fig8),
        ("frozen-series", _check_frozen_phi),
        ("transfer-vs-trace", _check_dp_vs_traces),
        ("unknot-normalization", _check_unknot_zhat),
        ("classical-limit", _check_classical_limit),
    ),
    "template": (
        ("fig8-structure", _check_template_fig8),
        ("orbit-table", _check_orbit_table),
        ("zeta-vs-alexander", _check_zeta),
    ),
}


def suite_names():
    return tuple(SUITES) + ("all",)


def run_suite(name):
    """Run one suite (or 'all'); returns a list of CheckResult."""
    if name == "all":
        picked = [(s, c) for s in SUITES for c in SUITES[s]]
    elif name in SUITES:
        picked = [(name, c) for c in SUITES[name]]
    else:
        raise InputError(
            f"unknown suite {name!r}; choose from {', '.join(suite_names())}"
        )
    results = []
    for suite, (check_name, fn) in picked:
        start = time.perf_counter()
        try:
            ok, detail = True, fn()
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(suite, check_name, ok, detail,
                                   time.perf_counter() - start))
    return results
