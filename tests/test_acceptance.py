"""Acceptance suite: ten numbered end-to-end criteria, checked at exact
equality, each reporting one `criterion N: PASS/FAIL` line.  Runtime
budgets are asserted where a criterion carries one.

Run with `pytest tests/test_acceptance.py -v` (the lines are written
through the terminal reporter, so they show up even under capture).
"""

import json
import time
from contextlib import contextmanager

import pytest

from flowloop import (
    Framing,
    GradedMatrix,
    QLaurent,
    analyze,
    kohno_check,
    parse_braid,
    period_doubling_identity,
    phi_homogeneous,
    phi_positive,
    reference_series,
    saddle_node_identity,
    unknot_closure_check,
    zeta_classical,
    zhat,
)
from flowloop.braid import alexander_classical
from flowloop.cli import main
from flowloop.lawrence import HALF, UNDER, generator_matrix, weight_states

from conftest import CORPUS, xs

TREFOIL_PHI_LINE = (
    "phi: 1 - q*x^2 - q^2*x^3 + q^5*x^5 + q^7*x^6 - q^12*x^8 - q^15*x^9"
    " + O(x^11)"
)


@contextmanager
def criterion(announce, num, budget=None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        announce(f"criterion {num}: FAIL")
        raise
    dt = time.monotonic() - t0
    if budget is not None and dt > budget:
        announce(f"criterion {num}: FAIL ({dt:.2f}s over {budget}s budget)")
        raise AssertionError(f"criterion {num} took {dt:.2f}s > {budget}s")
    announce(f"criterion {num}: PASS ({dt:.2f}s)")


def dispatch_phi(word, order, **kw):
    if analyze(word).cr_minus == 0:
        return phi_positive(word, order, **kw)
    return phi_homogeneous(word, order, **kw)


def test_criterion_01_trefoil_series_via_cli(announce, capsys):
    with criterion(announce, 1, budget=1.0):
        code = main(["zhat", "--braid", "1 1 1", "--order", "10"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert "prefactor: -1 * q^(2/2) * x^(1/2)" in lines
        assert TREFOIL_PHI_LINE in lines


def test_criterion_02_figure_eight_series_via_cli(announce, capsys):
    with criterion(announce, 2, budget=5.0):
        code = main(
            ["zhat", "--braid", "1 -2 1 -2", "--order", "3",
             "--format", "json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["prefactor"] == {
            "sign": 1, "q_exp_half": 0, "x_exp_half": 1,
        }
        phi = {row["x_exp_half"]: row["coeff"] for row in doc["phi"]}
        assert phi[2] == [{"q_exp_half": 0, "value": "2"}]
        assert phi[4] == [
            {"q_exp_half": -2, "value": "1"},
            {"q_exp_half": 0, "value": "3"},
            {"q_exp_half": 2, "value": "1"},
        ]
        assert phi[6] == [
            {"q_exp_half": -4, "value": "2"},
            {"q_exp_half": -2, "value": "2"},
            {"q_exp_half": 0, "value": "5"},
            {"q_exp_half": 2, "value": "2"},
            {"q_exp_half": 4, "value": "2"},
        ]


def test_criterion_03_closed_form_models(announce):
    with criterion(announce, 3):
        tre = phi_positive(parse_braid("1 1 1"), 10)
        assert tre == reference_series("trefoil_braid", 10)
        assert tre == reference_series("trefoil_direct", 10)
        fig = phi_homogeneous(parse_braid("1 -2 1 -2"), 4)
        assert fig == reference_series("fig8_braid", 4)
        assert fig == reference_series("fig8_direct", 4)


def test_criterion_04_classical_limit_on_corpus(announce):
    with criterion(announce, 4, budget=5.0):
        for text in CORPUS:
            w = parse_braid(text)
            # alexander_classical raises unless its two routes agree
            _, inv = alexander_classical(w, 8)
            assert dispatch_phi(w, 8).specialize_q1() == inv, text


def test_criterion_05_representation_soundness(announce):
    import math

    with criterion(announce, 5, budget=30.0):
        for conv in (HALF, UNDER):
            for n in range(2, 5):
                for m in range(0, 5):
                    states = weight_states(n, m)
                    assert len(states) == math.comb(m + n - 2, m)
                    sector = set(states)
                    ident = GradedMatrix.identity(n, m).cols
                    gens = {
                        i: generator_matrix(n, m, i, +1, conv)
                        for i in range(1, n)
                    }
                    for i, g in gens.items():
                        for src, col in g.cols.items():
                            assert src in sector and set(col) <= sector
                        gi = generator_matrix(n, m, i, -1, conv)
                        assert g.after(gi).cols == ident
                        assert gi.after(g).cols == ident
                    for i in range(1, n - 1):
                        a, b = gens[i], gens[i + 1]
                        assert (
                            a.after(b).after(a).cols
                            == b.after(a).after(b).cols
                        )
                    for i in range(1, n):
                        for j in range(i + 2, n):
                            a, b = gens[i], gens[j]
                            assert a.after(b).cols == b.after(a).cols


def test_criterion_06_unknot_collapse(announce):
    with criterion(announce, 6):
        one_minus_z = xs({0: {0: 1}, 2: {0: -1}}, trunc=13)
        for text in ("1", "n=3; 1 2", "1 1 1"):
            got = unknot_closure_check(parse_braid(text), 6)
            assert got == one_minus_z, text


def test_criterion_07_graded_trace_identity(announce):
    with criterion(announce, 7, budget=60.0):
        for text in CORPUS:
            w = parse_braid(text)
            if w.n > 3:
                continue
            ok, lhs, rhs = kohno_check(w, 3)
            assert ok and lhs == rhs, text


def test_criterion_08_framing_identities(announce):
    with criterion(announce, 8):
        one = xs({0: {0: 1}}, trunc=25)
        for half in (-2, -1, 0, 1, 2, 4):
            f = Framing(half)
            assert saddle_node_identity(f, 12) == one, f.render()
            lhs, rhs = period_doubling_identity(f, 12)
            assert lhs == rhs, f.render()


def test_criterion_09_stabilization_and_zeta(announce):
    with criterion(announce, 9):
        a = zhat(parse_braid("1 1 1"), 8)
        b = zhat(parse_braid("1 1 1 2"), 8)
        assert a.prefactor == b.prefactor
        assert a.zhat == b.zhat
        for text in CORPUS:
            w = parse_braid(text)
            assert zeta_classical(w, 8) == dispatch_phi(w, 8).specialize_q1()


def test_criterion_10_cutoff_insensitivity(announce):
    with criterion(announce, 10):
        for text in CORPUS:
            w = parse_braid(text)
            if analyze(w).cr_minus == 0:
                base = phi_positive(w, 8, cap=8, stabilize=False)
                high = phi_positive(w, 8, cap=10, stabilize=False)
            else:
                base = phi_homogeneous(w, 8, cap=8, stabilize=False)
                high = phi_homogeneous(w, 8, cap=10, stabilize=False)
            assert base == high, text


# ---------------------------------------------------------------------------
# supplementary: the classical limit is not special to the corpus; two more
# homogeneous knot words of >= 5 crossings against the independent oracle

EXTRA_KNOTS = {
    # cinquefoil closure; Delta frozen by tools/freeze_alexander.py
    "1 1 1 1 1": [1, -1, 1, -1, 1],
    # genus-2 twisted closure in B_3
    "1 1 1 -2 1 -2": [1, -3, 3, -3, 1],
}


@pytest.mark.parametrize("text", sorted(EXTRA_KNOTS))
def test_extra_knots_against_classical_oracle(announce, text):
    w = parse_braid(text)
    delta, inv = alexander_classical(w, 6)
    frozen = EXTRA_KNOTS[text]
    assert delta == xs({2 * i: {0: c} for i, c in enumerate(frozen) if c})
    assert dispatch_phi(w, 6).specialize_q1() == inv
    announce(f"extra knot {text!r}: PASS")
