"""Weight-graded braid representation: dimensions, relations, traces."""

import math

import pytest

from flowloop import VerificationError, parse_braid
from flowloop import lawrence
from flowloop.lawrence import (
    HALF,
    UNDER,
    GradedMatrix,
    generator_matrix,
    graded_trace,
    rep_matrix,
    unknot_closure_check,
    weight_states,
)
from flowloop.lawrence import _triangular_inverse

from conftest import xs

CONVENTIONS = (HALF, UNDER)


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("m", range(0, 6))
def test_dimension_formula(n, m):
    states = weight_states(n, m)
    assert len(states) == math.comb(m + n - 2, m)
    assert len(set(states)) == len(states)
    assert all(len(s) == n - 1 and sum(s) == m for s in states)
    assert list(states) == sorted(states)  # lex order is part of the contract


@pytest.mark.parametrize("conv", CONVENTIONS)
@pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (4, 2), (4, 4)])
def test_generators_preserve_weight(conv, n, m):
    sector = set(weight_states(n, m))
    for i in range(1, n):
        g = generator_matrix(n, m, i, +1, conv)
        for src, col in g.cols.items():
            assert src in sector
            assert set(col) <= sector


@pytest.mark.parametrize("conv", CONVENTIONS)
@pytest.mark.parametrize("n,m", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_braid_relation(conv, n, m):
    g1 = generator_matrix(n, m, 1, +1, conv)
    g2 = generator_matrix(n, m, 2, +1, conv)
    assert g1.after(g2).after(g1).cols == g2.after(g1).after(g2).cols


@pytest.mark.parametrize("conv", CONVENTIONS)
def test_far_commutation(conv):
    g1 = generator_matrix(4, 3, 1, +1, conv)
    g3 = generator_matrix(4, 3, 3, +1, conv)
    assert g1.after(g3).cols == g3.after(g1).cols


@pytest.mark.parametrize("conv", CONVENTIONS)
@pytest.mark.parametrize("n,m", [(2, 4), (3, 3), (4, 2)])
def test_inverse_generator(conv, n, m):
    ident = GradedMatrix.identity(n, m).cols
    for i in range(1, n):
        g = generator_matrix(n, m, i, +1, conv)
        gi = generator_matrix(n, m, i, -1, conv)
        assert g.after(gi).cols == ident
        assert gi.after(g).cols == ident


def test_triangular_inverse_matches_mirror():
    # the Neumann-series fallback must reproduce the mirror-symmetry inverse
    g = generator_matrix(3, 2, 1, +1, HALF)
    direct = generator_matrix(3, 2, 1, -1, HALF)
    assert _triangular_inverse(g).cols == direct.cols


def test_failed_mirror_check_raises(monkeypatch):
    monkeypatch.setattr(lawrence, "_mirror_ok", {HALF: False})
    monkeypatch.setattr(lawrence, "_gen_cache", {})
    with pytest.raises(VerificationError, match="'half'"):
        generator_matrix(3, 2, 1, -1)


def test_rep_matrix_word_inverse_collapses():
    w = parse_braid("1 -1")
    assert rep_matrix(w, 3).cols == GradedMatrix.identity(2, 3).cols


def test_trefoil_traces_frozen():
    tr = graded_trace(parse_braid("1 1 1"), 2)
    assert tr[0] == xs({0: {0: 1}})
    assert tr[1] == xs({6: {6: -1}})    # -q^3 x^3
    assert tr[2] == xs({12: {18: 1}})   # +q^9 x^6


def test_trace_convention_independent():
    w = parse_braid("1 -2 1 -2")
    assert graded_trace(w, 3) == graded_trace(w, 3, UNDER)


@pytest.mark.parametrize("text", ["1", "n=3; 1 2", "1 1 1"])
def test_unknot_specialization_collapses(text):
    out = unknot_closure_check(parse_braid(text), 6)
    assert out == xs({0: {0: 1}, 2: {0: -1}}, trunc=13)  # 1 - z
