"""Weight-graded braid representation: dimensions, relations, traces."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flowloop import InputError, VerificationError, XSeries, parse_braid
from flowloop import lawrence
from flowloop.braid import analyze
from flowloop.lawrence import (
    HALF,
    UNDER,
    GradedMatrix,
    generator_matrix,
    graded_trace,
    rep_matrix,
    truncated_trace,
    unknot_closure_check,
    weight_states,
)
from flowloop.lawrence import _triangular_inverse

from conftest import POSITIVE_KNOTS, xs

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


# ---------------------------------------------------------------------------
# truncated closed-walk traces against the exact matrix product


def assert_truncated_trace_exact(word, order):
    trunc = 2 * order + 1
    for m in range(order + 3):
        want = rep_matrix(word, m).trace().truncate(trunc)
        assert truncated_trace(word, m, trunc) == want, m




@pytest.mark.parametrize("text", POSITIVE_KNOTS)
def test_truncated_trace_matches_rep_matrix(text):
    word = parse_braid(text)
    for order in ((3, 5) if word.n > 2 else (3, 6, 9)):
        assert_truncated_trace_exact(word, order)


@st.composite
def positive_knot_words(draw):
    """All-positive words on <= 4 strands and <= 7 letters.  Every column
    appears once (so the closure is a knot), plus pairs of one column at
    any two places (most of those keep it a knot)."""
    n = draw(st.integers(min_value=2, max_value=4))
    cols = list(draw(st.permutations(range(1, n))))
    for _ in range(draw(st.integers(0, (7 - (n - 1)) // 2))):
        c = draw(st.integers(min_value=1, max_value=n - 1))
        for _ in range(2):
            cols.insert(draw(st.integers(0, len(cols))), c)
    return parse_braid(f"n={n}; " + " ".join(map(str, cols)))


@settings(max_examples=40, deadline=None)
@given(positive_knot_words(), st.integers(min_value=0, max_value=3))
def test_random_truncated_traces(word, order):
    assume(analyze(word).closure_components == 1)
    assert_truncated_trace_exact(word, order)


def test_truncated_trace_refuses_negative_letters():
    with pytest.raises(InputError, match="n=3; 1 -2 1 -2"):
        truncated_trace(parse_braid("1 -2 1 -2"), 1, 5)


def test_truncated_trace_checks_integrality(monkeypatch):
    half_power = GradedMatrix(2, 1, {(1,): {(1,): XSeries.monomial(1, 1)}})
    monkeypatch.setattr(lawrence, "generator_matrix",
                        lambda n, m, i, sign: half_power)
    with pytest.raises(VerificationError,
                       match=r"n=2; 1 at weight 1 kept half x-powers"):
        truncated_trace(parse_braid("1"), 1, 5)
