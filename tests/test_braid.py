"""Braid parsing, closure statistics, and the two Alexander routes."""

import pytest

from flowloop import (
    InputError,
    ParseError,
    QLaurent,
    analyze,
    parse_braid,
    render_word,
)
from flowloop import build_template
from flowloop.braid import (
    _burau_alexander_matrix,
    _det,
    _weight_rep_alexander_matrix,
    alexander_classical,
    closure_permutation,
)
from flowloop.template import zeta_matrix

from conftest import CORPUS, EXTRA_KNOTS, ql, xs


def test_parse_infers_strand_count():
    w = parse_braid("1 -2 1 -2")
    assert (w.n, w.letters) == (3, (1, -2, 1, -2))


def test_parse_explicit_prefix_and_commas():
    w = parse_braid("n=4; 1, -2, 1, -3, -2")
    assert (w.n, w.letters) == (4, (1, -2, 1, -3, -2))
    assert parse_braid("n=3; 1").n == 3  # spare strand allowed


def test_render_roundtrip():
    for text in ("1 1 1", "n=3; 1", "1 -2 1 -3 -2"):
        w = parse_braid(text)
        assert parse_braid(render_word(w)) == w


@pytest.mark.parametrize(
    "bad",
    ["", "  ", "n=1; 1", "0", "1 x 2", "n=2; 2", "n=3; 1 -3"],
)
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_braid(bad)


def test_parse_error_names_token_position():
    with pytest.raises(ParseError, match="token 2"):
        parse_braid("1 q 1")


def test_closure_permutation():
    assert closure_permutation(parse_braid("1 1 1")) == [1, 0]
    assert closure_permutation(parse_braid("1 -2 1 -2")) == [2, 0, 1]


def test_stats_trefoil():
    s = analyze(parse_braid("1 1 1"))
    assert (s.n, s.c, s.writhe) == (2, 3, 3)
    assert (s.cr_minus, s.col_minus) == (0, 0)
    assert s.column_sign == ("+",)
    assert s.is_homogeneous
    assert s.closure_components == 1
    assert s.genus == 1


def test_stats_figure_eight():
    s = analyze(parse_braid("1 -2 1 -2"))
    assert (s.n, s.writhe, s.cr_minus, s.col_minus) == (3, 0, 2, 1)
    assert s.column_sign == ("+", "-")
    assert s.is_homogeneous and s.genus == 1


def test_stats_nonhomogeneous_and_links():
    s = analyze(parse_braid("1 -1"))
    assert not s.is_homogeneous
    assert s.genus is None
    hopf = analyze(parse_braid("1 1"))
    assert hopf.closure_components == 2


def test_stats_empty_column_marked():
    s = analyze(parse_braid("n=3; 1"))
    assert s.column_sign == ("+", "empty")
    assert s.closure_components == 2  # spare strand closes separately


# ---------------------------------------------------------------------------
# Alexander polynomial, both routes (frozen by tools/freeze_alexander.py,
# an independent sympy derivation; alexander_classical itself asserts the
# weight-rep and Burau routes agree before returning).

FROZEN_DELTA = {
    "1": [1],
    "1 1 1": [1, -1, 1],
    "1 1 1 2": [1, -1, 1],
    "1 -2 1 -2": [1, -3, 1],
    "n=4; 1 -2 1 -3 -2": [1, -3, 1],
    "1 1 1 1 1": [1, -1, 1, -1, 1],
    "1 1 1 -2 1 -2": [1, -3, 3, -3, 1],
}


@pytest.mark.parametrize("text", sorted(FROZEN_DELTA))
def test_alexander_matches_frozen(text):
    delta, _ = alexander_classical(parse_braid(text), 4)
    coeffs = FROZEN_DELTA[text]
    expected = xs({2 * i: {0: c} for i, c in enumerate(coeffs) if c})
    assert delta == expected


@pytest.mark.parametrize("text", sorted(FROZEN_DELTA))
def test_alexander_is_palindromic_and_unimodular(text):
    delta, _ = alexander_classical(parse_braid(text), 2)
    top = delta.max_x_half()
    for e, c in delta.terms.items():
        assert delta.coeff(top - e) == c
    assert abs(delta.specialize_q1().coeff(0).at_q1()) == 1


def test_alexander_degree_is_twice_genus():
    for text in FROZEN_DELTA:
        w = parse_braid(text)
        delta, _ = alexander_classical(w, 2)
        assert delta.max_x_half() == 4 * analyze(w).genus  # x^{2g} in halves


def test_inverse_series_figure_eight():
    # (1-x)/(1 - 3x + x^2) = 1 + 2x + 5x^2 + 13x^3 + 34x^4 + ...
    _, inv = alexander_classical(parse_braid("1 -2 1 -2"), 4)
    got = [inv.coeff(2 * k).at_q1() for k in range(5)]
    assert got == [1, 2, 5, 13, 34]
    assert all(inv.coeff(2 * k + 1).is_zero for k in range(4))


def test_inverse_series_starts_with_one():
    _, inv = alexander_classical(parse_braid("1 1 1 -2 1 -2"), 6)
    assert inv.coeff(0) == QLaurent.one()


def test_alexander_rejects_links_and_inhomogeneous():
    with pytest.raises(InputError):
        alexander_classical(parse_braid("1 1"), 3)
    with pytest.raises(InputError):
        alexander_classical(parse_braid("1 -1"), 3)


def _det_by_minors(mat):
    """Oracle for _det: Laplace expansion along rows with a column-subset
    memo, exponential in the size."""
    k = len(mat)
    memo = {}

    def rec(row, cols_mask):
        if row == k:
            return QLaurent.one()
        hit = memo.get(cols_mask)
        if hit is not None:
            return hit
        acc = QLaurent.zero()
        sign = 1
        for c in range(k):
            bit = 1 << c
            if cols_mask & bit:
                entry = mat[row][c]
                if entry:
                    sub = rec(row + 1, cols_mask & ~bit)
                    term = entry * sub
                    acc = acc + (term if sign > 0 else -term)
                sign = -sign
        memo[cols_mask] = acc
        return acc

    return rec(0, (1 << k) - 1)


@pytest.mark.parametrize(
    "build",
    [
        _burau_alexander_matrix,
        _weight_rep_alexander_matrix,
        lambda w: zeta_matrix(build_template(w)),
    ],
    ids=["burau", "weight-rep", "template"],
)
@pytest.mark.parametrize("text", CORPUS + EXTRA_KNOTS)
def test_det_matches_minor_expansion(build, text):
    mat = build(parse_braid(text))
    assert _det(mat) == _det_by_minors(mat)


def _mat(rows):
    return [[ql(e) for e in row] for row in rows]


def test_det_swaps_rows_on_zero_pivot():
    # zero leading pivot; after the first step the next pivot is zero too
    mat = _mat([
        [{}, {}, {2: 1}],
        [{0: 1}, {0: 1}, {}],
        [{0: 2}, {0: 1, 2: 1}, {0: 1}],
    ])
    assert _det(mat) == ql({2: -1, 4: 1}) == _det_by_minors(mat)
    # and with Laurent entries in a larger matrix
    mat = _mat([
        [{}, {2: 1}, {0: 1}, {}],
        [{0: 2}, {0: 1}, {-1: 1}, {4: 3}],
        [{0: 1}, {2: 1, 0: 1}, {}, {0: -1}],
        [{2: 1}, {}, {0: 1, 6: -2}, {1: 1}],
    ])
    assert _det(mat) == _det_by_minors(mat)


def test_det_of_singular_matrix_is_zero():
    # third row = (1 + x) * first row + x^(-1/2) * second row
    r1 = [ql({0: 1}), ql({2: 1}), ql({0: 1, 2: -1})]
    r2 = [ql({2: 1}), ql({}), ql({4: 5})]
    f1, f2 = ql({0: 1, 2: 1}), ql({-1: 1})
    r3 = [f1 * a + f2 * b for a, b in zip(r1, r2)]
    assert _det([r1, r2, r3]) == QLaurent.zero()
    assert _det_by_minors([r1, r2, r3]) == QLaurent.zero()
    # a zero column leaves no pivot to swap in
    assert _det(_mat([[{}, {0: 1}], [{}, {2: 1}]])) == QLaurent.zero()


def test_det_small_sizes():
    assert _det([]) == QLaurent.one()
    assert _det([[ql({3: -2})]]) == ql({3: -2})
