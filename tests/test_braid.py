"""Braid parsing, closure statistics, and the two Alexander routes."""

import re
import time
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flowloop import (
    InputError,
    ParseError,
    QLaurent,
    VerificationError,
    XSeries,
    analyze,
    enumerate_orbits,
    parse_braid,
    render_word,
    zeta_classical,
)
from flowloop import braid as bmod
from flowloop import build_template, lawrence
from flowloop.braid import (
    Q1_WORK_LIMIT,
    _axis_quotient,
    _burau_alexander_matrix,
    _burau_reduced,
    _det,
    _det_bound,
    _normalize_alexander,
    _weight_rep_alexander_matrix,
    alexander_classical,
    closure_permutation,
)
from flowloop.template import _orbit_counts, zeta_denominator, zeta_matrix

from conftest import CORPUS, EXTRA_KNOTS, benchmark_batch, ql, xs


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
    top = max(delta.terms)
    for e, c in delta.terms.items():
        assert delta.coeff(top - e) == c
    assert abs(delta.specialize_q1().coeff(0).at_q1()) == 1


def test_alexander_degree_is_twice_genus():
    for text in FROZEN_DELTA:
        w = parse_braid(text)
        delta, _ = alexander_classical(w, 2)
        assert max(delta.terms) == 4 * analyze(w).genus  # x^{2g} in halves


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


def _det_bareiss_dict(mat):
    """Oracle for _det: fraction-free elimination (Bareiss 1968) on the
    QLaurent entries themselves, dividing each new entry by the previous
    pivot with exact_div.  Swaps a zero pivot for the first lower row with
    a nonzero entry in its column."""
    m = [list(row) for row in mat]
    k = len(m)
    if k == 0:
        return QLaurent.one()
    sign, prev = 1, QLaurent.one()
    for p in range(k - 1):
        if not m[p][p]:
            swap = next((r for r in range(p + 1, k) if m[r][p]), None)
            if swap is None:
                return QLaurent.zero()
            m[p], m[swap] = m[swap], m[p]
            sign = -sign
        pivot_row = m[p]
        pivot = pivot_row[p]
        for row in m[p + 1:]:
            lead = row[p]
            for c in range(p + 1, k):
                v = pivot * row[c]
                if lead and pivot_row[c]:
                    v = v - lead * pivot_row[c]
                row[c] = v.exact_div(prev) if v and prev != 1 else v
        prev = pivot
    det = m[k - 1][k - 1]
    return det if sign > 0 else -det


def _tables(mat):
    """A QLaurent matrix as the {x_half: int} tables _det takes."""
    return [[entry.terms for entry in row] for row in mat]


def _qlaurents(mat):
    """A matrix of tables as the QLaurent matrix the oracles take."""
    return [[QLaurent(entry) for entry in row] for row in mat]


def check_det(mat):
    """_det of a matrix of tables against both oracles, and the bound B on
    every coefficient."""
    det = _det(mat)
    oracle_mat = _qlaurents(mat)
    assert det == _det_bareiss_dict(oracle_mat) == _det_by_minors(oracle_mat)
    bound = _det_bound(mat)
    assert all(abs(c) <= bound for c in det.terms.values())


ROUTE_MATRICES = [
    _burau_alexander_matrix,
    _weight_rep_alexander_matrix,
    lambda w: zeta_matrix(build_template(w)),
]


@pytest.mark.parametrize("build", ROUTE_MATRICES,
                         ids=["burau", "weight-rep", "template"])
@pytest.mark.parametrize("text", CORPUS + EXTRA_KNOTS)
def test_det_matches_minor_expansion(build, text):
    check_det(build(parse_braid(text)))


_COEFFS = st.one_of(st.integers(-3, 3), st.integers(-10**30, 10**30))
_ENTRIES = st.dictionaries(st.integers(-6, 6), _COEFFS, max_size=3)


@st.composite
def det_matrices(draw):
    """Square matrices up to 6x6 of x-half Laurent polynomials with half
    and negative exponents and coefficients up to 10^30 in size; some with
    a zero row or column, some with a zero first pivot, some whose first
    two rows agree on their first two columns (a zero second pivot)."""
    k = draw(st.integers(1, 6))
    rows = [[QLaurent(draw(_ENTRIES)) for _ in range(k)] for _ in range(k)]
    shape = draw(st.sampled_from(
        ("plain", "zero-row", "zero-col", "pivot-0", "pivot-1")))
    if shape == "zero-row":
        rows[draw(st.integers(0, k - 1))] = [QLaurent.zero()] * k
    elif shape == "zero-col":
        c = draw(st.integers(0, k - 1))
        for row in rows:
            row[c] = QLaurent.zero()
    elif shape == "pivot-0":
        rows[0][0] = QLaurent.zero()
    elif shape == "pivot-1" and k >= 3:
        rows[1][:2] = rows[0][:2]
    return rows


@settings(max_examples=150, deadline=None)
@given(det_matrices())
def test_det_matches_oracles_on_random_matrices(mat):
    check_det(_tables(mat))


def _burau_dense(word):
    """Oracle for _burau_reduced: the dense product of the full reduced
    Burau generator matrices, k^3 QLaurent products per letter."""
    k = word.n - 1
    t = QLaurent.monomial(1, 2)
    t_inv = QLaurent.monomial(1, -2)
    one = QLaurent.one()

    def gen_matrix(v):
        m = [[one if r == c else QLaurent.zero() for c in range(k)]
             for r in range(k)]
        r = abs(v) - 1  # 0-based row of the generator
        if v > 0:
            m[r][r] = -t
            if r > 0:
                m[r][r - 1] = t
            if r < k - 1:
                m[r][r + 1] = one
        else:
            m[r][r] = -t_inv
            if r > 0:
                m[r][r - 1] = one
            if r < k - 1:
                m[r][r + 1] = t_inv
        return m

    prod = [[one if r == c else QLaurent.zero() for c in range(k)]
            for r in range(k)]
    for v in word.letters:
        g = gen_matrix(v)
        prod = [
            [sum((g[r][s] * prod[s][c] for s in range(k)), QLaurent.zero())
             for c in range(k)]
            for r in range(k)
        ]
    return prod


def _weight_rep_graded_then_q1(word):
    """Oracle for _weight_rep_alexander_matrix: I - M with M the q-graded
    rep_matrix(word, 1), composed in full and only then taken to q = 1."""
    mat_graded = lawrence.rep_matrix(word, 1)
    states = lawrence.weight_states(word.n, 1)
    mat = []
    for r, dst in enumerate(states):
        row = []
        for c, src in enumerate(states):
            entry = mat_graded.cols.get(src, {}).get(dst, XSeries.zero())
            q1 = entry.specialize_q1()
            cell = QLaurent({x: qv.at_q1() for x, qv in q1.terms.items()})
            row.append(QLaurent.one() - cell if r == c else -cell)
        mat.append(row)
    return mat


def _zeta_matrix_ql(template):
    """Oracle for template.zeta_matrix: I - A(x) built from QLaurent
    monomials, one subtraction per strip."""
    k = template.branch_count
    mat = [[QLaurent.one() if r == c else QLaurent.zero() for c in range(k)]
           for r in range(k)]
    for s in template.strips:
        weight = QLaurent.monomial(-1 if s.twist else 1, 2 * s.mark)
        mat[s.src][s.dst] = mat[s.src][s.dst] - weight
    return mat


def check_routes(word):
    # raw dict equality: no zero coefficient on either side
    assert _burau_reduced(word) == _tables(_burau_dense(word))
    assert _weight_rep_alexander_matrix(word) \
        == _tables(_weight_rep_graded_then_q1(word))
    template = build_template(word)
    assert zeta_matrix(template) == _tables(_zeta_matrix_ql(template))


@pytest.mark.parametrize("text", CORPUS + EXTRA_KNOTS)
def test_route_matrices_match_their_oracles(text):
    check_routes(parse_braid(text))


@st.composite
def homogeneous_knot_words(draw):
    """Homogeneous words on <= 5 strands and <= 9 letters, any column
    signs.  Every column appears once, plus extra letters of any column at
    any place; words whose closure is not a knot are discarded."""
    n = draw(st.integers(min_value=2, max_value=5))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n - 1,
                          max_size=n - 1))
    cols = list(draw(st.permutations(range(1, n))))
    for _ in range(draw(st.integers(0, 9 - (n - 1)))):
        cols.insert(draw(st.integers(0, len(cols))),
                    draw(st.integers(min_value=1, max_value=n - 1)))
    letters = " ".join(str(signs[c - 1] * c) for c in cols)
    return parse_braid(f"n={n}; {letters}")


@settings(max_examples=60, deadline=None)
@given(homogeneous_knot_words())
def test_random_knots_route_matrices_and_dets(word):
    assume(analyze(word).closure_components == 1)
    check_routes(word)
    for build in ROUTE_MATRICES:
        check_det(build(word))
    alexander_classical(word, 2)  # the two routes agree


# ---------------------------------------------------------------------------
# errors name the word and the order


def test_route_disagreement_names_word_and_order(monkeypatch):
    monkeypatch.setattr(bmod, "_alexander_burau",
                        lambda word, order: QLaurent({0: 1, 2: -1, 4: 1}))
    with pytest.raises(VerificationError,
                       match=r"routes disagree for n=3; 1 -2 1 -2 at order "
                             r"4: weight-rep gives 1 - 3\*x \+ x\^2, Burau "
                             r"gives 1 - x \+ x\^2$"):
        alexander_classical(parse_braid("1 -2 1 -2"), 4)


@pytest.mark.parametrize(
    "delta,head,tail",
    [
        ({1: 1}, "Alexander polynomial of", "has half-exponents"),
        ({0: 1, 2: -2}, "Alexander polynomial of", "not palindromic"),
        ({0: 1, 2: 1, 4: 1}, "Alexander polynomial of",
         r"has \|Delta\(1\)\| != 1"),
        ({0: -1}, r"\(1-x\)/Delta of", "does not start with 1"),
    ],
)
def test_alexander_checks_name_word_and_order(monkeypatch, delta, head,
                                              tail):
    # both routes agree on a bad polynomial, so the later checks fire
    for route in ("_alexander_burau", "_alexander_weight_rep"):
        monkeypatch.setattr(bmod, route,
                            lambda word, order, stats=None: QLaurent(delta))
    with pytest.raises(VerificationError,
                       match=rf"^{head} n=3; 1 -2 1 -2 at order 3 {tail}"):
        alexander_classical(parse_braid("1 -2 1 -2"), 3)


def test_normalization_errors_name_word_and_order():
    word = parse_braid("1 -2 1 -2")
    with pytest.raises(VerificationError,
                       match=r"determinant vanished for n=3; 1 -2 1 -2 at "
                             r"order 5$"):
        _normalize_alexander(QLaurent.zero(), word, 5)
    with pytest.raises(VerificationError,
                       match=r"nonzero remainder .* for n=3; 1 -2 1 -2 at "
                             r"order 5$"):
        _normalize_alexander(QLaurent({0: 1, 2: 1}), word, 5)
    with pytest.raises(VerificationError,
                       match=r"not monic after normalization for n=3; "
                             r"1 -2 1 -2 at order 5: 2$"):
        _normalize_alexander(QLaurent({0: 2, 2: 2, 4: 2}), word, 5)


def _mat(rows):
    return [[ql(e) for e in row] for row in rows]


def test_det_swaps_rows_on_zero_pivot():
    # zero leading pivot; after the first step the next pivot is zero too
    mat = _mat([
        [{}, {}, {2: 1}],
        [{0: 1}, {0: 1}, {}],
        [{0: 2}, {0: 1, 2: 1}, {0: 1}],
    ])
    assert _det(_tables(mat)) == ql({2: -1, 4: 1}) == _det_by_minors(mat)
    # and with Laurent entries in a larger matrix
    mat = _mat([
        [{}, {2: 1}, {0: 1}, {}],
        [{0: 2}, {0: 1}, {-1: 1}, {4: 3}],
        [{0: 1}, {2: 1, 0: 1}, {}, {0: -1}],
        [{2: 1}, {}, {0: 1, 6: -2}, {1: 1}],
    ])
    assert _det(_tables(mat)) == _det_by_minors(mat)


def test_det_of_singular_matrix_is_zero():
    # third row = (1 + x) * first row + x^(-1/2) * second row
    r1 = [ql({0: 1}), ql({2: 1}), ql({0: 1, 2: -1})]
    r2 = [ql({2: 1}), ql({}), ql({4: 5})]
    f1, f2 = ql({0: 1, 2: 1}), ql({-1: 1})
    r3 = [f1 * a + f2 * b for a, b in zip(r1, r2)]
    assert _det(_tables([r1, r2, r3])) == QLaurent.zero()
    assert _det_by_minors([r1, r2, r3]) == QLaurent.zero()
    # a zero column leaves no pivot to swap in
    assert _det([[{}, {0: 1}], [{}, {2: 1}]]) == QLaurent.zero()


def test_det_small_sizes():
    assert _det([]) == QLaurent.one()
    assert _det([[{3: -2}]]) == ql({3: -2})


# ---------------------------------------------------------------------------
# the integer q = 1 quotient, checked by multiplying it back


def check_quotient(k, poly, order):
    """_axis_quotient(k, poly, order), checked by Q * poly == 1 - x^k to
    the order in XSeries arithmetic.  poly(0) = +-1 is a unit, so only one
    truncated series Q passes: the check is exact and shares no code with
    the recurrence."""
    trunc = 2 * order + 1
    got = _axis_quotient(k, poly, order)
    assert got.trunc == trunc
    # a q = 1 series: each value a nonzero integer times q^0
    assert all(q.terms.keys() == {0} for q in got.terms.values())
    assert got * XSeries(poly) == XSeries({0: 1, 2 * k: -1}, trunc)
    return got


@st.composite
def unit_polynomials(draw):
    """x-half tables with constant term +-1 and up to 8 more terms at
    positive whole or half exponents, with small, large and negative
    coefficients."""
    tail = draw(st.dictionaries(
        st.integers(1, 24),
        st.one_of(st.integers(-3, 3), st.integers(-10**12, 10**12))
        .filter(bool),
        max_size=8))
    return {0: draw(st.sampled_from((1, -1))), **tail}


@settings(max_examples=200, deadline=None)
@given(unit_polynomials(), st.integers(1, 5), st.integers(0, 40))
def test_axis_quotient_matches_xseries_oracle(poly, k, order):
    check_quotient(k, poly, order)


def q1_zeta_words():
    """The words of the seed-1 q1-zeta benchmark batch, with their
    orders."""
    return sorted({(item.braid, item.order)
                   for item in benchmark_batch("q1-zeta", 1)
                   if item.kind == "q1"})


@pytest.mark.parametrize("words", [
    [(text, 8) for text in CORPUS + EXTRA_KNOTS],
    q1_zeta_words(),
], ids=["corpus", "q1-zeta-seed-1"])
def test_axis_quotient_matches_xseries_oracle_on_knots(words):
    for text, order in words:
        word = parse_braid(text)
        delta, inv = alexander_classical(word, order)
        table = {x: q.at_q1() for x, q in delta.terms.items()}
        assert inv == check_quotient(1, table, order)
        det = zeta_denominator(build_template(word))
        assert zeta_classical(word, order) \
            == check_quotient(word.n, det.terms, order)


_NOT_AT_X0 = "inverse: series must start at x^0"


# the messages of the XSeries inverse that the integer quotient replaced
@pytest.mark.parametrize("poly,message", [
    ({}, _NOT_AT_X0),
    ({-1: 1, 0: 1}, _NOT_AT_X0),
    ({2: 1}, "inverse: constant term None is not a unit monomial"),
    ({0: 2, 2: 1}, "inverse: constant term 2 is not a unit monomial"),
    ({0: -3}, "inverse: constant term -3 is not a unit monomial"),
    ({1: 1, 2: 5}, "inverse: constant term None is not a unit monomial"),
], ids=["empty", "negative", "no-constant", "constant-2", "constant-minus-3",
        "half"])
def test_axis_quotient_errors_match_xseries_oracle(poly, message):
    with pytest.raises(VerificationError, match=f"^{re.escape(message)}$"):
        _axis_quotient(1, poly, 4)


# the trefoil's Delta = 1 - x + x^2 and det(I - A(x)) = 1 + x^3
TREFOIL_Q1_ROUTES = [(alexander_classical, 3), (zeta_classical, 2)]


@pytest.mark.parametrize("route,terms", TREFOIL_Q1_ROUTES,
                         ids=["alexander", "zeta"])
def test_q1_routes_refuse_oversized_orders_before_allocating(route, terms):
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=(
                rf"^order 100000000 needs {200000002 * terms} steps of the "
                rf"q = 1 series \(\(2\*order \+ 2\) x {terms} terms of the "
                rf"denominator\), past Q1_WORK_LIMIT = {Q1_WORK_LIMIT}$")):
            route(parse_braid("1 1 1"), 10**8)
        assert tracemalloc.get_traced_memory()[1] < 10**6
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("route,terms", TREFOIL_Q1_ROUTES,
                         ids=["alexander", "zeta"])
def test_q1_work_limit_is_the_work_estimate(monkeypatch, route, terms):
    # the largest order whose (2 order + 2) x terms fits runs, one more not
    monkeypatch.setattr(bmod, "Q1_WORK_LIMIT", 60)
    order = 60 // terms // 2 - 1
    assert route(parse_braid("1 1 1"), order)
    with pytest.raises(InputError, match=f"needs {(2 * order + 4) * terms} "):
        route(parse_braid("1 1 1"), order + 1)


def test_q1_work_limit_leaves_a_tenfold_margin_at_order_400():
    for text in CORPUS + EXTRA_KNOTS:
        word = parse_braid(text)
        delta, _ = alexander_classical(word, 0)
        det = zeta_denominator(build_template(word))
        for terms in (len(delta.terms), len(det.terms)):
            assert 10 * (2 * 400 + 2) * terms <= Q1_WORK_LIMIT


@pytest.mark.parametrize("route", (alexander_classical, zeta_classical),
                         ids=["alexander", "zeta"])
def test_q1_quotient_errors_name_word_and_order(monkeypatch, route):
    # a planted constant term 2, which _axis_quotient refuses
    real = bmod._axis_quotient
    monkeypatch.setattr(bmod, "_axis_quotient",
                        lambda k, poly, order: real(k, {**poly, 0: 2}, order))
    with pytest.raises(VerificationError, match=(
            r"^inverse: constant term 2 is not a unit monomial in "
            r"n=3; 1 -2 1 -2 at order 4$")):
        route(parse_braid("1 -2 1 -2"), 4)


def unknot(n):
    return parse_braid(" ".join(str(i) for i in range(1, n)))


# the q = 1 routes of the `alexander` and `orbits` commands
Q1_ROUTES = [
    (lambda w: alexander_classical(w, 4), "order 4"),
    (lambda w: zeta_classical(w, 4), "order 4"),
    (lambda w: enumerate_orbits(build_template(w), 2), "max_degree 2"),
]


@pytest.mark.parametrize("route,at", Q1_ROUTES,
                         ids=["alexander", "zeta", "orbits"])
def test_q1_routes_refuse_huge_determinants(route, at):
    # the 120-strand unknot's 119 x 119 determinants take tens of seconds
    start = time.perf_counter()
    with pytest.raises(InputError, match=(
            r"^a 119 x 119 determinant of \d+-bit packed coefficients needs "
            rf"about \d+ elimination steps, past Q1_WORK_LIMIT = "
            rf"{Q1_WORK_LIMIT} in n=120; 1 2 3 .* 118 119 at {at}$")):
        route(unknot(120))
    assert time.perf_counter() - start < 1


def test_alexander_refuses_before_composing_the_weight_rep(monkeypatch):
    # the Burau route runs first, so its refused determinant stops the
    # command before the weight-rep matrix of 119 generators is composed
    def composed(word):
        raise AssertionError("weight-rep matrix composed")

    monkeypatch.setattr(bmod, "_weight_rep_alexander_matrix", composed)
    with pytest.raises(InputError, match=(
            r"^a 119 x 119 determinant of \d+-bit packed coefficients needs "
            rf"about \d+ elimination steps, past Q1_WORK_LIMIT = "
            rf"{Q1_WORK_LIMIT} in n=120; 1 2 3 .* 118 119 at order 4$")):
        alexander_classical(unknot(120), 4)


def test_q1_routes_compute_a_40_strand_unknot():
    word = unknot(40)
    delta, inv = alexander_classical(word, 4)
    assert delta == XSeries.one() and inv == zeta_classical(word, 4)
    orbits = enumerate_orbits(build_template(word), 2)
    assert len(orbits) == sum(_orbit_counts(build_template(word), 2))


def test_det_work_limit_is_the_work_estimate(monkeypatch):
    # the 40-strand unknot's Burau matrix: k = 39 rows of K = 64-bit packed
    # coefficients, 39^3 (39 * 64 // 64)^2 // 3000 = 30074 steps
    mat = _burau_alexander_matrix(unknot(40))
    monkeypatch.setattr(bmod, "Q1_WORK_LIMIT", 30074)
    assert _det(mat) == -QLaurent({2 * j: 1 for j in range(40)})
    monkeypatch.setattr(bmod, "Q1_WORK_LIMIT", 30073)
    with pytest.raises(InputError, match=(
            r"^a 39 x 39 determinant of 64-bit packed coefficients needs "
            r"about 30074 elimination steps, past Q1_WORK_LIMIT = 30073$")):
        _det(mat)


def test_alexander_analyzes_the_word_once(monkeypatch):
    # the weight-rep route takes the writhe from the knot gate's stats
    calls = []

    def counting(word):
        calls.append(word)
        return analyze(word)

    monkeypatch.setattr(bmod, "analyze", counting)
    for text in CORPUS + EXTRA_KNOTS:
        calls.clear()
        alexander_classical(parse_braid(text), 3)
        assert len(calls) == 1, text
