"""Weight-graded braid representation: dimensions, relations, traces."""

import math
from operator import itemgetter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flowloop import (
    InputError,
    QLaurent,
    VerificationError,
    XSeries,
    parse_braid,
    phi_positive,
)
from flowloop import braid, lawrence, walks
from flowloop.braid import BraidWord, alexander_classical, analyze, render_word
from flowloop.lawrence import (
    HALF,
    UNDER,
    GradedMatrix,
    generator_matrix,
    graded_trace,
    rep_matrix,
    truncated_trace_table,
    unknot_closure_check,
    weight_states,
)
from flowloop.lawrence import _triangular_inverse
from flowloop.ring import qtrinom
from flowloop.verma import kohno_check

from conftest import (
    CORPUS,
    EXTRA_KNOTS,
    POSITIVE_KNOTS,
    assert_packed_sum,
    row_norm,
    tuple_forward_layers,
    tuple_truncated_trace_table,
    tuple_walk,
    xs,
)

CONVENTIONS = (HALF, UNDER)


def truncated_trace(word, m, trunc):
    """truncated_trace_table as an XSeries truncated at trunc."""
    return XSeries._adopt(truncated_trace_table(word, m, trunc), trunc)


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


# ---------------------------------------------------------------------------
# the generator matrix and its walk moves as built before the one cached
# move table, kept verbatim as the table's oracle


def oracle_generator_matrix(n, m, i, sign, convention):
    """Matrix of generator i (sign +1/-1), one entry per shed pair (b, c)."""
    # distinct sheds (b, c) land on distinct states, and every weight is a
    # nonzero Gaussian trinomial, so each move is one entry of its own
    cols = {}
    for s in weight_states(n, m):
        L = s[i - 2] if i > 1 else 0
        A = s[i - 1]
        R = s[i] if i < n - 1 else 0
        vec = {}
        for b in range(L + 1):
            for c in range(R + 1):
                t = list(s)
                if i > 1:
                    t[i - 2] = L - b
                t[i - 1] = A + b + c
                if i < n - 1:
                    t[i] = R - c
                if sign > 0:
                    coeff, xh = lawrence._positive_weight(A, b, c, convention)
                else:
                    coeff, xh = lawrence._negative_weight(A, b, c, convention)
                vec[tuple(t)] = XSeries.monomial(coeff, xh)
        cols[s] = vec
    return GradedMatrix(n, m, cols)


def oracle_moves(mat):
    """The matrix as moves: {src: [(dst, x_half, weight), ...]}, one per
    x-term of each entry, cheapest first, as the walk read them off it."""
    out = {}
    for src, row in mat.cols.items():
        moves = [(dst, xh, weight) for dst, entry in row.items()
                 for xh, weight in entry.terms.items()]
        moves.sort(key=itemgetter(1))
        out[src] = moves
    return out


def plain_moves(table):
    """A move table with each weight as its raw {q_half: coeff} dict."""
    return {src: [(dst, xh, weight.terms) for dst, xh, weight in moves]
            for src, moves in table.items()}


def state_moves(table, n, m):
    """A _generator_moves table (rows, low) of weight_states(n, m) as {src:
    [(dst, x_half, weight), ...]} over the state tuples, each move's end
    and x_half made absolute again."""
    states = weight_states(n, m)
    rows, low = table
    return {states[src]: [(states[src + delta], xh + low, weight)
                          for delta, xh, weight in moves]
            for src, (moves, _) in enumerate(rows)}


@pytest.mark.parametrize("n", range(2, 6))
def test_move_table_matches_oracle(n):
    for m in range(5):
        for i in range(1, n):
            for sign in (1, -1):
                for conv in CONVENTIONS:
                    case = (m, i, sign, conv)
                    want = oracle_generator_matrix(n, m, i, sign, conv)
                    got = generator_matrix(n, m, i, sign, conv)
                    assert got == want, case
                    assert {s: set(row) for s, row in got.cols.items()} \
                        == {s: set(row) for s, row in want.cols.items()}, \
                        case
                    # the walk's table, move for move and in the same order,
                    # through the position -> state map; low is its
                    # cheapest cost, and each row carries its own norm
                    table = lawrence._generator_moves(n, m, i, sign, conv)
                    rows, low = table
                    assert len(rows) == len(weight_states(n, m)), case
                    assert plain_moves(state_moves(table, n, m)) \
                        == plain_moves(oracle_moves(want)), case
                    assert min(moves[0][1] for moves, _ in rows) == 0, case
                    assert [norm for _, norm in rows] \
                        == [row_norm(moves) for moves, _ in rows], case


def test_failed_mirror_check_raises(monkeypatch):
    monkeypatch.setattr(lawrence, "_mirror_validated",
                        lambda convention: False)
    with pytest.raises(VerificationError, match="'half'"):
        generator_matrix(3, 2, 1, -1)


def oracle_mirror_validated(convention):
    """sigma_i^{-1} sigma_i = id for all (n, m) <= (4, 4), checked on
    GradedMatrix products, as lawrence._mirror_validated was written before
    it read the raw move tables (test oracle)."""
    for n in range(2, 5):
        for m in range(0, 5):
            ident = GradedMatrix.identity(n, m)
            for i in range(1, n):
                pos = lawrence._generator_mirror(n, m, i, +1, convention)
                neg = lawrence._generator_mirror(n, m, i, -1, convention)
                if neg.after(pos) != ident:
                    return False
    return True


@pytest.fixture
def cold_mirror():
    """Empty move-table, generator, q = 1 table and mirror-check caches
    before and after the test, so a planted weight is read afresh and
    leaves nothing behind."""
    caches = (lawrence._generator_moves, lawrence._generator_mirror,
              lawrence._mirror_validated, braid._q1_moves)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


@pytest.mark.parametrize("conv", CONVENTIONS)
def test_mirror_check_matches_matrix_oracle(conv, cold_mirror):
    assert lawrence._mirror_validated(conv) is True
    assert oracle_mirror_validated(conv) is True


# one shed pattern on the smallest grade, and one that only the (n, m) =
# (4, 3) and (4, 4) sectors reach: both sheds taken from a middle label 1
PLANTED = [(0, 0, 0), (1, 1, 1)]


@pytest.mark.parametrize("conv", CONVENTIONS)
@pytest.mark.parametrize("abc", PLANTED, ids=map(str, PLANTED))
def test_planted_mirror_fault_is_caught(conv, abc, monkeypatch, cold_mirror):
    real = lawrence._negative_weight

    def planted(A, b, c, convention):
        coeff, xh = real(A, b, c, convention)
        if (A, b, c) == abc:
            coeff = coeff + 1  # one wrong q^0 coefficient
        return coeff, xh

    monkeypatch.setattr(lawrence, "_negative_weight", planted)
    assert lawrence._mirror_validated(conv) is False
    assert oracle_mirror_validated(conv) is False
    with pytest.raises(VerificationError, match=repr(conv)):
        generator_matrix(2, 0, 1, -1, conv)


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
        want = XSeries(rep_matrix(word, m).trace().terms, trunc)
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


def test_truncated_trace_checks_integrality(monkeypatch):
    word = parse_braid("1")
    truncated_trace(word, 1, 5)  # caches the real generator's moves first
    # the one state (1,): one loop of cost x^(1/2), row norm 1, low 0
    half_power = [(((0, 1, QLaurent.one()),), 1)], 0
    monkeypatch.setattr(lawrence, "_generator_moves",
                        lambda n, m, i, sign, convention: half_power)
    with pytest.raises(VerificationError,
                       match=r"n=2; 1 at weight 1 kept half x-powers"):
        truncated_trace(word, 1, 5)


def test_graded_trace_integrality_error_names_the_word(monkeypatch):
    # every generator move planted as a loop of cost x^(1/2): the knot's
    # traces then keep half x-powers
    def half_power(n, m, i, sign, convention):
        return [(((0, 1, QLaurent.one()),), 1)] * lawrence.dim(n, m), 0

    monkeypatch.setattr(lawrence, "_generator_moves", half_power)
    with pytest.raises(VerificationError, match=(
            r"^trace of n=2; 1 at weight 0 kept half x-powers: ")):
        graded_trace(parse_braid("1"), 1)


# ---------------------------------------------------------------------------
# graded traces of any word, on the closed walks, against the exact product

LINKS = ("1 1", "1 1 1 1", "1 -2 1 -2 1 -2", "n=3; 1 1 2 2")
ANY_WORDS = ([parse_braid(text) for text in
              CORPUS + EXTRA_KNOTS + LINKS + ("1 -1", "n=3; 1 1")]
             + [BraidWord(3, ())])


def assert_graded_trace_exact(word, m_max, conv):
    assert graded_trace(word, m_max, conv) == \
        [rep_matrix(word, m, conv).trace() for m in range(m_max + 1)]


@pytest.mark.parametrize("conv", CONVENTIONS)
@pytest.mark.parametrize("word", ANY_WORDS, ids=render_word)
def test_graded_trace_matches_rep_matrix(word, conv):
    assert_graded_trace_exact(word, 3 if word.n > 3 else 4, conv)


@st.composite
def signed_words(draw):
    """Arbitrary words on <= 5 strands and <= 7 letters of either sign:
    knots and links, columns with no letter and letterless words too."""
    n = draw(st.integers(min_value=2, max_value=5))
    letter = st.integers(min_value=1, max_value=n - 1)
    letters = draw(st.lists(st.tuples(letter, st.sampled_from((1, -1))),
                            max_size=7))
    return BraidWord(n, tuple(i * sign for i, sign in letters))


@settings(max_examples=40, deadline=None)
@given(signed_words(), st.sampled_from(CONVENTIONS))
def test_random_graded_traces(word, conv):
    assert_graded_trace_exact(word, 3 if word.n > 3 else 4, conv)


@pytest.mark.parametrize("conv", CONVENTIONS)
def test_truncated_trace_of_negative_letters(conv):
    # the walks run at trunc minus the letters' shifts, which here lie
    # below 0 (negative letters cost negative x-powers)
    word = parse_braid("1 -2 1 -2")
    for m in range(4):
        for trunc in (-4, -1, 0, 3):
            want = XSeries(rep_matrix(word, m, conv).trace().terms, trunc)
            got = truncated_trace_table(word, m, trunc, conv)
            assert XSeries._adopt(got, trunc) == want, (m, trunc)


@pytest.mark.parametrize("conv", CONVENTIONS)
def test_planted_mirror_fault_stops_the_walks(conv, monkeypatch,
                                              cold_mirror):
    real = lawrence._negative_weight

    def planted(A, b, c, convention):
        coeff, xh = real(A, b, c, convention)
        return coeff + 1, xh  # one wrong q^0 coefficient everywhere

    monkeypatch.setattr(lawrence, "_negative_weight", planted)
    with pytest.raises(VerificationError, match=repr(conv)):
        graded_trace(parse_braid("1 -2 1 -2"), 1, conv)
    if conv == HALF:  # the q = 1 weight-rep route reads the `half' tables
        with pytest.raises(VerificationError, match=repr(conv)):
            alexander_classical(parse_braid("1 -2 1 -2"), 4)


def test_trace_routes_build_no_matrix(monkeypatch):
    # the traces, the unknot check, Kohno's weight side and the q = 1
    # weight-rep route read the move tables, never a GradedMatrix product
    def refused(*args, **kwargs):
        raise AssertionError("matrix route called")

    for name in ("rep_matrix", "generator_matrix"):
        monkeypatch.setattr(lawrence, name, refused)
    monkeypatch.setattr(GradedMatrix, "after", refused)
    word = parse_braid("1 -2 1 -2")
    for conv in CONVENTIONS:
        graded_trace(word, 3, conv)
    unknot_closure_check(parse_braid("n=3; 1 -2"), 4)
    assert kohno_check(word, 2)[0]
    alexander_classical(word, 4)


# ---------------------------------------------------------------------------
# the pruned closed walks against the unpruned mul_term walk they replaced


def mul_term_walk(word, m, trunc):
    """{start state: closed amplitude} of the unpruned walk: e_s carried
    through the word's generator columns one letter at a time, one
    XSeries.mul_term per entry term, truncated at trunc; a state whose
    amplitude cancels is deleted and a walk whose vector empties stops."""
    n = word.n
    cols = {v: generator_matrix(n, m, v, 1).cols for v in set(word.letters)}
    closed = {}
    for s in weight_states(n, m):
        vec = {s: XSeries.one(trunc)}
        for v in word.letters:
            nxt = {}
            for src, amp in vec.items():
                for dst, entry in cols[v][src].items():
                    for xh, qc in entry.terms.items():
                        term = amp.mul_term(qc, xh)
                        if term.is_zero:
                            continue
                        cur = nxt.get(dst)
                        if cur is not None:
                            term = cur + term
                            if term.is_zero:
                                del nxt[dst]
                                continue
                        nxt[dst] = term
            vec = nxt
            if not vec:
                break
        closed[s] = vec.get(s, XSeries.zero(trunc))
    return closed


# every order the corpus runs the positive words at (3 to 9 in the suite,
# 8 in the acceptance criteria, 18 for the trefoil in the benchmark corpus)
WALK_CASES = [(text, order) for text in POSITIVE_KNOTS
              for order in ((3, 5, 8) if parse_braid(text).n > 2
                            else (3, 6, 8, 9, 18))]


def traced_walks(word, m, trunc, summed=walks.sum_paths):
    """truncated_trace_table(word, m, trunc), and per start position that
    closes the (layers, bound, sum) that walks.closed_sum handed to
    walks.sum_paths, summed here by `summed`.  The walks run at bound =
    trunc - S, S the sum of the letters' cheapest costs."""
    runs = {}

    def spy(start, layers, bound):
        got = summed(start, layers, bound)
        runs[start] = layers, bound, got
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(walks, "sum_paths", spy)
        table = truncated_trace_table(word, m, trunc)
    return table, runs


@pytest.mark.parametrize("text,order", WALK_CASES)
def test_pruned_walks_match_mul_term_walk(text, order):
    word = parse_braid(text)
    trunc = 2 * order + 1
    for m in range(order + 3):
        closed = mul_term_walk(word, m, trunc)
        # raw dicts, against the two passes it replaced and the dict-kernel
        # sum it packs, within the bound proven from the per-row norms
        table, runs = traced_walks(word, m, trunc, assert_packed_sum)
        # closed runs over weight_states(n, m) in order, so s sits at k
        for k, (s, want) in enumerate(closed.items()):
            if k not in runs:
                # a start state the forward pass drops had nothing to add
                assert want.is_zero, (m, s)
                continue
            # a weight-m closed walk costs at least x^m, so the two
            # stabilization weights above the order keep no start state
            assert m <= order, (m, s)
            _, bound, got = runs[k]
            assert XSeries._adopt({x + trunc - bound: q
                                   for x, q in got.items()}, trunc) \
                == want, (m, s)
        oracle = sum(closed.values(), XSeries.zero(trunc))
        assert XSeries._adopt(table, trunc) == oracle, m


def state_layers(layers, states):
    """Forward-pass layers over positions, with each position replaced by
    its state in `states`."""
    return [({states[s]: cost for s, cost in reach.items()},
             [(states[src], states[dst], xh, weight)
              for src, dst, xh, weight in moves], norm)
            for reach, moves, norm in layers]


@pytest.mark.parametrize("text,order", WALK_CASES)
def test_position_walk_matches_tuple_walk(text, order):
    # per start state, the forward pass over positions keeps the same
    # reach, the same moves in the same order and the same row norms as
    # the tuple-state pass, and sums to the same raw table; so does the
    # whole trace
    word = parse_braid(text)
    trunc = 2 * order + 1
    closing = 0
    for m in range(order + 3):
        states = weight_states(word.n, m)
        oracle_walk = tuple_walk(word, m)
        bound = trunc - sum(low for _, low in oracle_walk)
        table, runs = traced_walks(word, m, trunc)
        for k, s in enumerate(states):
            want = tuple_forward_layers(oracle_walk, s, bound)
            if k not in runs:
                assert want is None, (m, s)
                continue
            closing += 1
            layers, at, got = runs[k]
            assert at == bound, (m, s)
            assert state_layers(layers, states) == want, (m, s)
            assert got == walks.sum_paths(s, want, bound), (m, s)
        assert table == tuple_truncated_trace_table(word, m, trunc), m
    assert closing


def cheapest_closed_walks(word, m):
    """{start state: the exact cheapest x-half cost of a closed walk from
    it through the word's generator columns, or None if it has none}, by a
    min-plus pass with no budget."""
    n = word.n
    cols = {v: generator_matrix(n, m, v, 1).cols for v in set(word.letters)}
    cheapest = {}
    for s in weight_states(n, m):
        reach = {s: 0}
        for v in word.letters:
            nxt = {}
            for src, cost in reach.items():
                for dst, entry in cols[v][src].items():
                    to = cost + min(entry.terms)
                    if to < nxt.get(dst, to + 1):
                        nxt[dst] = to
            reach = nxt
        cheapest[s] = reach.get(s)
    return cheapest


def assert_closed_walks_cost_at_least_x_to_the_m(word, order):
    """Every closed walk of a weight-m start state costs at least x^m
    (2m in x-half units), at every weight up to order + 2: the bound that
    stops phi_positive at weight order."""
    closing = 0
    for m in range(order + 3):
        for s, cost in cheapest_closed_walks(word, m).items():
            if cost is not None:
                closing += 1
                assert cost >= 2 * m, (m, s, cost)
    assert closing


@pytest.mark.parametrize("text", POSITIVE_KNOTS)
def test_weight_m_closed_walks_cost_at_least_x_to_the_m(text):
    # at the largest order the corpus runs the word at
    word = parse_braid(text)
    order = max(o for t, o in WALK_CASES if t == text)
    assert_closed_walks_cost_at_least_x_to_the_m(word, order)


@settings(max_examples=40, deadline=None)
@given(positive_knot_words(), st.integers(min_value=0, max_value=3))
def test_random_closed_walks_cost_at_least_x_to_the_m(word, order):
    assume(analyze(word).closure_components == 1)
    assert_closed_walks_cost_at_least_x_to_the_m(word, order)


def test_phi_positive_reads_no_weight_above_the_order(monkeypatch):
    # a weight above the order has an empty trace (the bound above), so
    # phi_positive never asks for one, whatever its cutoff
    word = parse_braid("n=4; 1 2 3 1 2 3 1")
    order = 3
    trunc = 2 * order + 1
    for m in (4, 5):  # the exact product has nothing within trunc either
        assert XSeries(rep_matrix(word, m).trace().terms, trunc).is_zero
    real = lawrence.truncated_trace_table
    asked = []

    def spy(word, m, trunc):
        asked.append(m)
        return real(word, m, trunc)

    want = phi_positive(word, order)
    monkeypatch.setattr(lawrence, "truncated_trace_table", spy)
    for cap, stabilize, top in ((None, True, order), (40, True, order),
                                (40, False, order), (2, True, order),
                                (1, False, 1)):
        asked.clear()
        got = phi_positive(word, order, cap, stabilize)
        assert asked == list(range(top + 1)), (cap, stabilize)
        if cap != 1:
            assert got == want, (cap, stabilize)


def test_weights_past_the_truncation_need_every_column():
    # column 2 has no letter of its own, so (0, 2) closes at cost 0: the
    # bound that stops phi_positive at the order needs every column
    word = parse_braid("n=3; 1 1")
    tr = truncated_trace(word, 2, 1)
    assert tr == XSeries(rep_matrix(word, 2).trace().terms, 1)
    assert not tr.is_zero


def test_negative_weights_are_refused():
    word = parse_braid("1 1 1")
    assert weight_states(2, -1) == weight_states(3, -1) == []
    assert lawrence.dim(2, -1) == 0
    with pytest.raises(InputError, match="^m must be >= 0, got -1$"):
        generator_matrix(2, -1, 1, 1)
    with pytest.raises(InputError, match="^m must be >= 0, got -3$"):
        rep_matrix(word, -3)
    # the letterless word calls no generator_matrix, so rep_matrix checks
    with pytest.raises(InputError, match="^m must be >= 0, got -1$"):
        rep_matrix(BraidWord(2, ()), -1)
    with pytest.raises(InputError, match="^m must be >= 0, got -1$"):
        truncated_trace(word, -1, 5)
    with pytest.raises(InputError, match="^m must be >= 0, got -1$"):
        lawrence.truncated_trace_table(word, -1, -5)
    with pytest.raises(InputError, match="^m_max must be >= 0, got -1$"):
        graded_trace(word, -1)


def table_negative_weight(A, b, c, convention):
    """The negative weight as its own hand-written table (test oracle)."""
    tri = qtrinom(A + b + c, A, b, c).bar()
    if convention == HALF:
        qh = -(A * A + A + b + c)
        xh = -(2 * A + b + c)
    else:
        qh = -(A * (A - 1)) - 2 * (A + b)
        xh = -(2 * (A + b))
    coeff = tri.shift(qh)
    return (-coeff if A % 2 else coeff), xh


@pytest.mark.parametrize("conv", CONVENTIONS)
def test_negative_weight_is_the_mirror_table(conv):
    for A in range(7):
        for b in range(6):
            for c in range(6):
                assert lawrence._negative_weight(A, b, c, conv) == \
                    table_negative_weight(A, b, c, conv), (A, b, c)
