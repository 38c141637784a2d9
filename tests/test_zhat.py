"""Loop-counting series, reference models, prefactor, and normalization."""

import importlib
from itertools import product
from operator import itemgetter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flowloop import (
    InputError,
    QLaurent,
    REFERENCE_MODELS,
    VerificationError,
    XSeries,
    analyze,
    build_template,
    parse_braid,
    phi_homogeneous,
    phi_positive,
    reference_series,
    run_suite,
    zeta_classical,
    zhat,
)
from flowloop import ring
from flowloop.braid import alexander_classical, render_word
from flowloop.lawrence import rep_matrix, weight_states

from conftest import (
    CORPUS,
    EXTRA_KNOTS,
    POSITIVE_KNOTS,
    benchmark_batch,
    closed_moves,
    column_signs,
    tuple_closed_amplitude,
    two_pass_sum,
    xs,
)

# the module itself: the package re-exports the function `zhat` under its name
zmod = importlib.import_module("flowloop.zhat")

# Phi of the (right) trefoil closure: lacunary with gaps at x^4, x^7, x^10.
TREFOIL_PHI = {
    0: {0: 1},
    4: {2: -1},
    6: {4: -1},
    10: {10: 1},
    12: {14: 1},
    16: {24: -1},
    18: {30: -1},
}

# Phi of the figure-eight closure through x^3.
FIG8_PHI = {
    0: {0: 1},
    2: {0: 2},
    4: {-2: 1, 0: 3, 2: 1},
    6: {-4: 2, -2: 2, 0: 5, 2: 2, 4: 2},
}


def test_trefoil_phi_frozen():
    phi = phi_positive(parse_braid("1 1 1"), 10)
    assert phi == xs(TREFOIL_PHI, trunc=21)


def test_fig8_phi_frozen():
    phi = phi_homogeneous(parse_braid("1 -2 1 -2"), 3)
    assert phi == xs(FIG8_PHI, trunc=7)


def test_trefoil_agrees_with_both_models():
    phi = phi_positive(parse_braid("1 1 1"), 8)
    assert phi == reference_series("trefoil_braid", 8)
    assert phi == reference_series("trefoil_direct", 8)


def test_fig8_agrees_with_both_models():
    phi = phi_homogeneous(parse_braid("1 -2 1 -2"), 4)
    assert phi == reference_series("fig8_braid", 4)
    assert phi == reference_series("fig8_direct", 4)


def test_reference_models_cross_agree():
    assert reference_series("trefoil_braid", 12) == reference_series(
        "trefoil_direct", 12
    )
    assert reference_series("fig8_braid", 6) == reference_series(
        "fig8_direct", 6
    )


def test_reference_series_rejects_unknown_model():
    with pytest.raises(InputError):
        reference_series("granny_knot", 3)


@pytest.mark.parametrize("model", REFERENCE_MODELS)
def test_reference_series_refuses_a_negative_order(model):
    with pytest.raises(InputError, match="^order must be >= 0, got -1$"):
        reference_series(model, -1)


def test_transfer_matches_traces_on_positive_words():
    # all-positive words go through the weight-graded trace route; the
    # column transfer recursion must reproduce it exactly
    for text, order in (("1 1 1", 6), ("1 1 1 2", 5), ("1 1 1 1 1", 5)):
        w = parse_braid(text)
        assert phi_homogeneous(w, order) == phi_positive(w, order)


def test_stabilization_insensitive_to_cutoffs():
    w = parse_braid("1 -2 1 -2")
    base = phi_homogeneous(w, 4)
    assert phi_homogeneous(w, 4, cap=6) == base
    assert phi_homogeneous(w, 4, cap=8) == base
    t = parse_braid("1 1 1")
    assert phi_positive(t, 6, m_cut=8) == phi_positive(t, 6)


def test_phi_positive_rejects_mixed_words():
    with pytest.raises(InputError):
        phi_positive(parse_braid("1 -2 1 -2"), 3)


def test_phi_rejects_links_and_inhomogeneous():
    # one gate, braid.require_homogeneous_knot, serves every route
    for text, message in (
            ("1 1", "closure has 2 components, need a knot"),
            ("1 -1", "braid word n=2; 1 -1 is not homogeneous")):
        for route in (zhat, phi_positive, phi_homogeneous,
                      alexander_classical):
            with pytest.raises(InputError) as exc:
                route(parse_braid(text), 3)
            assert str(exc.value) == message, (route.__name__, text)
    # the template takes links too, so it uses the homogeneity half alone
    with pytest.raises(InputError,
                       match="^braid word n=2; 1 -1 is not homogeneous$"):
        build_template(parse_braid("1 -1"))
    assert build_template(parse_braid("1 1")).branch_count == 2


# ---------------------------------------------------------------------------
# random homogeneous knot words


@st.composite
def mixed_knot_words(draw, negative=True):
    """Homogeneous words on <= 4 strands and <= 7 letters, with a negative
    column unless negative is False.  Every column appears once (so the
    closure is a knot), plus pairs of one column at any two places (most of
    those keep it a knot)."""
    n = draw(st.integers(min_value=2, max_value=4))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n - 1,
                          max_size=n - 1))
    if negative:
        signs[draw(st.integers(min_value=0, max_value=n - 2))] = -1
    cols = list(draw(st.permutations(range(1, n))))
    for _ in range(draw(st.integers(0, (7 - (n - 1)) // 2))):
        c = draw(st.integers(min_value=1, max_value=n - 1))
        for _ in range(2):
            cols.insert(draw(st.integers(0, len(cols))), c)
    letters = " ".join(str(signs[c - 1] * c) for c in cols)
    return parse_braid(f"n={n}; {letters}")


# ---------------------------------------------------------------------------
# prefactor and BPS normalization


def test_prefactor_trefoil():
    res = zhat(parse_braid("1 1 1"), 5)
    assert res.prefactor == (-1, 2, 1)  # -q x^{1/2}
    assert res.sign_pinned
    assert res.zhat == xs(
        {1: {2: -1}, 5: {4: 1}, 7: {6: 1}, 11: {12: -1}}, trunc=12
    )


def test_prefactor_fig8():
    res = zhat(parse_braid("1 -2 1 -2"), 3)
    assert res.prefactor == (1, 0, 1)  # +x^{1/2}
    assert res.sign_pinned
    assert res.zhat.coeff(1) == xs(FIG8_PHI, trunc=7).coeff(0)


def test_unknot_zhat_normalization():
    res = zhat(parse_braid("n=2; 1"), 4)
    assert res.prefactor == (-1, 0, -1)
    assert not res.sign_pinned
    assert res.zhat == xs({-1: {0: -1}, 1: {0: 1}}, trunc=res.zhat.trunc)


@settings(max_examples=60, deadline=None)
@given(st.one_of(mixed_knot_words(), mixed_knot_words(negative=False)))
@example(parse_braid("1 1 1"))
@example(parse_braid("1 -2 1 -2"))
@example(parse_braid("1 1 1 2"))
@example(parse_braid("n=4; 1 -2 1 -3 -2"))
def test_prefactor_matches_genus_form(word):
    # zhat computes the closure form; with g = (c - n + 1)/2 (an integer:
    # a knot closure's permutation is an n-cycle, of sign (-1)^(n-1), and a
    # product of c transpositions), w = c - 2 cr- and lam = cr- - col-, it
    # is the genus form term for term
    s = analyze(word)
    assume(s.closure_components == 1)
    assert (s.c - s.n + 1) % 2 == 0
    assert s.genus == (s.c - s.n + 1) // 2
    sign, q_half, x_half = zhat(word, 2).prefactor
    assert sign == (-1) ** ((1 + s.cr_minus + s.col_minus) % 2)
    assert q_half == s.writhe - (s.n - 1) + 2 * s.col_minus
    assert x_half == s.writhe - s.n + 2 * s.cr_minus
    lam = s.cr_minus - s.col_minus
    assert sign == (-1) ** ((1 + lam) % 2)
    assert q_half == 2 * (s.genus - lam)
    assert x_half == 2 * s.genus - 1


def test_markov_stabilization_invariance():
    # sigma_n-stabilized word has the same closure; prefactor and series
    # must both survive the move
    a = zhat(parse_braid("1 1 1"), 5)
    b = zhat(parse_braid("1 1 1 2"), 5)
    assert a.prefactor == b.prefactor
    assert a.zhat == b.zhat


@pytest.mark.parametrize("text", CORPUS + EXTRA_KNOTS)
def test_zhat_analyzes_the_word_once(monkeypatch, text):
    # zhat's knot gate hands its stats to the engine it picks, on the
    # positive route and on the DP route alike
    calls = []

    def counting(word):
        calls.append(word)
        return analyze(word)

    monkeypatch.setattr(zmod._braid, "analyze", counting)
    word = parse_braid(text)
    assert zhat(word, 3).stats == analyze(word)
    assert len(calls) == 1, calls
    # the public engines keep their own gate
    route = phi_homogeneous if "-" in text else phi_positive
    calls.clear()
    route(word, 3)
    assert len(calls) == 1, calls


# ---------------------------------------------------------------------------
# property: the transfer recursion is exact on random positive knot words

positive_words = st.lists(
    st.integers(min_value=1, max_value=3), min_size=1, max_size=6
)


@settings(max_examples=40, deadline=None)
@given(positive_words)
def test_random_positive_knots(letters):
    text = " ".join(str(v) for v in letters)
    w = parse_braid(text)
    stats = analyze(w)
    if stats.closure_components != 1:
        return
    phi = phi_positive(w, 3)
    assert phi.coeff(0) == xs({0: {0: 1}}).coeff(0)
    assert phi == graded_trace_phi(w, 3, 3)
    assert phi == phi_homogeneous(w, 3)
    _, inv = alexander_classical(w, 3)
    assert phi.specialize_q1() == inv


# ---------------------------------------------------------------------------
# closed-walk Phi and its one-run guard against the graded-trace assembly


def graded_trace_phi(word, order, m_cut):
    """Phi from exact graded traces, truncated after the fact.  The traces
    are matrix products (rep_matrix), not the closed walks phi_positive
    sums, so the oracle stays independent of it."""
    n = word.n
    trunc = 2 * order + 1
    phi = XSeries.zero(trunc)
    for m in range(m_cut + 1):
        tr = rep_matrix(word, m).trace()
        phi = phi + tr * XSeries.monomial(
            QLaurent.monomial(1, -2 * m), 0, trunc)
        phi = phi + tr * XSeries.monomial(
            QLaurent.monomial(-1, 2 * (m + n - 1)), 2 * n, trunc)
    return phi


POSITIVE_CASES = [(text, order) for text in POSITIVE_KNOTS
                  for order in ((4, 6) if "2" in text else (4, 6, 9))]


@pytest.mark.parametrize("text,order", POSITIVE_CASES)
def test_walk_phi_and_guard_match_graded_traces(text, order):
    word = parse_braid(text)
    for m_cut in range(order + 1):
        old = graded_trace_phi(word, order, m_cut)
        assert phi_positive(word, order, m_cut, stabilize=False) == old
        old_unstable = old != graded_trace_phi(word, order, m_cut + 2)
        try:
            phi_positive(word, order, m_cut)
            unstable = False
        except VerificationError as exc:
            unstable = "not stable" in str(exc)
        assert unstable == old_unstable, m_cut
    assert not unstable  # the default cutoff, m_cut = order, is stable


def test_trefoil_guard_raises_below_cutoff_two():
    w = parse_braid("1 1 1")
    for m_cut in (0, 1):
        with pytest.raises(VerificationError,
                           match=rf"n=2; 1 1 1 at order 6, m_cut {m_cut}$"):
            phi_positive(w, 6, m_cut)
    assert phi_positive(w, 6, 2) == phi_positive(w, 6)


@pytest.mark.parametrize("text", POSITIVE_KNOTS + ("1 -2 1 -2",))
def test_phi_monomials_are_shared(text):
    # a kept Phi holds no dict of its own for a small monomial coefficient:
    # both engines wrap their tables with XSeries._adopt
    word = parse_braid(text)
    phi = (phi_homogeneous if "-" in text else phi_positive)(word, 8)
    shared = 0
    for coeff in phi.terms.values():
        if len(coeff.terms) == 1:
            ((e, c),) = coeff.terms.items()
            assert coeff is ring._monomial(c, e), (e, c)
            shared += 1
    assert shared


def test_shared_monomials_stay_intact():
    # ring._monomial hands one QLaurent to every series with that small
    # coefficient, so an in-place add into a table built from some .terms
    # would silently change all of them: after everything that hands them
    # out has run, and some arithmetic on its results, each must still be
    # exactly c q^(e/2)
    for text in CORPUS + EXTRA_KNOTS:
        word = parse_braid(text)
        order = 5 if word.n > 3 else 6
        res = zhat(word, order)
        res.phi.specialize_q1()
        res.zhat.specialize_q1()
        assert (res.phi + res.phi) * res.phi == res.phi * res.phi * 2
        if "-" not in text:  # the DP route too, not only the trace route
            phi_homogeneous(word, order).specialize_q1()
        # the q = 1 outputs are built from shared monomials as well
        delta, inv = alexander_classical(word, order)
        zeta = zeta_classical(word, order)
        assert (inv + zeta) * inv - inv * inv == zeta * inv
        assert (delta - inv) * 2 + inv == delta * 2 - inv
        assert -zeta.mul_term(3, 2) == zeta * XSeries.monomial(-3, 2)
    assert all(check.ok for check in run_suite("all"))
    assert ring._SHARED
    for (c, e), coeff in ring._SHARED.items():
        assert coeff.terms == {e: c}, (c, e)


# ---------------------------------------------------------------------------
# the pruned transfer DP and its cap guard against a test-local oracle DP


def oracle_bottoms(n, cap, bound=None):
    """The starting label vectors, n - 1 labels in [0, bound] with sum
    <= 2 cap, as heads of the compositions of 2 cap into n parts (the last
    part takes up the slack), in lexicographic order."""
    if bound is None:
        bound = cap
    return [s[:-1] for s in weight_states(n + 1, 2 * cap)
            if max(s[:-1], default=0) <= bound]


def test_bottoms_match_composition_filter():
    for n in range(1, 6):
        for cap in range(7):
            for bound in range(cap + 1):
                assert zmod._bottoms(n, cap, bound) == oracle_bottoms(
                    n, cap, bound), (n, cap, bound)


def test_need_is_the_smallest_cap_of_a_move():
    # a move's need is the largest label it lands on: from a source whose
    # labels fit under cap, the moves at cap are exactly the moves at any
    # larger cap that land within cap
    top = 5
    for mid_sign, kindL, kindR in product((1, -1), (1, 0, -1), (1, 0, -1)):
        for lL, lM, lR in product(range(top + 1), repeat=3):
            if (kindL == 0 and lL) or (kindR == 0 and lR):
                continue
            at_top = zmod._transitions(
                (mid_sign, kindL, kindR, lL, lM, lR, top), {})
            for cap in range(max(lL, lM, lR), top + 1):
                key = (mid_sign, kindL, kindR, lL, lM, lR, cap)
                assert zmod._transitions(key, {}) == [
                    m for m in at_top if max(m[:3]) <= cap], key


def branchy_transitions(key):
    """The crossing rule with a branch for the boundary and one per sign
    of the middle and of each neighbor (test oracle for zhat._transitions,
    which reads the boundary as a column of kind 0 and label 0)."""
    mid_sign, kindL, kindR, lL, lM, lR, cap = key

    def shed_range(kind, label):
        if kind == 0:
            return (0,)
        if kind > 0:
            return range(label + 1)  # label drops, stays >= 0
        return range(cap - label + 1)  # hat rises, stays <= cap

    out = []
    for b in shed_range(kindL, lL):
        for c in shed_range(kindR, lR):
            v = lM - b - c if mid_sign < 0 else lM + b + c
            if v < 0 or v > cap:
                continue
            nL = (lL - b) if kindL > 0 else (lL + b if kindL else lL)
            nR = (lR - c) if kindR > 0 else (lR + c if kindR else lR)
            out.append((nL, v, nR, lM + v,
                        zmod._crossing_weight(mid_sign, min(lM, v), b, c)))
    out.sort(key=itemgetter(3))
    return out


def test_transitions_match_the_branchy_rule():
    # every key up to cap 6: both middle signs, neighbor kinds +1/0/-1 and
    # every label within the cap, a boundary (kind 0) holding label 0
    keys = 0
    for cap in range(7):
        for mid_sign, kindL, kindR in product((1, -1), (1, 0, -1),
                                              (1, 0, -1)):
            for lL, lM, lR in product(range(cap + 1), repeat=3):
                if (kindL == 0 and lL) or (kindR == 0 and lR):
                    continue
                key = (mid_sign, kindL, kindR, lL, lM, lR, cap)
                assert zmod._transitions(key, {}) == \
                    branchy_transitions(key), key
                keys += 1
    assert keys == 7448


def three_branch_weight(mid_sign, reversed_mid, u, b, c):
    """The crossing weight as three hand-written readings (test oracle)."""
    if mid_sign > 0:
        v = u + b + c
        coeff = ring.qtrinom(v, u, b, c).shift(u * u + v)
        odd = u % 2
    elif not reversed_mid:
        v = u - b - c
        coeff = ring.qtrinom(u, b, v, c).bar().shift(-(v * v + u))
        odd = v % 2
    else:
        v = u + b + c
        coeff = ring.qtrinom(v, b, u, c).bar().shift(-(u * u + v))
        odd = u % 2
    return -coeff if odd else coeff


def test_crossing_weight_matches_three_branch_oracle():
    # one formula of the low label min(u, v), barred for a negative
    # middle, against the positive, negative and reversed readings
    for u in range(9):
        for b, c in product(range(6), repeat=2):
            assert zmod._crossing_weight(1, u, b, c) == \
                three_branch_weight(1, False, u, b, c), (u, b, c)
            assert zmod._crossing_weight(-1, u, b, c) == \
                three_branch_weight(-1, True, u, b, c), (u, b, c)
            if u - b - c >= 0:
                assert zmod._crossing_weight(-1, u - b - c, b, c) == \
                    three_branch_weight(-1, False, u, b, c), (u, b, c)


def oracle_min_plus(word, col_sign, bottom, budget, cap, cache, rule=None):
    """Per letter, every move at cap out of the states reachable from
    bottom, with the exact cheapest x-half cost from bottom to each state
    (forward) and from each state back to bottom (backward).  With a
    budget, states whose forward cost exceeds it are dropped (they lie on
    no closed path within it); without one, nothing is.  rule gives the
    moves of one crossing, zhat._transitions unless named."""
    rule = rule or zmod._transitions
    n = word.n
    fwd = [{bottom: 0}]
    steps = []
    for v_letter in word.letters:
        i = abs(v_letter)
        sign = col_sign[i - 1]
        kindL = col_sign[i - 2] if i >= 2 else 0
        kindR = col_sign[i] if i <= n - 2 else 0
        moves = []
        nxt = {}
        for state, cost in fwd[-1].items():
            lL = state[i - 2] if i >= 2 else 0
            lM = state[i - 1]
            lR = state[i] if i <= n - 2 else 0
            key = (sign, kindL, kindR, lL, lM, lR, cap)
            for nL, nM, nR, xh, coeff in rule(key, cache):
                if budget is not None and cost + xh > budget:
                    continue
                t = list(state)
                if i >= 2:
                    t[i - 2] = nL
                t[i - 1] = nM
                if i <= n - 2:
                    t[i] = nR
                dst = tuple(t)
                moves.append((state, dst, xh, coeff))
                nxt[dst] = min(nxt.get(dst, cost + xh), cost + xh)
        fwd.append(nxt)
        steps.append(moves)
    back = [{bottom: 0}]
    for moves in reversed(steps):
        prev = {}
        for src, dst, xh, _ in moves:
            if dst in back[0]:
                prev[src] = min(prev.get(src, xh + back[0][dst]),
                                xh + back[0][dst])
        back.insert(0, prev)
    return steps, fwd, back


def oracle_amplitude(word, col_sign, bottom, trunc, cap, cache, prune,
                     rule=None):
    """The transfer DP at cap.  Unpruned, it takes every move from every
    state; pruned, only the moves on some closed path within trunc."""
    steps, fwd, back = oracle_min_plus(
        word, col_sign, bottom, trunc if prune else None, cap, cache, rule)
    vec = {bottom: XSeries.one(trunc)}
    for k, moves in enumerate(steps):
        nxt = {}
        for src, dst, xh, coeff in moves:
            if src not in vec:
                continue
            if prune and (dst not in back[k + 1]
                          or fwd[k][src] + xh + back[k + 1][dst] > trunc):
                continue
            term = vec[src].mul_term(coeff, xh)
            if term.is_zero:
                continue
            cur = nxt.get(dst)
            nxt[dst] = term if cur is None else cur + term
        vec = nxt
    return vec.get(bottom, XSeries.zero(trunc))


def oracle_phi(word, order, cap, prune=False, rule=None):
    """Phi at cap from the oracle DP over every bottom of the composition
    filter."""
    n = word.n
    col_sign = column_signs(word)
    col_plus = sum(1 for s in col_sign if s > 0)
    col_minus = n - 1 - col_plus
    trunc = 2 * order + 1
    cache = {}
    phi = XSeries.zero(trunc)
    for bottom in oracle_bottoms(n, cap):
        amp = oracle_amplitude(word, col_sign, bottom, trunc, cap, cache,
                               prune, rule)
        m_tilde = sum(l if s > 0 else -l for l, s in zip(bottom, col_sign))
        # the axis-sector factor of the module docstring,
        # q^{(2 eps - 1) m~ + eps (col+ - col-)} (-x^n)^eps
        for eps in (0, 1):
            q_power = (2 * eps - 1) * m_tilde + eps * (col_plus - col_minus)
            phi = phi + amp.mul_term(
                QLaurent.monomial((-1) ** eps, 2 * q_power), 2 * n * eps)
    return phi


def dp_amplitude(word, col_sign, bottom, trunc, limit):
    """zhat._closed_amplitude of one bottom at label bound limit, through
    the letter tables that _phi_homogeneous_run hands it."""
    letters = [abs(v) for v in word.letters]
    return zmod._closed_amplitude(
        letters, zmod._letter_tables(letters, col_sign, limit), col_sign,
        bottom, trunc, limit)


def closed_amplitude(word, col_sign, bottom, trunc, cap):
    """_closed_amplitude at cap, through the label bound, as an XSeries."""
    return XSeries._adopt(dp_amplitude(
        word, col_sign, bottom, trunc, zmod._label_bound(trunc, cap)), trunc)


def two_run_phi_homogeneous(word, order, cap):
    """The guard as two DP runs: Phi at cap must equal Phi at cap + 2."""
    phi = oracle_phi(word, order, cap, prune=True)
    if phi != oracle_phi(word, order, cap + 2, prune=True):
        raise VerificationError(f"label cap {cap} not stable")
    return zmod._finalize_phi(phi, "phi_homogeneous", word, order, cap)


def outcome(fn, *args):
    """Phi, "unstable", or the message of any other VerificationError."""
    try:
        return fn(*args)
    except VerificationError as exc:
        return "unstable" if "not stable" in str(exc) else str(exc)


# the move rule of the one reading, kept unpatched for the reversed rule
standard_transitions = zmod._transitions


def reversed_transitions(key, cache):
    """The upside-down reading of a negative crossing: there the middle
    hat rises by the sheds and each neighbor's true label rises by what it
    sheds, instead of falling, with the same weight function of the sign,
    the low label and the sheds.  Positive crossings move as in
    zhat._transitions."""
    mid_sign, kindL, kindR, lL, lM, lR, cap = key
    if mid_sign > 0:
        return standard_transitions(key, cache)

    def shed_range(kind, label):
        if kind == 0:
            return (0,)
        return range(label + 1) if kind > 0 else range(cap - label + 1)

    out = []
    for b in shed_range(kindL, lL):
        for c in shed_range(kindR, lR):
            v = lM + b + c
            if v > cap:
                continue
            nL = (lL + b) if kindL > 0 else (lL - b if kindL else lL)
            nR = (lR + c) if kindR > 0 else (lR - c if kindR else lR)
            if (kindL > 0 and nL > cap) or (kindL < 0 and nL < 0):
                continue
            if (kindR > 0 and nR > cap) or (kindR < 0 and nR < 0):
                continue
            out.append((nL, v, nR, lM + v,
                        zmod._crossing_weight(-1, lM, b, c)))
    out.sort(key=itemgetter(3))
    return out


def test_reversed_orientation_is_the_rejected_reading():
    # the upside-down crossing rule is kept as a falsifiable control: it
    # must NOT reproduce the loop count (fig8 loses its 2x term entirely),
    # and its series is stable under raising the cap
    w = parse_braid("1 -2 1 -2")
    for cap in (2, 4):
        rev = oracle_phi(w, 2, cap, rule=reversed_transitions)
        assert rev == xs({0: {0: 1}, 4: {-2: 1, 2: 1}}, trunc=5), cap
    assert rev != reference_series("fig8_braid", 2)
    assert oracle_phi(w, 2, 2) == reference_series("fig8_braid", 2)


MIXED = tuple(w for w in CORPUS + EXTRA_KNOTS if "-" in w)
PRUNING_CASES = [
    (text, order)
    for text in MIXED
    for order in ((4, 5) if text.startswith("n=4") else (4, 6))
]
# at cap 2 the bottoms (1, 2, 2), (2, 2, 1) and (2, 2, 2) of this word
# close although their label sum exceeds 2 cap: only the sum filter of
# _bottoms keeps them out of Phi at cap
DP_CASES = PRUNING_CASES + [("n=4; -1 -1 -1 3 2", 4)]


@pytest.mark.parametrize("text,order", DP_CASES)
def test_pruned_dp_matches_unpruned_on_every_bottom(text, order):
    word = parse_braid(text)
    col_sign = column_signs(word)
    trunc = 2 * order + 1
    oracle_cache = {}
    for cap in (order - 2, order, order + 2):
        live = removed = 0
        for bottom in oracle_bottoms(word.n, cap):
            amp = closed_amplitude(word, col_sign, bottom, trunc, cap)
            assert amp == oracle_amplitude(word, col_sign, bottom, trunc, cap,
                                           oracle_cache, False), (bottom, cap)
            live += not amp.is_zero
            # the label bound: a state with a label above order lies on no
            # closed path of cost <= trunc
            _, fwd, back = oracle_min_plus(word, col_sign, bottom, trunc,
                                           cap, oracle_cache)
            for ahead, behind in zip(fwd, back):
                for state, cost in ahead.items():
                    if max(state) > order:
                        removed += 1
                        assert cost + behind.get(state, trunc + 1) \
                            > trunc, (bottom, state)
        assert live  # some bottom closes, so the comparison is not vacuous
        if cap > order:
            assert removed  # the bound removed states, and they were dead


def check_bottom_bounds(word, order, cap):
    """Check the two bounds of the DP on every bottom of the composition
    filter at cap against the exact min-plus costs of the oracle run
    without a budget:

    * the cheapest closed path from a bottom b costs >= 2 W(b), and a bottom
      that the window bound drops (2 W(b) > trunc) has a zero unpruned
      amplitude;
    * from every reached state after letter j the cheapest way back to b
      costs >= h_j(b) = trunc - (letter j's budget);
    * _closed_amplitude keeps the same moves and amplitudes with and
      without the letter budgets: the moves the test-local closed_moves
      keeps of the layers that _closed_amplitude hands to walks.sum_paths.

    Returns how many bottoms the window bound dropped, how many reached
    states the budgets exclude although they are within trunc, and how
    many forward moves the budgets spared."""
    col_sign = column_signs(word)
    letters = [abs(v) for v in word.letters]
    live = zmod._live_edges(letters, col_sign)
    trunc = 2 * order + 1
    limit = zmod._label_bound(trunc, cap)
    real = zmod._walks.sum_paths
    runs = []

    def spy(start, layers, trunc):
        runs.append((sum(len(moves) for _, moves in layers),
                     closed_moves(start, layers, trunc)))
        return real(start, layers, trunc)

    def unbudgeted(letters, col_sign, bottom, trunc):
        return [trunc] * len(letters)

    oracle_cache = {}
    dropped = excluded = spared = 0
    for bottom in oracle_bottoms(word.n, cap):
        _, fwd, back = oracle_min_plus(word, col_sign, bottom, None, cap,
                                       oracle_cache)
        bound = 2 * zmod._window_bound(bottom, live)
        closing = back[0].get(bottom)
        assert closing is None or closing >= bound, (bottom, closing, bound)
        if bound > trunc:
            dropped += 1
            assert oracle_amplitude(word, col_sign, bottom, trunc, cap,
                                    oracle_cache, False).is_zero
        budgets = zmod._letter_budgets(letters, col_sign, bottom, trunc)
        for budget, ahead, behind in zip(budgets, fwd[1:], back[1:]):
            for state, cost in ahead.items():
                if state in behind:
                    assert behind[state] >= trunc - budget, (bottom, state)
                excluded += budget < cost <= trunc
        outcomes = []
        for budgeted in (True, False):
            runs.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(zmod._walks, "sum_paths", spy)
                if not budgeted:
                    patch.setattr(zmod, "_letter_budgets", unbudgeted)
                amplitude = dp_amplitude(word, col_sign, bottom, trunc,
                                         limit)
            # a forward pass that dies early keeps no move
            moves, kept = runs[0] if runs else (0, [[] for _ in letters])
            outcomes.append((amplitude, moves, [
                sorted(layer, key=itemgetter(0, 1)) for layer in kept]))
        (amp, moves, kept), (amp_all, moves_all, kept_all) = outcomes
        assert amp == amp_all and kept == kept_all, bottom
        spared += moves_all - moves
    return dropped, excluded, spared


@pytest.mark.parametrize("text,order", DP_CASES)
def test_window_bound_and_letter_budgets(text, order):
    word = parse_braid(text)
    for cap in (order, order + 2):
        dropped, excluded, spared = check_bottom_bounds(word, order, cap)
        # each bound removed something, so no check above is vacuous
        assert dropped and excluded and spared, (cap, dropped, excluded,
                                                 spared)


@pytest.mark.parametrize("text,order", DP_CASES)
def test_one_run_guard_matches_two_runs(text, order):
    # phi_homogeneous reruns at cap + 2 only below the order; at every cap
    # it must raise exactly when the oracle DP's Phi(cap + 2) != Phi(cap)
    word = parse_braid(text)
    for cap in range(order + 3):
        assert outcome(phi_homogeneous, word, order, cap) \
            == outcome(two_run_phi_homogeneous, word, order, cap), cap


def test_guard_reruns_only_below_the_order(monkeypatch):
    real = zmod._phi_homogeneous_run
    caps = []

    def spy(word, order, cap, col_sign):
        caps.append(cap)
        return real(word, order, cap, col_sign)

    monkeypatch.setattr(zmod, "_phi_homogeneous_run", spy)
    word = parse_braid("1 -2 1 -2")
    order = 4
    for cap, stabilize, runs in ((None, True, [4]), (4, True, [4]),
                                 (5, True, [5]), (9, True, [9]),
                                 (3, True, [3, 5]), (2, True, [2, 4]),
                                 (3, False, [3]), (6, False, [6])):
        caps.clear()
        outcome(phi_homogeneous, word, order, cap, stabilize)
        assert caps == runs, (cap, stabilize)


def assert_high_bottoms_cost_past_trunc(word, order):
    """Every bottom b with sum b > 2 order, up to the bottoms that Phi at
    order + 2 starts from, has 2 W(b) > trunc: the lemma that lets
    phi_homogeneous skip its rerun at cap >= order."""
    col_sign = column_signs(word)
    live = zmod._live_edges([abs(v) for v in word.letters], col_sign)
    trunc = 2 * order + 1
    checked = 0
    for bottom in oracle_bottoms(word.n, order + 2, 2 * order + 4):
        if sum(bottom) > 2 * order:
            checked += 1
            assert 2 * zmod._window_bound(bottom, live) > trunc, bottom
    assert checked


@pytest.mark.parametrize("text,order", DP_CASES)
def test_bottoms_above_twice_the_order_cost_past_trunc(text, order):
    assert_high_bottoms_cost_past_trunc(parse_braid(text), order)


# ---------------------------------------------------------------------------
# the in-place series accumulation against the XSeries walk it replaced


def series_walk(start, layers, trunc):
    """walks.sum_paths as a forward walk over every move of the forward
    pass's (reach, moves) layers, truncated at trunc only: one mul_term per
    move and one XSeries addition per merge, returned as a raw table of
    fresh dicts (the caller adds into it in place, and a coefficient may be
    a shared ring._monomial)."""
    vec = {start: XSeries.one(trunc)}
    for _, moves in layers:
        nxt = {}
        for src, dst, xh, coeff in moves:
            amp = vec.get(src)
            if amp is None:
                continue
            term = amp.mul_term(coeff, xh)
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
    return {x: dict(q.terms) for x, q in vec.get(start, XSeries.zero(trunc))
            .terms.items()}


EXACT_CASES = [(text, 5 if text.startswith("n=4") else 6)
               for text in CORPUS + EXTRA_KNOTS]


@pytest.fixture
def fresh_column_tables():
    """Empty the process-wide column tables of the transfer DP before and
    after a test that swaps its move rule, so that no table built by one
    rule serves the other, in this test or a later one."""
    zmod._column_table.cache_clear()
    yield
    zmod._column_table.cache_clear()


@pytest.mark.parametrize("reading", ("standard", "reversed"))
@pytest.mark.parametrize("text,order", EXACT_CASES)
@pytest.mark.usefixtures("fresh_column_tables")
def test_in_place_dp_matches_series_walk(text, order, reading, monkeypatch):
    # the reversed case feeds the DP a second move rule, the test-local
    # reversed_transitions, with the bounds proven for the one reading
    # (_label_bound, _window_bound, _letter_budgets) switched off: the
    # in-place sums must not depend on the moves they are given
    word = parse_braid(text)
    col_sign = column_signs(word)
    trunc = 2 * order + 1
    if reading == "reversed":
        monkeypatch.setattr(zmod, "_transitions", reversed_transitions)
        monkeypatch.setattr(zmod, "_label_bound", lambda trunc, cap: cap)
        monkeypatch.setattr(zmod, "_window_bound", lambda bottom, live: 0)
        monkeypatch.setattr(zmod, "_letter_budgets",
                            lambda letters, col_sign, bottom, trunc:
                            [trunc] * len(letters))
    for cap in range(order - 2, order + 3):
        limit = zmod._label_bound(trunc, cap)
        bottoms = oracle_bottoms(word.n, cap)
        tables = [dp_amplitude(word, col_sign, bottom, trunc, limit)
                  for bottom in bottoms]
        phi = zmod._phi_homogeneous_run(word, order, cap, col_sign)
        with monkeypatch.context() as patch:
            patch.setattr(zmod._walks, "sum_paths", series_walk)
            for bottom, got in zip(bottoms, tables):
                # raw dict equality: no empty x-term, no zero coefficient
                assert got == dp_amplitude(word, col_sign, bottom, trunc,
                                           limit), (bottom, cap)
        if reading == "reversed":
            assert phi == oracle_phi(word, order, cap, prune=True,
                                     rule=reversed_transitions), cap
            continue
        assert phi == oracle_phi(word, order, cap, prune=True), cap
        if cap <= order:
            # the guard against the two-run oracle, the skipped rerun at
            # cap = order included
            assert outcome(phi_homogeneous, word, order, cap) \
                == outcome(two_run_phi_homogeneous, word, order, cap), cap


@pytest.mark.parametrize("text,order", sorted(set(DP_CASES + EXACT_CASES)))
def test_backward_sum_matches_two_pass_sum(text, order, monkeypatch):
    # per bottom, the one backward series pass against the two passes it
    # replaced, as raw dicts: no empty x-term, no zero coefficient
    word = parse_braid(text)
    col_sign = column_signs(word)
    trunc = 2 * order + 1
    real = zmod._walks.sum_paths
    closing = []

    def both(start, layers, trunc):
        got = real(start, layers, trunc)
        assert got == two_pass_sum(start, layers, trunc), (start, cap)
        closing.append(bool(got))
        return got

    monkeypatch.setattr(zmod._walks, "sum_paths", both)
    for cap in range(order - 2, order + 3):
        limit = zmod._label_bound(trunc, cap)
        for bottom in oracle_bottoms(word.n, cap):
            dp_amplitude(word, col_sign, bottom, trunc, limit)
    assert any(closing)


def unpack(state, width, n):
    """The padded label tuple of a packed state: the fields of columns
    0..n, the boundary columns 0 and n included.  Nothing may sit above
    column n's field."""
    assert state >> (n + 1) * width == 0, state
    low = (1 << width) - 1
    return tuple((state >> k * width) & low for k in range(n + 1))


@pytest.mark.parametrize("text,order", sorted(set(DP_CASES + EXACT_CASES)))
def test_packed_dp_matches_tuple_dp(text, order, monkeypatch):
    # per bottom, the forward pass over packed states keeps the same reach
    # and the same moves in the same order as the padded-tuple pass of the
    # test-local oracle, and sums to the same raw table: every packed state
    # is the bit image of its padded tuple, boundary zeros included
    word = parse_braid(text)
    col_sign = column_signs(word)
    trunc = 2 * order + 1
    real = zmod._walks.sum_paths
    passes = []

    def spy(start, layers, trunc):
        passes.append(layers)
        return real(start, layers, trunc)

    def labels(layers, state_labels):
        return [({state_labels(s): cost for s, cost in reach.items()},
                 [(state_labels(src), state_labels(dst), xh, coeff)
                  for src, dst, xh, coeff in moves])
                for reach, moves in layers]

    monkeypatch.setattr(zmod._walks, "sum_paths", spy)
    closing = 0
    for cap in range(order - 2, order + 3):
        limit = zmod._label_bound(trunc, cap)
        width = zmod._field_width(limit)
        oracle_cache = {}
        for bottom in oracle_bottoms(word.n, cap):
            passes.clear()
            got = dp_amplitude(word, col_sign, bottom, trunc, limit)
            want = tuple_closed_amplitude(word, col_sign, bottom, trunc,
                                          limit, oracle_cache)
            assert got == want, (bottom, cap)
            # both sum a closed walk or neither does
            assert len(passes) in (0, 2), (bottom, cap)
            if passes:
                closing += 1
                packed, padded = passes
                assert labels(packed, lambda s: unpack(s, width, word.n)) \
                    == labels(padded, lambda s: s), (bottom, cap)
    assert closing


def assert_moves_splice(col_sign, src_labels, limit):
    """_pack is the bit image of the label tuple padded with a boundary 0
    at each end: the field read at (i - 1) B is the padded triple of
    columns i - 1..i + 1 for every column i, 1 and n - 1 included, and
    every move of the crossing, added as a delta, lands on the packed
    state of the spliced padded tuple, with bits [0, B) and everything
    from bit n B up still zero."""
    n = len(src_labels) + 1
    width = zmod._field_width(limit)
    low = (1 << width) - 1
    kinds = (0,) + col_sign + (0,)
    padded = (0,) + src_labels + (0,)
    src = zmod._pack(src_labels, width)
    assert src & low == 0 and src >> n * width == 0
    assert unpack(src, width, n) == padded
    for i in range(1, n):
        field = (src >> (i - 1) * width) & ((1 << 3 * width) - 1)
        assert field == (padded[i - 1] | padded[i] << width
                         | padded[i + 1] << 2 * width), i
        moves = zmod._field_moves(col_sign, i, field, limit, {})
        key = (kinds[i], kinds[i - 1], kinds[i + 1],
               padded[i - 1], padded[i], padded[i + 1], limit)
        want = zmod._transitions(key, {})
        assert [(xh, coeff) for _, xh, coeff in moves] \
            == [(xh, coeff) for _, _, _, xh, coeff in want]
        for (delta, _, _), (nL, nM, nR, _, _) in zip(moves, want):
            dst = src + delta
            spliced = padded[:i - 1] + (nL, nM, nR) + padded[i + 2:]
            assert dst & low == 0 and dst >> n * width == 0, (i, spliced)
            assert unpack(dst, width, n) == spliced
            assert zmod._pack(spliced[1:-1], width) == dst


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_field_moves_splice_the_crossing_into_the_packed_state(data):
    # every limit up to 17, so every field width 1..5 and both sides of
    # each width step (2^k - 1 and 2^k), with n from 2 to 6
    for limit in range(18):
        n = data.draw(st.integers(2, 6), label="n")
        col_sign = tuple(data.draw(st.lists(
            st.sampled_from((1, -1)), min_size=n - 1, max_size=n - 1)))
        src_labels = tuple(data.draw(st.lists(
            st.integers(0, limit), min_size=n - 1, max_size=n - 1)))
        assert_moves_splice(col_sign, src_labels, limit)


# order 4 runs at labels 2..4, order 7 at 5..7: limits 4 and 7 share the
# field width 3, so their tables differ only in the limit of their key
TABLE_CASES = [(text, order) for text in CORPUS + EXTRA_KNOTS
               for order in (4, 7)]


def phi_at_caps(word, order):
    """phi_homogeneous (or "unstable") at caps order - 2..order + 2."""
    return [outcome(phi_homogeneous, word, order, cap)
            for cap in range(order - 2, order + 3)]


def cold_phi_at_caps(word, order):
    """phi_at_caps with every column table built by this word alone, and
    the number of tables it built."""
    zmod._column_table.cache_clear()
    phi = phi_at_caps(word, order)
    return phi, zmod._column_table.cache_info().currsize


def test_column_tables_do_not_depend_on_the_word_that_built_them():
    # every Phi through tables warmed by the words before it, in both
    # orders, equals Phi through tables of its own
    cold = {(text, order): cold_phi_at_caps(parse_braid(text), order)
            for text, order in TABLE_CASES}
    for cases in (TABLE_CASES, TABLE_CASES[::-1]):
        zmod._column_table.cache_clear()
        for text, order in cases:
            assert phi_at_caps(parse_braid(text), order) \
                == cold[text, order][0], (text, order)
        # words share tables, so the comparison is not vacuous
        assert zmod._column_table.cache_info().currsize \
            < sum(size for _, size in cold.values())


@settings(max_examples=40, deadline=None)
@given(st.lists(mixed_knot_words(), min_size=2, max_size=2))
def test_column_tables_built_by_another_word_give_the_same_phi(words):
    warm, word = words
    assume(analyze(warm).closure_components == 1)
    assume(analyze(word).closure_components == 1)
    want, _ = cold_phi_at_caps(word, 3)
    zmod._column_table.cache_clear()
    phi_at_caps(warm, 3)
    assert phi_at_caps(word, 3) == want


@settings(max_examples=50, deadline=None)
@given(mixed_knot_words())
def test_random_mixed_knots(word):
    assume(analyze(word).closure_components == 1)
    phi = phi_homogeneous(word, 3)
    assert phi == oracle_phi(word, 3, 3)
    _, inv = alexander_classical(word, 3)
    assert phi.specialize_q1() == inv
    # the guard against the two-run oracle, below the default cap too
    for cap in range(4):
        assert outcome(phi_homogeneous, word, 3, cap) \
            == outcome(two_run_phi_homogeneous, word, 3, cap), cap
    # the window bound and the letter budgets against exact min-plus costs,
    # and the lemma behind the skipped rerun
    for cap in (3, 5):
        check_bottom_bounds(word, 3, cap)
    assert_high_bottoms_cost_past_trunc(word, 3)


# ---------------------------------------------------------------------------
# Phi and Zhat are invariants of the closure: equal on every conjugate
# (Markov's theorem; Birman, Braids, Links, and Mapping Class Groups)


def conjugates(word):
    """Every cyclic rotation of the word and of its half-twist flip
    sigma_i <-> sigma_{n-i}; each closes to the same knot."""
    n, letters = word.n, list(word.letters)
    flip = [(n - abs(v)) * (1 if v > 0 else -1) for v in letters]
    return [parse_braid(f"n={n}; " + " ".join(map(str, w[k:] + w[:k])))
            for w in (letters, flip) for k in range(len(w))]


def assert_conjugation_invariant(word, order):
    want = zhat(word, order)
    for other in conjugates(word):
        got = zhat(other, order)
        assert (got.phi, got.zhat) == (want.phi, want.zhat), \
            render_word(other)


def benchmark_zhat_items(seed):
    """The distinct (word, order) zhat items of every benchmark workload
    for one seed, in batch order."""
    items = {}
    for name in ("mixed-dp", "positive-trace", "q1-zeta"):
        for item in benchmark_batch(name, seed):
            if item.kind == "zhat":
                items.setdefault((item.braid, item.order), None)
    return list(items)


CONJUGATION_CASES = {
    "corpus": [(text, 8 if text == "1 1 1" else 4)
               for text in CORPUS + EXTRA_KNOTS],
    "benchmark-seed-1": [(text, min(order, 4)) for text, order
                         in benchmark_zhat_items(1)[:30]],
}


@pytest.mark.parametrize("cases", CONJUGATION_CASES.values(),
                         ids=CONJUGATION_CASES.keys())
def test_phi_is_conjugation_invariant_on_knots(cases):
    for text, order in cases:
        assert_conjugation_invariant(parse_braid(text), order)


@settings(max_examples=40, deadline=None)
@given(st.one_of(mixed_knot_words(), mixed_knot_words(negative=False)))
def test_phi_is_conjugation_invariant(word):
    assume(analyze(word).closure_components == 1)
    assert_conjugation_invariant(word, 3)


# ---------------------------------------------------------------------------
# the mirror image: negating every letter mirrors the knot, which bars q in
# Phi and in Zhat; an all-positive word's mirror runs on the other route


def mirror(word):
    return parse_braid(f"n={word.n}; "
                       + " ".join(str(-v) for v in word.letters))


@settings(max_examples=40, deadline=None)
@given(st.one_of(mixed_knot_words(), mixed_knot_words(negative=False)),
       st.integers(min_value=0, max_value=5))
def test_mirror_pair_bars_q(word, order):
    assume(analyze(word).closure_components == 1)
    res, bar = zhat(word, order), zhat(mirror(word), order)
    assert bar.phi == res.phi.bar_q()
    assert bar.zhat == res.zhat.bar_q()


# ---------------------------------------------------------------------------
# both Phi routes refuse an order or cap past PHI_WORK_LIMIT


class Measured(Exception):
    """Stops a Phi route once its work estimate is known."""


def phi_work(word, order):
    """The start states x letters that zhat(word, order) checks against
    PHI_WORK_LIMIT."""
    seen = []

    def spy(starts, kind, word, order):
        seen.append(starts * len(word.letters))
        raise Measured

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zmod, "_require_work", spy)
        with pytest.raises(Measured):
            zhat(word, order)
    return seen[0]


def test_phi_work_limit_leaves_a_tenfold_margin():
    items = {(text, 8) for text in CORPUS + EXTRA_KNOTS}
    for seed in (1, 2, 3):
        items.update(benchmark_zhat_items(seed))
    for text, order in sorted(items):
        assert 10 * phi_work(parse_braid(text), order) \
            <= zmod.PHI_WORK_LIMIT, (text, order)


@pytest.mark.parametrize("route,text,order,kind", [
    (phi_positive, "1 1 1", 32, "start states"),
    (phi_homogeneous, "1 -2 1 -2", 4, "bottoms"),
], ids=["positive", "dp"])
def test_phi_work_limit_is_the_work_estimate(monkeypatch, route, text, order,
                                             kind):
    # with the limit at 100, the largest fitting order runs and the next
    # is refused: the trefoil needs 3 (order + 1) start states x letters,
    # fig8 4 (order + 1)^2 bottoms x letters
    monkeypatch.setattr(zmod, "PHI_WORK_LIMIT", 100)
    word = parse_braid(text)
    assert zhat(word, order).phi == route(word, order)
    bigger = order + 2 if kind == "start states" else (order + 2) ** 2
    letters = len(word.letters)
    with pytest.raises(InputError, match=(
            rf"^order {order + 1} needs {bigger * letters} forward steps "
            rf"\({bigger} {kind} x {letters} letters\), past "
            rf"PHI_WORK_LIMIT = 100$")):
        zhat(word, order + 1)
    # below the order, the cutoff bounds the estimate instead
    route(word, 3 * order, order, stabilize=False)
    with pytest.raises(InputError, match=f"^order {3 * order} needs "):
        route(word, 3 * order, order + 1, stabilize=False)


# ---------------------------------------------------------------------------
# errors name the word, order and cap


def test_finalize_phi_names_word_order_and_cap():
    word = parse_braid("1 -2 1 -2")
    with pytest.raises(VerificationError,
                       match=r"n=3; 1 -2 1 -2 at order 2, cap 4 does not"):
        zmod._finalize_phi(xs({0: {0: 2}}, trunc=5), "phi_homogeneous",
                           word, 2, 4)
    with pytest.raises(VerificationError,
                       match=r"n=3; 1 -2 1 -2 at order 2 kept half"):
        zmod._finalize_phi(xs({0: {0: 1}, 1: {0: 1}}, trunc=5),
                           "phi_positive", word, 2)


@pytest.mark.usefixtures("fresh_column_tables")
def test_dp_error_names_word_order_and_cap(monkeypatch):
    def leaking(key, cache):
        raise VerificationError("charge leak in transfer move")

    monkeypatch.setattr(zmod, "_transitions", leaking)
    with pytest.raises(VerificationError,
                       match=r"charge leak .* in n=3; 1 -2 1 -2 at order 2, "
                             r"cap 3$"):
        phi_homogeneous(parse_braid("1 -2 1 -2"), 2, cap=3)


def test_trace_error_names_word_order_and_m_cut(monkeypatch):
    # every generator move times x^(1/2): the trefoil's closed walks then
    # keep half x-powers, which truncated_trace refuses
    real = zmod._lawrence._generator_moves

    def half_shifted(n, m, i, sign, convention):
        return [[(dst, xh + 1, weight) for dst, xh, weight in moves]
                for moves in real(n, m, i, sign, convention)]

    phi_positive(parse_braid("1 1 1"), 4, m_cut=3)  # caches the real moves
    monkeypatch.setattr(zmod._lawrence, "_generator_moves", half_shifted)
    with pytest.raises(VerificationError,
                       match=r"^trace of n=2; 1 1 1 at weight 0 kept half "
                             r"x-powers: .* in n=2; 1 1 1 at order 4, "
                             r"m_cut 3$"):
        phi_positive(parse_braid("1 1 1"), 4, m_cut=3)


# ---------------------------------------------------------------------------
# torus knots against the closed form of Gukov and Manolescu
# (arXiv:1904.06057): for T(s, t),
#     F = sum_{m > 0} eps_m x^{m/2} q^{(m^2 - (st - s - t)^2) / (4st)},
# eps_m = -1 for m = st +- (s + t), +1 for m = st +- (s - t) mod 2st, and
# 0 otherwise.  Zhat of (sigma_1 ... sigma_{s-1})^t is q^g F, g the genus
# (s - 1)(t - 1)/2; its all-negative mirror, which the transfer DP takes,
# is q^{-g} F(x, 1/q).


def torus_zhat_table(s, t, trunc, mirror):
    """q^{+-g} F(x, q^{+-1}) through x^{trunc/2}, as {x_half: {q_half:
    coeff}}, summed term by term with plain ints."""
    st_ = s * t
    signs = {(st_ + s + t) % (2 * st_): -1, (st_ - s - t) % (2 * st_): -1,
             (st_ + s - t) % (2 * st_): 1, (st_ - s + t) % (2 * st_): 1}
    g = (s - 1) * (t - 1) // 2
    out = {}
    for m in range(1, trunc + 1):
        eps = signs.get(m % (2 * st_))
        if eps is None:
            continue
        q4st = m * m - (st_ - s - t) ** 2
        assert q4st % (2 * st_) == 0  # q^{1/2} powers are whole
        q_half = 2 * g + q4st // (2 * st_)
        out[m] = {-q_half if mirror else q_half: eps}
    return out


TORUS_CASES = [(2, 3, 10, False), (2, 5, 14, False), (2, 7, 16, False),
               (3, 4, 14, False), (3, 5, 12, False), (4, 5, 10, False),
               (2, 3, 10, True), (2, 5, 14, True), (3, 4, 14, True),
               (3, 5, 12, True)]


@pytest.mark.parametrize(
    "s,t,order,mirror", TORUS_CASES,
    ids=[f"T({s},{t})@{o}{'-mirror' if m else ''}"
         for s, t, o, m in TORUS_CASES])
def test_torus_knots_match_closed_form(s, t, order, mirror):
    sign = -1 if mirror else 1
    letters = [sign * i for i in range(1, s)] * t
    word = parse_braid(f"n={s}; " + " ".join(map(str, letters)))
    got = zhat(word, order).zhat
    assert {x: q.terms for x, q in got.terms.items()} \
        == torus_zhat_table(s, t, got.trunc, mirror)
