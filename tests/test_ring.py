"""Exact Laurent arithmetic: ring axioms, Gaussian coefficients, series ops."""

import copy
import importlib
import inspect
import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowloop import (
    Framing,
    InputError,
    QLaurent,
    VerificationError,
    XSeries,
    lawrence,
    parse_braid,
    period_doubling_identity,
    qbinom,
    qtrinom,
    ring,
    saddle_node_identity,
    verma,
    zhat,
)
from flowloop.ring import ql_addmul_into, ql_mul, xs_addmul_term_into, xs_mul
from flowloop.verify import run_suite

from conftest import CORPUS, EXTRA_KNOTS, ql, xs

zmod = importlib.import_module("flowloop.zhat")

laurents = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9).filter(bool),
    max_size=5,
).map(QLaurent)


# ---------------------------------------------------------------------------
# Dict kernels


def test_zero_products_are_dropped():
    # cancellation must not leave literal zeros in the dicts
    out = ql_mul({0: 1, 2: 1}, {0: 1, 2: -1})
    assert out == {0: 1, 4: -1}
    assert 2 not in out


def test_series_multiply_respects_truncation():
    a = {0: {0: 1}, 6: {0: 1}}
    b = {0: {0: 1}, 4: {0: 1}}
    out = xs_mul(a, b, 6)
    assert set(out) == {0, 4, 6}


q_dicts = st.dictionaries(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-3, max_value=3).filter(bool),
    max_size=3,
)
x_tables = st.dictionaries(
    st.integers(min_value=-2, max_value=8),
    q_dicts.filter(bool),
    max_size=4,
)
tmaxes = st.one_of(st.none(), st.integers(min_value=-2, max_value=12))


def old_xs_mul(a, b, tmax):
    """xs_mul as one double loop over the term pairs of a and b."""
    out = {}
    for xa, qa in a.items():
        for xb, qb in b.items():
            x = xa + xb
            if tmax is not None and x > tmax:
                continue
            ql_addmul_into(out.setdefault(x, {}), qa, qb)
    return {x: q for x, q in out.items() if q}


def as_series(table, trunc=None):
    return XSeries({x: QLaurent(q) for x, q in table.items()}, trunc)


@given(x_tables, x_tables, q_dicts, st.integers(-2, 6), tmaxes)
def test_addmul_term_into_matches_mul_term(acc, a, qc, xh, tmax):
    if tmax is not None:
        acc = {x: q for x, q in acc.items() if x <= tmax}
    a_before, qc_before = copy.deepcopy(a), copy.deepcopy(qc)
    want = as_series(acc, tmax) + XSeries(
        as_series(a).mul_term(QLaurent(qc), xh).terms, tmax)
    xs_addmul_term_into(acc, a, qc, xh, tmax)
    # raw dict equality: no empty x-term and no zero coefficient is left
    assert acc == {x: q.terms for x, q in want.terms.items()}
    assert a == a_before and qc == qc_before
    for t in acc.values():
        assert all(t is not q for q in a.values()) and t is not qc


@given(x_tables, q_dicts.filter(bool), st.integers(-2, 6), tmaxes)
def test_addmul_term_into_cancels_to_empty(a, qc, xh, tmax):
    # acc holds -a * qc * x^(xh/2), so adding a * qc * x^(xh/2) clears it
    acc = {}
    xs_addmul_term_into(acc, a, {e: -c for e, c in qc.items()}, xh, tmax)
    xs_addmul_term_into(acc, a, qc, xh, tmax)
    assert acc == {}


def test_addmul_term_into_keeps_shared_q1_constants():
    # specialize_q1 hands out one shared QLaurent per small value; using
    # its terms as operands must leave them as they were
    s = xs({0: {0: 1}, 2: {1: 1, -1: 1}}, trunc=5).specialize_q1()
    two = s.terms[2].terms
    acc = {2: {0: -4}}
    xs_addmul_term_into(acc, {0: {0: 2}}, two, 2, 5)
    assert acc == {}
    assert two == {0: 2}
    assert XSeries.monomial(2, 0, 5).specialize_q1().terms[0].terms == {0: 2}


@given(x_tables, x_tables, tmaxes)
def test_xs_mul_matches_double_loop(a, b, tmax):
    assert xs_mul(a, b, tmax) == old_xs_mul(a, b, tmax)


def test_adopted_small_monomials_are_shared():
    a = XSeries._adopt({2: {0: 1}, 4: {4: -1}, 6: {0: 1, 2: 1}}, 9)
    b = XSeries._adopt({4: {4: -1}, 6: {0: 300}}, 9)
    assert a.terms[4] is b.terms[4]
    # one table: an adopted 1 is specialize_q1's 1
    assert a.terms[2] is xs({0: {3: 1}}).specialize_q1().terms[0]
    # arithmetic on a leaves the shared coefficient as it was
    assert (a + a).terms[4] == ql({4: -2})
    assert (a * xs({0: {0: 3}}, trunc=9)).terms[4] == ql({4: -3})
    assert a.mul_term(ql({2: 5}), 2).terms[6] == ql({6: -5})
    assert b.terms[4] == ql({4: -1})
    # neither a polynomial nor a monomial past the span is shared
    assert a.terms[6] is not XSeries._adopt({6: {0: 1, 2: 1}}, 9).terms[6]
    assert b.terms[6] is not XSeries._adopt({6: {0: 300}}, 9).terms[6]
    big = xs({0: {0: 300}})
    assert big.specialize_q1().terms[0] is not big.specialize_q1().terms[0]


def test_adopted_series_holds_its_own_coefficients():
    # _adopt copies every coefficient it keeps, so the accumulator it
    # wrapped can be added into, cleared or emptied afterwards
    table = {2: {0: 1, 2: 1}, 4: {4: -1}, 6: {-2: 3, 0: 1, 2: 3}}
    series = XSeries._adopt(table, 9)
    want = xs({2: {0: 1, 2: 1}, 4: {4: -1}, 6: {-2: 3, 0: 1, 2: 3}}, trunc=9)
    assert series == want
    ring.ql_add_into(table[2], {0: 4, 4: 1})
    table[6].clear()
    table[4] = {0: 7}
    del table[2]
    assert series == want
    assert series.terms[6].terms == {-2: 3, 0: 1, 2: 3}


def test_shared_monomials_are_read_only():
    # an in-place add into a shared coefficient would change every series
    # that holds it, so its terms refuse the write
    shared = ring._monomial(-1, -10)
    with pytest.raises(TypeError):
        ring.ql_add_into(shared.terms, {-8: -1})
    assert shared.terms == {-10: -1}
    assert ring._monomial(-1, -10) is shared


# ---------------------------------------------------------------------------
# QLaurent basics


def test_zero_terms_are_dropped():
    assert ql({0: 1, 2: 0}).terms == {0: 1}
    assert ql({}).is_zero
    assert not QLaurent.zero()
    assert QLaurent.one() == 1


def test_coerce_accepts_ints():
    assert QLaurent.coerce(3) == ql({0: 3})
    assert QLaurent.coerce(0).is_zero
    a = ql({2: 1})
    assert QLaurent.coerce(a) is a


def test_add_mul_mixed_with_ints():
    a = ql({0: 1, 2: -1})  # 1 - q
    assert a + 1 == ql({0: 2, 2: -1})
    assert a * 2 == ql({0: 2, 2: -2})
    assert 1 - a == ql({2: 1})


def test_mul_collects_and_cancels():
    a = ql({0: 1, 2: 1})   # 1 + q
    b = ql({0: 1, 2: -1})  # 1 - q
    assert a * b == ql({0: 1, 4: -1})  # 1 - q^2


def test_half_powers_render():
    a = ql({1: 1, -3: 2})
    assert a.render() == "2*q^(-3/2) + q^(1/2)"
    assert ql({0: 1, 2: -1, 4: 1}).render() == "1 - q + q^2"
    assert QLaurent.zero().render() == "0"


def test_bar_inverts_q():
    a = ql({-1: 2, 0: 1, 3: -1})
    assert a.bar() == ql({1: 2, 0: 1, -3: -1})
    assert a.bar().bar() == a


def test_shift_multiplies_by_q_power():
    a = ql({0: 1, 2: 1})
    assert a.shift(3) == ql({3: 1, 5: 1})
    assert a.shift(0) == a


def test_at_q1():
    assert ql({-2: 3, 0: -1, 5: 4}).at_q1() == 6
    assert QLaurent.zero().at_q1() == 0


def test_exact_div():
    num = ql({0: 1, 6: -1})        # 1 - q^3
    den = ql({0: 1, 2: -1})        # 1 - q
    assert num.exact_div(den) == ql({0: 1, 2: 1, 4: 1})
    with pytest.raises(VerificationError):
        ql({0: 1, 2: 1}).exact_div(den)
    with pytest.raises(VerificationError):
        num.exact_div(QLaurent.zero())


def test_min_max_half_and_unit_monomial():
    a = ql({-3: 1, 4: -2})
    assert a.min_half() == -3
    assert a.max_half() == 4
    m = ql({5: -1})
    assert m.unit_monomial() == (-1, 5)
    assert a.unit_monomial() is None


@given(laurents, laurents, laurents)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + QLaurent.zero() == a
    assert a * QLaurent.one() == a
    assert a - a == QLaurent.zero()


@given(laurents, laurents)
def test_bar_is_multiplicative(a, b):
    assert (a * b).bar() == a.bar() * b.bar()
    assert (a + b).bar() == a.bar() + b.bar()


@given(laurents, laurents)
def test_exact_div_recovers_factor(a, b):
    if b.is_zero:
        return
    assert (a * b).exact_div(b) == a


# ---------------------------------------------------------------------------
# Gaussian binomials


def test_qbinom_small_table():
    assert qbinom(0, 0) == QLaurent.one()
    assert qbinom(1, 1) == QLaurent.one()
    assert qbinom(2, 1) == ql({0: 1, 2: 1})
    assert qbinom(4, 2) == ql({0: 1, 2: 1, 4: 2, 6: 1, 8: 1})
    assert qbinom(3, 5).is_zero
    assert qbinom(3, -1).is_zero


def test_qbinom_negative_top():
    # [-1; k]_q = (-1)^k q^{-k(k+1)/2}
    assert qbinom(-1, 1) == ql({-2: -1})
    assert qbinom(-1, 2) == ql({-6: 1})
    assert qbinom(-2, 1) == ql({-2: -1, -4: -1})


@given(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=8),
)
def test_qbinom_specializes_to_binomial(n, k):
    assert qbinom(n, k).at_q1() == math.comb(n, k)


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=8),
)
def test_qbinom_pascal(n, k):
    lhs = qbinom(n, k)
    rhs = qbinom(n - 1, k - 1) + qbinom(n - 1, k).shift(2 * k)
    assert lhs == rhs


@given(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=8),
)
def test_qbinom_symmetry(n, k):
    if k <= n:
        assert qbinom(n, k) == qbinom(n, n - k)


def product_qbinom(n, k):
    """[n; k]_q as prod_{j=1}^{k} (1 - q^{n-k+j}) / (1 - q^j), one
    exact_div: the form qbinom had before q-Pascal rows, kept as its
    oracle."""
    if k < 0:
        return QLaurent.zero()
    num = QLaurent.one()
    den = QLaurent.one()
    for j in range(1, k + 1):
        num = num * (QLaurent.one() - QLaurent.monomial(1, 2 * (n - k + j)))
        den = den * (QLaurent.one() - QLaurent.monomial(1, 2 * j))
    return num.exact_div(den) if num else QLaurent.zero()


@given(st.integers(min_value=-30, max_value=40),
       st.integers(min_value=-2, max_value=20))
def test_qbinom_matches_product_form(n, k):
    assert qbinom(n, k) == product_qbinom(n, k)


@pytest.fixture
def cold_caches(monkeypatch):
    """Empty binomial, generator, crossing-weight and DP column-table
    caches for one test, so that what it runs fills them afresh."""
    monkeypatch.setattr(ring, "_qbinom_cache", {})
    for cached in (ring.qtrinom, lawrence._generator_moves,
                   lawrence._generator_mirror, zmod._crossing_weight,
                   zmod._column_table, verma._pair_matrix):
        cached.cache_clear()


# the benchmark corpus, then the standing corpus and the extra knots
ZHAT_RUNS = ([("1 1 1", 18), ("1 -2 1 -2", 8), ("1 -2 1 -2", 10),
              ("n=4; 1 -2 1 -3 -2", 8), ("1 1 1 -2 1 -2", 8)]
             + [(text, 6) for text in CORPUS + EXTRA_KNOTS])


def test_qbinom_cache_matches_product_form(cold_caches):
    for text, order in ZHAT_RUNS:
        zhat(parse_braid(text), order)
    assert all(r.ok for r in run_suite("all"))
    cache = ring._qbinom_cache
    # rows up to the order, q-Pascal entries and a reflected negative top
    assert (10, 5) in cache and (-1, 2) in cache
    for (n, k), value in cache.items():
        assert value == product_qbinom(n, k), (n, k)


def test_qbinom_builds_a_deep_top_without_recursion(monkeypatch):
    monkeypatch.setattr(ring, "_qbinom_cache", {})
    limit = sys.getrecursionlimit()
    # far fewer frames left than the 400 rows below the top
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        deep = qbinom(400, 2)
        reflected = qbinom(-400, 2)
    finally:
        sys.setrecursionlimit(limit)
    assert deep == product_qbinom(400, 2)
    assert reflected == product_qbinom(-400, 2)


def test_qtrinom_gates_and_symmetry():
    assert qtrinom(3, 1, 1, 1) == qbinom(2, 1) * qbinom(3, 1)
    assert qtrinom(3, 1, 1, 2).is_zero
    assert qtrinom(3, -1, 2, 2).is_zero
    for (k1, k2, k3) in [(1, 2, 1), (0, 2, 2), (2, 0, 1)]:
        n = k1 + k2 + k3
        assert qtrinom(n, k1, k2, k3) == qtrinom(n, k3, k2, k1)


# ---------------------------------------------------------------------------
# XSeries


def test_truncation_drops_high_terms():
    s = xs({0: {0: 1}, 8: {0: 1}}, trunc=5)
    assert s.coeff(8).is_zero
    assert s.coeff(0) == QLaurent.one()


def test_mul_respects_min_trunc():
    a = xs({0: {0: 1}, 2: {0: 1}}, trunc=9)
    b = xs({0: {0: 1}, 2: {0: 1}}, trunc=5)
    p = a * b
    assert p.trunc == 5
    assert p == xs({0: {0: 1}, 2: {0: 2}, 4: {0: 1}}, trunc=5)


def test_mul_exact_when_untruncated():
    a = xs({0: {0: 1}, 2: {2: -1}})  # 1 - q x
    assert a.trunc is None
    sq = a * a
    assert sq == xs({0: {0: 1}, 2: {2: -2}, 4: {4: 1}})


def test_mul_term_matches_full_multiply():
    s = xs({0: {0: 1}, 2: {1: 2}, 4: {-2: 1}}, trunc=7)
    mono = XSeries.monomial(QLaurent(dict([(3, 5)])), 2, trunc=7)
    assert s.mul_term(ql({3: 5}), 2) == s * mono
    assert s.mul_term(QLaurent.zero(), 2).is_zero


def test_substitute_x_inverse_exact_only():
    s = xs({-2: {0: 1}, 2: {2: 3}})
    assert s.substitute_x_inverse() == xs({2: {0: 1}, -2: {2: 3}})
    with pytest.raises(VerificationError):
        xs({0: {0: 1}}, trunc=3).substitute_x_inverse()


def test_bar_q_only_touches_q():
    s = xs({2: {1: 1, -3: 2}})
    assert s.bar_q() == xs({2: {-1: 1, 3: 2}})


def test_subst_x_qpow():
    # x -> q^k sends x^{xh/2} to q^{k xh/2}
    s = xs({2: {0: 1}, 4: {2: -1}})
    assert s.subst_x_qpow(2) == ql({4: 1, 10: -1})
    # at k=-1 the two terms land on the same power and cancel
    assert s.subst_x_qpow(-1).is_zero


def test_specialize_q1():
    s = xs({0: {0: 1}, 2: {-1: 1, 1: 1}}, trunc=5)
    out = s.specialize_q1()
    assert out == xs({0: {0: 1}, 2: {0: 2}}, trunc=5)


def test_render_with_tail():
    s = xs({0: {0: 1}, 2: {2: -1}}, trunc=3)
    assert s.render(tail=True) == "1 - q*x + O(x^2)"
    assert s.render() == "1 - q*x"
    exact = xs({1: {0: 1}})
    assert exact.render(tail=True) == "x^(1/2)"


def test_equality_ignores_trunc_marker_only_terms():
    assert xs({0: {0: 1}}, trunc=5) == xs({0: {0: 1}}, trunc=5)
    assert xs({0: {0: 1}}, trunc=5) != xs({0: {0: 2}}, trunc=5)
    assert xs({0: {0: 1}}, trunc=5) != xs({0: {0: 1}}, trunc=7)
    assert xs({0: {0: 1}}, trunc=5) != xs({0: {0: 1}, 2: {0: 1}}, trunc=5)
    assert xs({0: {0: 1}, 2: {0: 1}}, trunc=5) != xs({0: {0: 1}}, trunc=5)
    # a shared read-only coefficient equals a plain one with its terms
    assert XSeries._adopt({4: {4: -1}}, 9) == xs({4: {4: -1}}, trunc=9)
    assert xs({4: {4: -1}}, trunc=9) == XSeries._adopt({4: {4: -1}}, 9)


# ---------------------------------------------------------------------------
# Bifurcation identities

FRAMINGS = [Framing(h) for h in (-2, -1, 0, 1, 2, 4)]


@pytest.mark.parametrize("f", FRAMINGS, ids=lambda f: f.render())
def test_saddle_node_collapses_to_one(f):
    assert saddle_node_identity(f, 8) == XSeries.one(17)


@pytest.mark.parametrize("f", FRAMINGS, ids=lambda f: f.render())
def test_period_doubling_sides_agree(f):
    lhs, rhs = period_doubling_identity(f, 8)
    assert lhs == rhs


@pytest.mark.parametrize("identity", (saddle_node_identity,
                                      period_doubling_identity))
def test_identities_refuse_a_negative_order(identity):
    with pytest.raises(InputError, match="^order must be >= 0, got -1$"):
        identity(Framing(1), -1)


def test_framing_render():
    assert Framing(1).render() == "1/2"
    assert Framing(4).render() == "2"
    assert Framing(-1).render() == "-1/2"
