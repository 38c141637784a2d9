"""Highest-weight braiding matrices and the graded trace identity."""

import itertools
import math

import pytest

from flowloop import InputError, VerificationError, XSeries, parse_braid
from flowloop import lawrence, verma
from flowloop.verma import (
    _pair_matrix,
    kohno_check,
    r_entry,
    tensor_action,
    tensor_states,
    tensor_trace,
)

from conftest import xs


def test_entry_sector_gate():
    assert r_entry(1, 1, 0, 0).is_zero
    assert r_entry(0, 2, 1, 0).is_zero


def test_entries_frozen():
    assert r_entry(0, 0, 0, 0) == xs({-1: {1: 1}})  # q^{1/2} x^{-1/2}
    assert r_entry(1, 0, 0, 1) == xs({-2: {2: 1}})  # q x^{-1}
    assert r_entry(0, 1, 1, 0) == xs({-2: {2: 1}})  # empty tail product
    assert r_entry(0, 2, 1, 1).is_zero              # [0; 1]_q gate


@pytest.mark.parametrize("total", range(4))
def test_braiding_invertible_both_orders(total):
    fwd = _pair_matrix(total, +1)
    bwd = _pair_matrix(total, -1)

    def compose(a, b):
        out = {}
        for src, vec in b.items():
            acc = {}
            for mid, c in vec.items():
                for dst, w in a.get(mid, {}).items():
                    cur = acc.get(dst)
                    t = w * c
                    acc[dst] = t if cur is None else cur + t
            out[src] = {d: v for d, v in acc.items() if not v.is_zero}
        return out

    states = [(i, total - i) for i in range(total + 1)]
    for left, right in ((fwd, bwd), (bwd, fwd)):
        prod = compose(left, right)
        for s in states:
            vec = prod.get(s, {})
            assert set(vec) == {s}
            assert vec[s] == xs({0: {0: 1}})


def test_yang_baxter_on_three_factors():
    # R12 R23 R12 == R23 R12 R23 on the weight-2 sector of three strands
    w_lhs = parse_braid("n=3; 1 2 1")
    w_rhs = parse_braid("n=3; 2 1 2")
    assert tensor_action(w_lhs, 2) == tensor_action(w_rhs, 2)


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (4, 2)])
def test_tensor_dim(n, m):
    # the weight-m sector of n factors has C(m + n - 1, n - 1) states
    assert len(tensor_states(n, m)) == math.comb(m + n - 1, n - 1)
    assert tensor_states(n, m) == sorted(
        s for s in itertools.product(range(m + 1), repeat=n) if sum(s) == m
    )


def test_failed_mirror_check_raises(monkeypatch):
    monkeypatch.setattr(verma, "_mirror_ok", lambda: False)
    with pytest.raises(VerificationError, match="does not invert R"):
        tensor_action(parse_braid("1 -1"), 1)


def test_tensor_trace_empty_weight():
    # each positive crossing contributes q^{1/2} x^{-1/2} at weight 0
    assert tensor_trace(parse_braid("1 1 1"), 0) == xs({-3: {3: 1}})


@pytest.mark.parametrize("text", ["1", "1 1 1", "1 -2 1 -2", "1 1 1 2"])
def test_trace_identity(text):
    w = parse_braid(text)
    ok, lhs, rhs = kohno_check(w, 3)
    assert ok
    assert lhs == rhs
    writhe = sum(1 if v > 0 else -1 for v in w.letters)
    assert lhs[0] == xs({writhe: {writhe: 1}})  # (qx)^{w/2}


def flagged_entry(i, j, ip, jp, sign):
    """One braiding entry with the variable x^{-1} in it, as each entry was
    built before the trace identity substituted once: r_entry with
    x -> 1/x, and for the inverse braiding its mirror, which inverts x
    a second time."""
    if sign > 0:
        return r_entry(i, j, ip, jp).substitute_x_inverse()
    return r_entry(j, i, jp, ip).bar_q()


def flagged_action(word, m):
    """The word on the weight-m tensor sector with x^{-1} in every factor,
    one flagged entry at a time (test oracle)."""
    states = tensor_states(word.n, m)
    cols = {s: {s: XSeries.one()} for s in states}
    for v in word.letters:
        k = abs(v) - 1
        letter = {}
        for s in states:
            total = s[k] + s[k + 1]
            letter[s] = {}
            for ip in range(total + 1):
                w = flagged_entry(s[k], s[k + 1], ip, total - ip,
                                  1 if v > 0 else -1)
                if not w.is_zero:
                    letter[s][s[:k] + (ip, total - ip) + s[k + 2:]] = w
        cols = lawrence.compose(letter, cols)
    return cols


def test_kohno_lhs_is_the_flagged_trace():
    # x -> 1/x is a ring automorphism of exact series: the flagged matrices
    # are tensor_action's with every entry substituted, so kohno_check may
    # substitute once, after the trace
    for text in ("1", "1 1 1", "1 -2 1 -2", "1 1 1 2", "n=3; 1 2",
                 "n=4; 1 -2 1 -3 -2"):
        word = parse_braid(text)
        _, lhs, _ = kohno_check(word, 3)
        for m in range(4):
            flagged = flagged_action(word, m)
            assert flagged == {
                src: {dst: w.substitute_x_inverse() for dst, w in row.items()}
                for src, row in tensor_action(word, m).items()}, (text, m)
            assert lhs[m] == lawrence.GradedMatrix(
                word.n + 1, m, flagged).trace(), (text, m)
    # the flagged mirror inverts the flagged braiding, as the unflagged does
    for m in range(4):
        for text in ("1 -1", "-1 1"):
            states = tensor_states(2, m)
            assert flagged_action(parse_braid(text), m) == {
                s: {s: XSeries.one()} for s in states}, (text, m)


@pytest.mark.parametrize("fn", (tensor_action, tensor_trace))
def test_negative_weights_are_refused(fn):
    with pytest.raises(InputError, match=r"^m must be >= 0, got -1$"):
        fn(parse_braid("1 1 1"), -1)
