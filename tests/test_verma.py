"""Highest-weight braiding matrices and the graded trace identity."""

import itertools
import math

import pytest

from flowloop import VerificationError, parse_braid
from flowloop import verma
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


def test_entry_inverse_x_flag():
    a = r_entry(1, 0, 0, 1)
    b = r_entry(1, 0, 0, 1, inverse_x=True)
    assert b == a.substitute_x_inverse()


@pytest.mark.parametrize("total", range(4))
def test_braiding_invertible_both_orders(total):
    fwd = _pair_matrix(total, +1, False)
    bwd = _pair_matrix(total, -1, False)

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
    monkeypatch.setattr(verma, "_mirror_ok", lambda inverse_x: False)
    with pytest.raises(VerificationError, match="inverse_x=False"):
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
