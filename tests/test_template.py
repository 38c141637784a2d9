"""Branched-surface chart of the return flow: strips, orbits, zeta."""

from collections import Counter

import pytest

from flowloop import (
    QLaurent,
    VerificationError,
    build_template,
    enumerate_orbits,
    parse_braid,
    zeta_classical,
)
from flowloop.braid import alexander_classical
from flowloop.template import (
    Strip,
    Template,
    _cyclic_open,
    _is_primitive,
    _minimal_rotation,
    zeta_denominator,
)

from conftest import CORPUS, EXTRA_KNOTS, xs


def test_cyclic_interval_helpers():
    assert _cyclic_open(0, 2, 4) == [1]
    assert _cyclic_open(2, 0, 4) == [3]
    assert _cyclic_open(1, 1, 4) == [2, 3, 0]  # full circle minus the point
    assert _cyclic_open(0, 1, 4) == []


def test_minimal_rotation_and_primitivity():
    assert _minimal_rotation((2, 0, 1)) == (0, 1, 2)
    assert _minimal_rotation((1, 0, 1, 0)) == (0, 1, 0, 1)
    assert _is_primitive((0, 1, 2))
    assert not _is_primitive((0, 1, 0, 1))
    assert _is_primitive((0, 1, 0, 2))


def test_single_crossing_template():
    t = build_template(parse_braid("1"))
    assert [s.sid for s in t.strips] == ["T1"]
    assert t.branch_count == 1
    assert t.nullity == 1
    orbs = enumerate_orbits(t, 3)
    assert [o.render() for o in orbs] == ["1 - T1"]
    assert zeta_classical(parse_braid("1"), 4) == xs(
        {0: {0: 1}, 2: {0: -1}}, trunc=9
    )


def test_stabilized_trefoil_chart():
    t = build_template(parse_braid("1 1 1 2"))
    assert [s.sid for s in t.strips] == [
        "T1", "T2", "T3", "S3_4", "T4", "S4_1", "S4_2", "S4_3",
    ]
    assert t.branch_count == 4
    # strips flow between crossings of adjacent columns only
    for s in t.strips:
        assert abs(s.mark) <= 1


def test_stabilized_trefoil_orbit_table():
    t = build_template(parse_braid("1 1 1 2"))
    got = [o.render() for o in enumerate_orbits(t, 2)]
    assert got == [
        "1 - T4",
        "1 + S3_4 S4_3",
        "2 - S3_4 T4 S4_3",
        "2 - T2 S3_4 S4_2",
    ]


def test_fig8_chart_structure():
    t = build_template(parse_braid("1 -2 1 -2"))
    assert len(t.strips) == 8
    assert t.branch_count == 4
    assert t.nullity == 5
    twists = [s.sid for s in t.strips if s.twist]
    assert twists == ["T1", "T2", "T3", "T4"]


def test_fig8_orbit_census():
    t = build_template(parse_braid("1 -2 1 -2"))
    orbs = enumerate_orbits(t, 4)
    census = Counter((o.degree, o.sign) for o in orbs)
    assert dict(census) == {(1, 1): 2, (2, 1): 2, (3, 1): 6, (4, 1): 10}


def test_orbits_may_revisit_strips():
    # the chart is a genuine flow template: long closed orbits pass
    # through the same strip more than once
    t = build_template(parse_braid("1 -2 1 -2"))
    orbs = enumerate_orbits(t, 4)
    assert any(len(set(o.strips)) < len(o.strips) for o in orbs)


def test_orbits_are_primitive_and_canonical():
    t = build_template(parse_braid("1 1 1 2"))
    seen = set()
    for o in enumerate_orbits(t, 4):
        assert o.strips not in seen
        seen.add(o.strips)
        k = len(o.strips)
        for d in range(1, k):
            if k % d == 0:
                assert o.strips != o.strips[:d] * (k // d)


@pytest.mark.parametrize(
    "text", ["1", "1 1 1", "1 -2 1 -2", "1 1 1 2", "1 1 1 1 1"]
)
def test_zeta_equals_alexander_series(text):
    w = parse_braid(text)
    _, inv = alexander_classical(w, 5)
    assert zeta_classical(w, 5) == inv


ZETA_CASES = [(text, order) for text in CORPUS + EXTRA_KNOTS
              for order in (6, 8)]


@pytest.mark.parametrize(
    "text,order", ZETA_CASES, ids=[f"{t}@{o}" for t, o in ZETA_CASES]
)
def test_zeta_multi_loop_expansion(text, order):
    # the determinant zeta equals the orbit product it replaced: product
    # over primitive orbits of 1/(1 - sign x^deg), times (1 - x^n)
    w = parse_braid(text)
    trunc = 2 * order + 1
    t = build_template(w)
    acc = xs({0: {0: 1}, 2 * w.n: {0: -1}}, trunc=trunc)
    for o in enumerate_orbits(t, order):
        geom = xs(
            {2 * o.degree * k: {0: o.sign ** k} for k in range(order + 1)},
            trunc=trunc,
        )
        acc = acc * geom
    assert acc == zeta_classical(w, order)


@pytest.mark.parametrize("text", CORPUS + EXTRA_KNOTS)
def test_zeta_denominator_is_alexander_times_axis(text):
    # det(I - A(x)) (1 - x) = Delta(x) (1 - x^n) as exact polynomials
    w = parse_braid(text)
    delta_series, _ = alexander_classical(w, 1)
    delta = QLaurent({e: q.at_q1() for e, q in delta_series.terms.items()})
    det = zeta_denominator(build_template(w))
    assert det * QLaurent({0: 1, 2: -1}) == delta * QLaurent(
        {0: 1, 2 * w.n: -1}
    )


@pytest.mark.parametrize(
    "strips",
    [
        [Strip("A", 0, 1, 0, False), Strip("B", 1, 0, 0, False)],
        [Strip("A", 0, 1, 1, True), Strip("B", 1, 1, 0, False)],
    ],
    ids=["two-cycle", "self-loop"],
)
def test_degree_zero_cycle_is_refused(strips):
    t = Template(parse_braid("1 1"), strips)
    with pytest.raises(VerificationError, match="n=2; 1 1"):
        zeta_denominator(t)


def test_degree_zero_chain_is_allowed():
    # mark-0 strips without a cycle leave the constant term at 1
    t = Template(parse_braid("1 1"), [
        Strip("A", 0, 1, 0, False), Strip("B", 1, 0, 1, True),
    ])
    assert zeta_denominator(t) == QLaurent({0: 1, 2: 1})
