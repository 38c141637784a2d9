"""Branched-surface chart of the return flow: strips, orbits, zeta."""

import importlib
from collections import Counter

import pytest

from flowloop import (
    InputError,
    QLaurent,
    VerificationError,
    build_template,
    enumerate_orbits,
    parse_braid,
    zeta_classical,
)
from flowloop.braid import alexander_classical
from flowloop.template import (
    ORBIT_COUNT_LIMIT,
    ORBIT_DEPTH_LIMIT,
    Strip,
    Template,
    _check_no_free_cycle,
    _cyclic_open,
    _is_primitive,
    _minimal_rotation,
    _orbit_counts,
    zeta_denominator,
)

from conftest import CORPUS, EXTRA_KNOTS, xs

template_module = importlib.import_module("flowloop.template")


def test_cyclic_interval_helpers():
    assert _cyclic_open(0, 2, 4) == [1]
    assert _cyclic_open(2, 0, 4) == [3]
    assert _cyclic_open(1, 1, 4) == [2, 3, 0]  # full circle minus the point
    assert _cyclic_open(0, 1, 4) == []


def test_zeta_refuses_a_negative_order():
    with pytest.raises(InputError, match="^order must be >= 0, got -1$"):
        zeta_classical(parse_braid("1 1 1"), -1)


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


def test_orbit_search_runs_to_its_depth_limit_and_refuses_past_it():
    # on one strand pair the longest strip word has max_degree + 1 strips;
    # the search reaches that depth without a RecursionError
    t = build_template(parse_braid("1"))
    deepest = ORBIT_DEPTH_LIMIT - 1
    assert [o.render() for o in enumerate_orbits(t, deepest)] == ["1 - T1"]
    with pytest.raises(InputError, match=rf"max_degree {deepest + 1} allows "
                       rf"strip words of {ORBIT_DEPTH_LIMIT + 1} strips on "
                       rf"2 strands, past the orbit search depth limit of "
                       rf"{ORBIT_DEPTH_LIMIT} strips"):
        enumerate_orbits(t, deepest + 1)


@pytest.mark.parametrize("text", CORPUS + EXTRA_KNOTS)
def test_orbit_count_matches_the_search(text):
    # the count from det(I - |A|(x)) against the orbits the search lists,
    # degree by degree
    t = build_template(parse_braid(text))
    for max_degree in range(7):
        census = Counter(o.degree for o in enumerate_orbits(t, max_degree))
        assert _orbit_counts(t, max_degree) \
            == [census[d] for d in range(max_degree + 1)], max_degree


def test_orbit_count_refuses_a_degree_past_the_limit():
    # fig8 up to degree 249 has about 7.8e101 primitive orbits; the count
    # refuses it before the search lists any, and names the largest degree
    # that fits
    t = build_template(parse_braid("1 -2 1 -2"))
    assert 10 ** 101 < sum(_orbit_counts(t, 249)) < 10 ** 102
    assert sum(_orbit_counts(t, 14)) == 86414 <= ORBIT_COUNT_LIMIT
    assert sum(_orbit_counts(t, 15)) > ORBIT_COUNT_LIMIT
    for max_degree in (15, 249):
        with pytest.raises(InputError, match=(
                rf"^max_degree {max_degree} has more primitive orbits than "
                rf"the orbit count limit of {ORBIT_COUNT_LIMIT}; max_degree "
                rf"14 has 86414$")):
            enumerate_orbits(t, max_degree)


def test_orbit_count_limit_bounds_the_orbits_listed(monkeypatch):
    # fig8 has 2, 2, 6, 10 and 24 primitive orbits of degrees 1 to 5, so
    # the limit bounds the running total, not one degree's count: 20
    # admits degree 4 (20 orbits in all), and 19 refuses it although no
    # single degree up to 4 has more than 10
    t = build_template(parse_braid("1 -2 1 -2"))
    assert _orbit_counts(t, 5) == [0, 2, 2, 6, 10, 24]
    monkeypatch.setattr(template_module, "ORBIT_COUNT_LIMIT", 20)
    assert len(enumerate_orbits(t, 4)) == 20
    with pytest.raises(InputError, match=r"^max_degree 5 .* limit of 20; "
                       r"max_degree 4 has 20$"):
        enumerate_orbits(t, 5)
    monkeypatch.setattr(template_module, "ORBIT_COUNT_LIMIT", 19)
    with pytest.raises(InputError, match=r"^max_degree 4 .* limit of 19; "
                       r"max_degree 3 has 10$"):
        enumerate_orbits(t, 4)


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
    # the orbit search refuses what the zeta refuses
    t = Template(parse_braid("1 1"), strips)
    with pytest.raises(VerificationError, match="n=2; 1 1"):
        zeta_denominator(t)
    with pytest.raises(VerificationError, match="n=2; 1 1$"):
        enumerate_orbits(t, 3)


def test_orbit_search_follows_long_free_chains():
    # A 0 -> 1 and B 1 -> 2 are free, C 2 -> 0 pays one: a mark-0 path of
    # L = 2 strips on two strands, longer than any built template has.
    # det(I - A(x)) = 1 - x, the one primitive orbit is 1 + A B C, and
    # strip words of degree d have at most (d + 1)(L + 1) strips
    t = Template(parse_braid("1 1 1"), [
        Strip("A", 0, 1, 0, False), Strip("B", 1, 2, 0, False),
        Strip("C", 2, 0, 1, False),
    ])
    assert zeta_denominator(t) == QLaurent({0: 1, 2: -1})
    assert [o.render() for o in enumerate_orbits(t, 165)] == ["1 + A B C"]
    with pytest.raises(InputError, match=r"^max_degree 166 allows strip "
                       r"words of 501 strips on 2 strands"):
        enumerate_orbits(t, 166)


def test_free_run_is_the_longest_mark_0_path():
    # the peel reaches line 2 by the long path 3 -> 1 -> 2 before the
    # short one 0 -> 2
    t = Template(parse_braid("1 1 1 1"), [
        Strip("A", 3, 1, 0, False), Strip("B", 1, 2, 0, False),
        Strip("C", 0, 2, 0, False), Strip("D", 2, 0, 1, False),
    ])
    assert _check_no_free_cycle(t) == 2
    # free strips step one column left, so a built chart keeps L <= n - 2
    for text in CORPUS + EXTRA_KNOTS:
        w = parse_braid(text)
        assert _check_no_free_cycle(build_template(w)) <= w.n - 2


def test_degree_zero_chain_is_allowed():
    # mark-0 strips without a cycle leave the constant term at 1
    t = Template(parse_braid("1 1"), [
        Strip("A", 0, 1, 0, False), Strip("B", 1, 0, 1, True),
    ])
    assert zeta_denominator(t) == QLaurent({0: 1, 2: 1})
