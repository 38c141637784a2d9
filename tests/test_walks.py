"""The packed backward closed-walk sum against the two passes it replaced
and against the dict-kernel backward sum it packs."""

import sys

import pytest
from hypothesis import Phase, given, note, settings
from hypothesis import strategies as st

from flowloop import QLaurent, parse_braid, zhat
from flowloop import walks

from conftest import (
    assert_packed_sum,
    benchmark_batch,
    row_norm,
    two_pass_sum,
)

# ---------------------------------------------------------------------------
# random layers: few states, short words, small costs, and weights whose
# coefficients +-1 and 2 make tables cancel

STATES = 4
weights = st.dictionaries(st.integers(-2, 2), st.sampled_from((-1, 1, 2)),
                          min_size=1, max_size=3).map(QLaurent)
# one letter: each source's moves (dst, x_half, weight), sorted by cost
letters = st.lists(
    st.lists(st.tuples(st.integers(0, STATES - 1), st.integers(0, 3),
                       weights), min_size=1, max_size=4)
    .map(lambda moves: sorted(moves, key=lambda move: move[1])),
    min_size=STATES, max_size=STATES)


def forward_layers(states, walk, start, budgets, norms=None):
    """The (reach, moves, norm) layers of a forward min-plus pass over
    `walk` from start, on states 0..states - 1 (a move's end taken mod
    states), each letter keeping the moves that end within its budget, as
    walks.closed_sum does, and bounding the row norm by the largest sum of
    ||weight||_1 over all the moves of a state it leaves, or by the
    largest norms[j][src] of those states if norms are given."""
    layers = []
    reach = {start: 0}
    for j, (letter, budget) in enumerate(zip(walk, budgets)):
        moves = []
        nxt = {}
        norm = max((row_norm(letter[src]) if norms is None else norms[j][src]
                    for src in reach), default=0)
        for src, cost in reach.items():
            for dst, xh, weight in letter[src]:
                to = cost + xh
                if to > budget:
                    break
                dst %= states
                moves.append((src, dst, xh, weight))
                nxt[dst] = min(nxt.get(dst, to), to)
        layers.append((reach, moves, norm))
        reach = nxt
    return layers


@settings(max_examples=150, deadline=None)
@given(st.integers(1, STATES), st.lists(letters, min_size=1, max_size=5),
       st.integers(0, 12), st.data())
def test_backward_sum_matches_two_pass_sum_on_random_layers(
        states, walk, trunc, data):
    start = data.draw(st.integers(0, states - 1))
    # a budget below trunc stands for an engine's lower bound on the rest
    budgets = [trunc - cut for cut in data.draw(st.lists(
        st.integers(0, 2), min_size=len(walk), max_size=len(walk)))]
    layers = forward_layers(states, walk, start, budgets)
    # raw dicts: no empty x-term, no zero coefficient
    assert_packed_sum(start, layers, trunc)


# large coefficients of both signs at half exponents, and each move
# optionally doubled by its negation, so that whole tables cancel to zero
big_weights = st.dictionaries(
    st.integers(-9, 9),
    st.integers(-10 ** 30, 10 ** 30).filter(bool),
    min_size=1, max_size=4).map(QLaurent)
big_letters = st.lists(
    st.lists(st.tuples(st.integers(0, STATES - 1), st.integers(0, 3),
                       big_weights, st.booleans()), min_size=1, max_size=3)
    .map(lambda moves: sorted(
        [move for dst, xh, weight, twin in moves
         for move in ([(dst, xh, weight), (dst, xh, -weight)] if twin
                      else [(dst, xh, weight)])],
        key=lambda move: move[1])),
    min_size=STATES, max_size=STATES)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, STATES), st.lists(big_letters, min_size=1, max_size=5),
       st.integers(0, 12), st.data())
def test_packed_sum_on_large_and_cancelling_weights(states, walk, trunc,
                                                    data):
    start = data.draw(st.integers(0, states - 1))
    layers = forward_layers(states, walk, start, [trunc] * len(walk))
    assert_packed_sum(start, layers, trunc)


def test_packed_sum_cancels_to_empty():
    # two walks whose weights cancel term for term, one of them at a lower
    # q-exponent on the way: the packed x-terms at different lows must
    # line up and delete each other exactly, at 2^90 scale
    big = 3 ** 57
    w = QLaurent({-3: big, 5: -big})
    stay = [[(0, 0, QLaurent.one())], [], [], []]
    walk = [[[(0, 1, w), (1, 1, -w)], [], [], []],
            [[(0, 1, QLaurent({0: 1}))], [(0, 1, QLaurent({0: 1}))], [],
             []],
            stay]
    layers = forward_layers(2, walk, 0, [4] * len(walk))
    assert walks.sum_paths(0, layers, 4) == two_pass_sum(0, layers, 4) \
        == {}
    # one walk alone keeps both 2^90-scale coefficients, at q^(-3/2)
    # and q^(5/2)
    walk[0] = [[(0, 1, w)], [], [], []]
    layers = forward_layers(2, walk, 0, [4] * len(walk))
    assert assert_packed_sum(0, layers, 4) == {2: {-3: big, 5: -big}}


# no shrink phase: shrinking a failure of this test took 98-218 s over its
# nested draws, against 2-4 s for a pass, so it reports the failing draw as
# found, with its budget per letter noted
@settings(max_examples=150, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
@given(st.integers(1, STATES), st.lists(letters, min_size=1, max_size=5),
       st.integers(0, 12), st.data())
def test_closed_sum_matches_forward_layers_on_random_rows(states, walk,
                                                          trunc, data):
    # the letters as closed_sum reads them: one row (moves, norm) per
    # state, each move a delta to its end, and each row's norm its sum of
    # ||weight||_1 or more, as a looser bound still bounds
    start = data.draw(st.integers(0, states - 1))
    norms = [[row_norm(row) + data.draw(st.integers(0, 3)) for row in letter]
             for letter in walk]
    # a high part above the mask, which no delta touches, or none at all
    # and the rows read whole (mask -1), as the trace walk reads them
    high = data.draw(st.sampled_from((0, 1 << 4, 5 << 4)))
    mask = 15 if high else -1
    rows = [[(tuple((dst % states - src, xh, weight)
                    for dst, xh, weight in row), norm)
             for src, (row, norm) in enumerate(zip(letter, letter_norms))]
            for letter, letter_norms in zip(walk, norms)]
    # the walk cut into runs of one or more letters that cover it, each
    # read at one budget <= trunc, the engine's lower bound on the rest of
    # a closed walk; the oracle reads each run's budget once per letter of
    # the run
    breaks = data.draw(st.lists(st.booleans(), min_size=len(walk) - 1,
                                max_size=len(walk) - 1))
    ends = [j + 1 for j, cut in enumerate(breaks) if cut] + [len(walk)]
    runs = []
    budgets = []
    begin = 0
    for end in ends:
        budget = data.draw(st.integers(0, trunc))
        runs.append(([(letter, mask) for letter in rows[begin:end]], budget))
        budgets += [budget] * (end - begin)
        begin = end
    note(f"budget per letter: {budgets}")
    want = forward_layers(states, walk, start, budgets, norms)
    # the pass stops at the first letter that leaves no state, and sums
    # only if it returns to start
    read = next((j + 1 for j, (_, moves, _) in enumerate(want) if not moves),
                len(want))
    closes = read == len(want) and any(
        dst == start for _, dst, _, _ in want[-1][1])
    sums = []

    def spy(start, layers, trunc):
        sums.append(layers)
        return assert_packed_sum(start, layers, trunc)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(walks, "sum_paths", spy)
        got = walks.closed_sum(high | start, runs, trunc)
    assert got == walks.sum_paths(start, want, trunc)
    if not closes:
        assert not sums and got == {}
        return
    lifted = [({high | s: cost for s, cost in reach.items()},
               [(high | src, high | dst, xh, weight)
                for src, dst, xh, weight in moves], norm)
              for reach, moves, norm in want]
    assert sums == [lifted]


def test_forward_layers_reach_the_state_a_move_ends_on():
    # of two states, 2 is state 0: the cost-0 walk through it must set
    # reach[0] to 0, or sum_paths would cut its x-half 2 term at
    # trunc - 3 = 1
    one = QLaurent.one()
    stay = [[(0, 0, one), (0, 1, one)], [], [], []]
    walk = [[[(2, 0, one), (0, 3, one)], [], [], []],
            [[(0, 0, one)], [], [], []], stay, stay]
    layers = forward_layers(2, walk, 0, [4] * len(walk))
    assert [reach for reach, _, _ in layers] == [{0: 0}] * len(walk)
    # (1 + x^(3/2)) (1 + x^(1/2))^2 through x^2, keyed by x-half
    want = {0: {0: 1}, 1: {0: 2}, 2: {0: 1}, 3: {0: 1}, 4: {0: 2}}
    assert walks.sum_paths(0, layers, 4) == two_pass_sum(0, layers, 4) \
        == want


# ---------------------------------------------------------------------------
# the truncation at trunc - reach forms no more x-term products than the
# two passes did


class CountedWeight(int):
    """A packed weight that counts in counts[0] the x-terms it multiplies:
    int * CountedWeight calls __rmul__ first, as a subclass overrides it."""

    counts = [0]

    def __rmul__(self, other):
        self.counts[0] += 1
        return int(other) * int(self)


def counting_kernel(real, counts):
    """real (ring.xs_addmul_term_into), counting in counts[0] the x-terms
    it keeps, one product of an x-term by qc each."""
    def kernel(acc, a, qc, xh, tmax):
        counts[0] += sum(1 for x in a if tmax is None or x + xh <= tmax)
        return real(acc, a, qc, xh, tmax)
    return kernel


def phi_products(word, order, sum_paths, monkeypatch):
    """zhat(word, order) with walks.sum_paths replaced by sum_paths, and the
    x-term products that walks' packed multiplies and the test-local
    two-pass oracle's xs_addmul_term_into calls make."""
    counts = CountedWeight.counts = [0]
    oracle = sys.modules[two_pass_sum.__module__]

    def counted_pack(terms, K, low):
        return CountedWeight(real_pack(terms, K, low))

    real_pack = walks.kronecker_pack
    # no weight packed before, or packed here, serves another sum
    walks._packed_weights.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(walks, "sum_paths", sum_paths)
            patch.setattr(walks, "kronecker_pack", counted_pack)
            patch.setattr(oracle, "xs_addmul_term_into",
                          counting_kernel(oracle.xs_addmul_term_into, counts))
            result = zhat(word, order)
    finally:
        walks._packed_weights.cache_clear()
    return result, counts[0]


# the zhat corpus items of the two workloads whose time is in the walks
WORKLOAD_CORPUS = sorted({(item.braid, item.order)
                          for name in ("mixed-dp", "positive-trace")
                          for item in benchmark_batch(name, 1)
                          if item.origin == "corpus"})


@pytest.mark.parametrize("text,order", WORKLOAD_CORPUS)
def test_backward_sum_forms_no_more_products(text, order, monkeypatch):
    word = parse_braid(text)
    got, products = phi_products(word, order, walks.sum_paths, monkeypatch)
    want, oracle_products = phi_products(word, order, two_pass_sum,
                                         monkeypatch)
    assert got.phi == want.phi
    assert 0 < products <= oracle_products, (products, oracle_products)
