"""The backward closed-walk sum against the two passes it replaced."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowloop import QLaurent, parse_braid, zhat
from flowloop import walks

from conftest import benchmark_batch, two_pass_sum

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


def forward_layers(states, walk, start, budgets):
    """The (reach, moves) layers of a forward min-plus pass over `walk` from
    start, on states 0..states - 1 (a move's end taken mod states), each
    letter keeping the moves that end within its budget, as both engines'
    forward passes do."""
    layers = []
    reach = {start: 0}
    for letter, budget in zip(walk, budgets):
        moves = []
        nxt = {}
        for src, cost in reach.items():
            for dst, xh, weight in letter[src]:
                to = cost + xh
                if to > budget:
                    break
                dst %= states
                moves.append((src, dst, xh, weight))
                nxt[dst] = min(nxt.get(dst, to), to)
        layers.append((reach, moves))
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
    assert walks.sum_paths(start, layers, trunc) \
        == two_pass_sum(start, layers, trunc)


def test_forward_layers_reach_the_state_a_move_ends_on():
    # of two states, 2 is state 0: the cost-0 walk through it must set
    # reach[0] to 0, or sum_paths would cut its x-half 2 term at
    # trunc - 3 = 1
    one = QLaurent.one()
    stay = [[(0, 0, one), (0, 1, one)], [], [], []]
    walk = [[[(2, 0, one), (0, 3, one)], [], [], []],
            [[(0, 0, one)], [], [], []], stay, stay]
    layers = forward_layers(2, walk, 0, [4] * len(walk))
    assert [reach for reach, moves in layers] == [{0: 0}] * len(walk)
    # (1 + x^(3/2)) (1 + x^(1/2))^2 through x^2, keyed by x-half
    want = {0: {0: 1}, 1: {0: 2}, 2: {0: 1}, 3: {0: 1}, 4: {0: 2}}
    assert walks.sum_paths(0, layers, 4) == two_pass_sum(0, layers, 4) \
        == want


# ---------------------------------------------------------------------------
# the truncation at trunc - reach forms no more coefficient products than the
# two passes did


def counting_kernel(real, counts):
    """real (ring.xs_addmul_term_into), counting in counts[0] the q-term
    products of the x-terms it keeps."""
    def kernel(acc, a, qc, xh, tmax):
        counts[0] += len(qc) * sum(
            len(qa) for x, qa in a.items() if tmax is None or x + xh <= tmax)
        return real(acc, a, qc, xh, tmax)
    return kernel


def phi_products(word, order, sum_paths, monkeypatch):
    """zhat(word, order) with walks.sum_paths replaced by sum_paths, and the
    coefficient products of every xs_addmul_term_into call that walks and
    the test-local two-pass oracle make."""
    counts = [0]
    oracle = sys.modules[two_pass_sum.__module__]
    with monkeypatch.context() as patch:
        patch.setattr(walks, "sum_paths", sum_paths)
        for module in (walks, oracle):
            patch.setattr(module, "xs_addmul_term_into",
                          counting_kernel(module.xs_addmul_term_into, counts))
        result = zhat(word, order)
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
