import os
import sys

import pytest

from flowloop import QLaurent, XSeries
from flowloop.ring import xs_addmul_term_into

# the standing corpus: every braid word the suite must handle end to end
CORPUS = ("1", "1 1 1", "1 -2 1 -2", "1 1 1 2", "n=4; 1 -2 1 -3 -2")
# two >= 5-crossing knots beyond the corpus (a torus knot, a genus-2 knot)
EXTRA_KNOTS = ("1 1 1 1 1", "1 1 1 -2 1 -2")
# the all-positive words of both, the ones the graded-trace route takes
POSITIVE_KNOTS = tuple(w for w in CORPUS + EXTRA_KNOTS if "-" not in w)


def benchmark_batch(name, seed):
    """The items of one pass of the benchmark workload `name` for `seed`,
    as perfbench/workloads.py draws them."""
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                    "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads.batch(name, seed)


def ql(terms):
    """QLaurent from {half_exponent: coeff}."""
    return QLaurent(terms)


def xs(terms, trunc=None):
    """XSeries from {x_half: {q_half: coeff}}."""
    return XSeries({x: QLaurent(q) for x, q in terms.items()}, trunc)


# ---------------------------------------------------------------------------
# the two-pass closed-walk sum that walks.sum_paths replaced, kept verbatim
# as its oracle: a backward min-plus pass picks the moves on some closed walk
# within trunc, then a forward series pass sums over just those moves


def closed_moves(start, layers, trunc):
    """The moves of `layers` that lie on a closed walk start -> start of
    cost <= trunc, one list per letter.

    layers holds one (reach, moves) pair per letter from the forward pass:
    reach maps each state the letter starts from to the cheapest cost of
    getting there from start, and moves are the letter's moves out of those
    states.  The backward pass finds the cheapest cost from each state back
    to start; a move is kept iff the cheapest cost to its source, its own
    cost and the cheapest cost home from its end sum to at most trunc."""
    kept = []
    back = {start: 0}
    for reach, moves in reversed(layers):
        live = []
        prev = {}
        for move in moves:
            src, dst, xh = move[0], move[1], move[2]
            tail = back.get(dst)
            if tail is None or reach[src] + xh + tail > trunc:
                continue
            live.append(move)
            if xh + tail < prev.get(src, trunc + 1):
                prev[src] = xh + tail
        kept.append(live)
        back = prev
    kept.reverse()
    return kept


def forward_sum_paths(start, layers, trunc):
    """Sum over the walks start -> start through the per-letter move lists
    of the product of their weights, truncated at trunc, as an
    {x_half: {q_half: coeff}} table.

    Each letter's amplitudes are raw tables, and every move adds its
    source's amplitude times its weight into its destination's table in
    place (xs_addmul_term_into); a table that cancels to empty is skipped
    as a source."""
    vec = {start: {0: {0: 1}}}
    for moves in layers:
        nxt = {}
        for src, dst, xh, weight in moves:
            amp = vec.get(src)
            if not amp:
                continue
            acc = nxt.get(dst)
            if acc is None:
                acc = nxt[dst] = {}
            xs_addmul_term_into(acc, amp, weight.terms, xh, trunc)
        vec = nxt
    return vec.get(start, {})


def two_pass_sum(start, layers, trunc):
    """walks.sum_paths by the two passes it replaced: closed_moves, then the
    forward series sum over the kept moves."""
    return forward_sum_paths(start, closed_moves(start, layers, trunc), trunc)


@pytest.fixture
def announce(request):
    """Write a line through the terminal reporter so it survives capture."""
    reporter = request.config.pluginmanager.getplugin("terminalreporter")

    def _announce(line):
        if reporter is not None:
            reporter.write_line(line)
        else:  # pragma: no cover - plain python fallback
            print(line)

    return _announce
