import importlib
import os
import sys
from operator import itemgetter

import pytest

from flowloop import QLaurent, XSeries, analyze
from flowloop import lawrence, walks
from flowloop.ring import xs_addmul_term_into
# the packed sum itself, for the checks below while a test spies on
# walks.sum_paths
from flowloop.walks import sum_paths as packed_sum_paths

# the module itself: the package re-exports the function `zhat` under its name
zmod = importlib.import_module("flowloop.zhat")

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
# the two-pass closed-walk sum that walks.sum_paths replaced, kept as its
# oracle on the dict kernel: a backward min-plus pass picks the moves on
# some closed walk within trunc, then a forward series pass sums over just
# those moves


def closed_moves(start, layers, trunc):
    """The moves of `layers` that lie on a closed walk start -> start of
    cost <= trunc, one list per letter.

    layers holds one (reach, moves, norm) triple per letter from the
    forward pass: reach maps each state the letter starts from to the
    cheapest cost of getting there from start, and moves are the letter's
    moves out of those states; norm is not read.  The backward pass finds
    the cheapest cost from each state back to start; a move is kept iff the
    cheapest cost to its source, its own cost and the cheapest cost home
    from its end sum to at most trunc."""
    kept = []
    back = {start: 0}
    for reach, moves, _ in reversed(layers):
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
    `layers` (one list of moves per letter) of the product of their
    weights, truncated at trunc, as an {x_half: {q_half: coeff}} table.

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


def backward_dict_sum(start, layers, trunc):
    """walks.sum_paths on the dict kernel, as it was before its
    coefficients were packed, and the largest |coefficient| of every table
    it forms on the way, intermediate ones included."""
    top = 1
    back = {start: {0: {0: 1}}}
    for reach, moves, _ in reversed(layers):
        prev = {}
        for src, dst, xh, weight in moves:
            tail = back.get(dst)
            if not tail:
                continue
            acc = prev.setdefault(src, {})
            xs_addmul_term_into(acc, tail, weight.terms, xh,
                                trunc - reach[src])
            top = max([top] + [abs(c) for t in acc.values()
                               for c in t.values()])
        back = prev
    return back.get(start, {}), top


def proven_bound(layers):
    """B = the product of the layers' row norms: the bound walks.sum_paths
    proves on every coefficient of every table it forms."""
    bound = 1
    for _, _, norm in layers:
        bound *= norm
    return bound


def assert_packed_sum(start, layers, trunc):
    """walks.sum_paths of the layers equals the two-pass oracle as raw
    dicts (no empty x-term, no zero coefficient), and its proven B is at
    least every |coefficient| of every table of the backward dict-kernel
    sum, which equals it too; B = 0 only when a letter leaves its states
    by no move, and then the sum is empty.  Returns the sum."""
    got = packed_sum_paths(start, layers, trunc)
    assert got == two_pass_sum(start, layers, trunc)
    want, top = backward_dict_sum(start, layers, trunc)
    assert got == want
    bound = proven_bound(layers)
    if bound:
        assert bound >= top, (bound, top)
    else:
        assert not got and any(not moves for _, moves, _ in layers)
    return got


# ---------------------------------------------------------------------------
# both engines' walks with tuple states, as they were written before states
# became ints (positions in lawrence, packed labels in zhat), kept as oracles


def tuple_generator_moves(n, m, i, sign, convention):
    """Generator i (sign +1/-1) on weight_states(n, m) as moves: {src:
    [(dst, x_half, weight), ...]}, cheapest first."""
    weight = (lawrence._positive_weight if sign > 0
              else lawrence._negative_weight)
    table = {}
    for s in lawrence.weight_states(n, m):
        L = s[i - 2] if i > 1 else 0
        A = s[i - 1]
        R = s[i] if i < n - 1 else 0
        moves = []
        for b in range(L + 1):
            for c in range(R + 1):
                t = list(s)
                if i > 1:
                    t[i - 2] = L - b
                t[i - 1] = A + b + c
                if i < n - 1:
                    t[i] = R - c
                coeff, xh = weight(A, b, c, convention)
                moves.append((tuple(t), xh, coeff))
        moves.sort(key=itemgetter(1))
        table[s] = moves
    return table


def tuple_forward_layers(walk, start, trunc):
    """The forward min-plus pass of walks.closed_sum over tuple-keyed move
    tables, or None if no walk returns to start within trunc: walk holds
    one (table, low) pair per letter, a move costs its x_half less low,
    and a letter's norm is the largest row norm of the states it leaves."""
    layers = []
    reach = {start: 0}
    for gen, low in walk:
        moves = []
        nxt = {}
        norm = max(row_norm(gen[src]) for src in reach)
        for src, cost in reach.items():
            for dst, xh, weight in gen[src]:
                xh -= low
                to = cost + xh
                if to > trunc:
                    break  # the moves come sorted by cost
                moves.append((src, dst, xh, weight))
                if to < nxt.get(dst, trunc + 1):
                    nxt[dst] = to
        if not nxt:
            return None
        layers.append((reach, moves, norm))
        reach = nxt
    if start not in reach:
        return None
    return layers


def row_norm(moves):
    """The sum of ||weight||_1 over the moves of one state, each move a
    tuple whose last entry is its weight."""
    return sum(abs(c) for move in moves for c in move[-1].terms.values())


def tuple_walk(word, m):
    """The word's positive `half` generators as tuple-keyed move tables,
    one (table, cheapest x_half of the table) pair per letter."""
    tables = {}
    for v in set(word.letters):
        table = tuple_generator_moves(word.n, m, v, 1, lawrence.HALF)
        tables[v] = table, min(xh for moves in table.values()
                               for _, xh, _ in moves)
    return [tables[v] for v in word.letters]


def tuple_truncated_trace_table(word, m, trunc):
    """lawrence.truncated_trace_table summed over tuple states: the walks
    run at trunc less the sum S of the letters' cheapest costs, and their
    sum is shifted back by S."""
    walk = tuple_walk(word, m)
    shift = sum(low for _, low in walk)
    tr = {}
    for s in lawrence.weight_states(word.n, m):
        layers = tuple_forward_layers(walk, s, trunc - shift)
        if layers is not None:
            xs_addmul_term_into(tr, walks.sum_paths(s, layers, trunc - shift),
                                {0: 1}, shift, trunc)
    return tr


def column_signs(word):
    """+1 or -1 for each of the word's n - 1 columns."""
    return tuple(1 if s == "+" else -1 for s in analyze(word).column_sign)


def oracle_letter_budgets(letters, col_sign, bottom, trunc):
    """trunc - h_j(b) for each letter j, added up per bottom by the rule of
    zhat._letter_budgets: walking the letters backward, a positive column
    adds b_i and a negative column with no neighbor crossing after its
    last own crossing adds 2 b_i from the letter before that crossing on."""
    out = []
    h = 0
    seen = set()  # columns whose last own crossing is already behind us
    crowded = set()  # columns with a neighbor crossing after the letter
    for i in reversed(letters):
        out.append(trunc - h)
        if i not in seen:
            seen.add(i)
            if col_sign[i - 1] > 0:
                h += bottom[i - 1]
            elif i not in crowded:
                h += 2 * bottom[i - 1]
        crowded.add(i - 1)
        crowded.add(i + 1)
    out.reverse()
    return out


def tuple_closed_amplitude(word, col_sign, bottom, trunc, limit, cache):
    """The closed label paths of one bottom at label bound limit, as
    zhat._charge_tables sums them, with the label vector as a tuple padded
    by a boundary label 0 at both ends, splicing each move's three labels
    in, and one budget per letter.  A bottom with a label above limit
    closes no path (proof in zhat._bottoms), so it gets {}."""
    if max(bottom, default=0) > limit:
        return {}
    start = (0,) + bottom + (0,)
    kinds = (0,) + col_sign + (0,)

    letters = [abs(letter) for letter in word.letters]
    budgets = oracle_letter_budgets(letters, col_sign, bottom, trunc)

    layers = []
    reach = {start: 0}
    for i, budget in zip(letters, budgets):
        sign, kindL, kindR = kinds[i], kinds[i - 1], kinds[i + 1]
        moves = []
        nxt = {}
        top = 0
        for src, cost in reach.items():
            head, tail = src[:i - 1], src[i + 2:]
            key = (sign, kindL, kindR, src[i - 1], src[i], src[i + 1], limit)
            out = zmod._transitions(key, cache)
            top = max(top, row_norm(out))
            for nL, nM, nR, xh, coeff in out:
                to = cost + xh
                if to > budget:
                    break  # the moves come sorted by cost
                dst = head + (nL, nM, nR) + tail
                moves.append((src, dst, xh, coeff))
                if to < nxt.get(dst, budget + 1):
                    nxt[dst] = to
        if not nxt:
            return {}
        layers.append((reach, moves, top))
        reach = nxt
    if start not in reach:
        return {}

    return walks.sum_paths(start, layers, trunc)


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
