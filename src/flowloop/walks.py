"""Closed-walk sums over per-letter move lists, pruned by min-plus costs.

Both Phi engines sum closed walks: the transfer DP over column-label
states (zhat) and the truncated trace over weight states (lawrence).  Each
builds its own states and moves, so the two routes stay independent; this
module holds only what they do alike once the moves are known.

A move is a tuple (src, dst, x_half, weight): one step from state src to
state dst that costs x^(x_half/2) and carries the q-weight `weight`, a
QLaurent.  A walk takes one move per letter, and its weight is the product
of its moves' weights times x to the sum of their costs.

Every cost is an integer >= 0, so a walk's cost never falls, and a walk
of cost above trunc adds only terms that the truncated sum drops.  An
engine's forward pass records, letter by letter, the cheapest cost from
the start to each state and every move that ends within its letter's
budget: trunc, or less where the engine has a lower bound on what the
rest of a closed walk costs (the transfer DP's _letter_budgets), so that
a move above it lies on no closed walk of cost <= trunc; closed_moves
then runs the backward pass and keeps just the moves that lie on some
closed walk of cost <= trunc.  Summing over those moves gives the
truncated sum over all walks, term for term.
"""

from .ring import xs_addmul_term_into


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


def sum_paths(start, layers, trunc):
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
