"""Closed-walk sums over per-letter move lists, truncated by min-plus costs.

Both Phi engines sum closed walks: the transfer DP over column-label
states (zhat) and the truncated trace over weight states (lawrence).  Each
builds its own states and moves, so the two routes stay independent; this
module holds only what they do alike once the moves are known.

A move is a tuple (src, dst, x_half, weight): one step from state src to
state dst that costs x^(x_half/2) and carries the q-weight `weight`, a
QLaurent.  States are opaque hashable keys here; both engines make them
small ints, since every dict lookup of the two passes hashes one: the
trace walk names a weight state by its position in
lawrence.weight_states, and the transfer DP packs a label vector,
padded with a zero boundary field at each end, into one int, one bit
field per column (zhat._pack).  A walk takes one move per letter, and its
weight is the product of its moves' weights times x to the sum of their
costs.

Every cost is an integer >= 0, so a walk's cost never falls, and a walk
of cost above trunc adds only terms that the truncated sum drops.  An
engine's forward pass records, letter by letter, the cheapest cost from
the start to each state and every move that ends within its letter's
budget: trunc, or less where the engine has a lower bound on what the
rest of a closed walk costs (the transfer DP's _letter_budgets), so that
a move above it lies on no closed walk of cost <= trunc.  sum_paths then
sums backward from the start, truncating each state's table at trunc
minus the cheapest cost of reaching it, so a term that no closed walk
keeps is never formed; the result is the truncated sum over all walks,
term for term.
"""

from .ring import xs_addmul_term_into


def sum_paths(start, layers, trunc):
    """Sum over the walks start -> start through the per-letter move lists
    of the product of their weights, truncated at trunc, as an
    {x_half: {q_half: coeff}} table.

    layers holds one (reach, moves) pair per letter from the forward pass:
    reach maps each state the letter starts from to the cheapest cost of
    getting there from start, and moves are the letter's moves out of those
    states.  Going from the last letter to the first, back[s] sums the
    walks from s home to start through the later letters: every move adds
    its end's table times its weight into its source's table in place
    (xs_addmul_term_into), and a table that cancels to empty is skipped.
    Every walk reaches src at a cost >= reach[src], so a term of src's
    table above trunc - reach[src] lies above trunc in every closed walk
    and is dropped there: the sum is exact."""
    back = {start: {0: {0: 1}}}
    for reach, moves in reversed(layers):
        prev = {}
        for src, dst, xh, weight in moves:
            tail = back.get(dst)
            if not tail:
                continue
            acc = prev.get(src)
            if acc is None:
                acc = prev[src] = {}
            xs_addmul_term_into(acc, tail, weight.terms, xh,
                                trunc - reach[src])
        back = prev
    return back.get(start, {})
