"""Closed-walk sums over per-letter move tables, truncated by min-plus costs.

Both Phi engines sum closed walks: the transfer DP over column-label
states (zhat) and the truncated trace over weight states (lawrence).  Each
builds its own states and move tables, so the two routes stay
independent; this module runs the whole search once the tables are known:
one forward min-plus pass and one backward series pass (closed_sum).

States are ints, since every dict lookup of the two passes hashes one: the
trace walk names a weight state by its position in lawrence.weight_states,
and the transfer DP packs a label vector, padded with a zero boundary
field at each end, into one int, one bit field per column (zhat._pack).
A letter is a pair (rows, mask): rows[state & mask] is the state's row
(moves, norm).  Each move (delta, x_half, weight) is one step to
state + delta that costs x^(x_half/2) and carries the q-weight `weight`, a
nonzero QLaurent; a row's moves come cheapest first, and its norm is the
sum of ||weight||_1 over them.  The trace walk reads a list of rows by
position (mask -1); the DP reads the dict of a column, keyed by the three
label fields of a crossing in place.  A walk takes one move per letter,
and its weight is the product of its moves' weights times x to the sum of
their costs.

Every cost is an integer >= 0, so a walk's cost never falls, and a walk
of cost above trunc adds only terms that the truncated sum drops.  The
forward pass records, letter by letter, the cheapest cost from the start
to each state and every move that ends within its letter's budget: trunc,
or less where the engine has a lower bound on what the rest of a closed
walk costs (the transfer DP's _letter_budgets), so that a move above it
lies on no closed walk of cost <= trunc.  The letters come in runs that
share one budget, handed over once per run, not per letter: the DP's
bound changes at no more than n - 1 letters, and the trace walk reads all
its letters at one bound.  The pass also records per letter the largest
row norm N of the states the letter leaves.  sum_paths then sums
backward from the start, truncating each state's table at trunc minus the
cheapest cost of reaching it, so a term that no closed walk keeps is
never formed; the result is the truncated sum over all walks, term for
term.  Each q-coefficient of the sum is one integer, packed by the
Kronecker codec of ring (kronecker_pack) at a K that the row norms prove
(sum_paths).
"""

import functools

from .ring import kronecker_pack, kronecker_unpack


@functools.cache
def _packed_weights(K):
    """The weights packed at 2^K so far: id(weight) -> (weight, packed
    value, lowest q-half exponent).  An entry holds its weight, so no other
    object takes that id while the entry lives.  K is a multiple of 8, so
    few K occur and each weight is packed once per K."""
    return {}


def closed_sum(start, runs, trunc):
    """Sum over the walks start -> start through the letters of the runs of
    the product of their weights, truncated at trunc, as an
    {x_half: {q_half: coeff}} table, or {} if no walk closes.

    runs holds the walk's letters in order, grouped into runs (letters,
    budget): letters a list of (rows, mask) pairs, all read at one budget
    <= trunc.  The forward pass keeps a move only if it ends within its
    run's budget, and the layers it records, one per letter, go to
    sum_paths."""
    layers = []
    reach = {start: 0}
    for letters, budget in runs:
        for rows, mask in letters:
            moves = []
            nxt = {}
            top = 0
            for src, cost in reach.items():
                out, norm = rows[src & mask]
                if norm > top:
                    top = norm
                for delta, xh, weight in out:
                    to = cost + xh
                    if to > budget:
                        break  # the moves come sorted by cost
                    dst = src + delta
                    moves.append((src, dst, xh, weight))
                    if to < nxt.get(dst, budget + 1):
                        nxt[dst] = to
            if not nxt:
                return {}
            layers.append((reach, moves, top))
            reach = nxt
    if start not in reach:
        return {}
    return sum_paths(start, layers, trunc)


def sum_paths(start, layers, trunc):
    """Sum over the walks start -> start through the per-letter move lists
    of the product of their weights, truncated at trunc, as an
    {x_half: {q_half: coeff}} table.

    layers holds one (reach, moves, norm) triple per letter from the
    forward pass of closed_sum: reach maps each state the letter starts
    from to the cheapest cost of getting there from start, moves are the
    letter's moves (src, dst, x_half, weight) out of those states, and norm
    bounds the sum of ||weight||_1 over the moves of any one of those
    states (a weight is nonzero, so a letter of norm 0 has no move, and
    the pass below returns {} for it).  Going from the last letter to the
    first, back[s] sums the walks from s home to start through the later
    letters: every move adds its end's table times its weight into its
    source's table in place, and a table that cancels to empty is
    skipped.  Every walk reaches src at a
    cost >= reach[src], so a term of src's table above trunc - reach[src]
    lies above trunc in every closed walk and is dropped there: the sum is
    exact.

    Each x-term of a table is a pair (P, e): e is at most its lowest
    q-half exponent, and P its q-polynomial times q^(-e/2) at
    q^(1/2) = 2^K (ring.kronecker_pack).  A move multiplies P by its
    packed weight and adds the weight's lowest exponent to e, one big-int
    multiply per x-term; two terms at different e add after the one at the
    higher e is shifted left by K bits per step.  The start's table is
    decoded once, by ring.kronecker_unpack.

    Bound.  With B_j = max over s of ||back_j[s]||_1 after letter j's moves
    (back_L = start's table 1, so B_L = 1), back_j[s] is the sum of
    weight times x^(x_half/2) times back_(j+1)[dst] over s's moves,
    truncated; ||ab||_1 <= ||a||_1 ||b||_1 and truncation only drops terms,
    so every partial sum has ||.||_1 <= N_j B_(j+1), and B_j <= N_j ... N_L.
    So every coefficient of every table, intermediate ones included, is at
    most B = prod_j N_j.  K = B.bit_length() + 2, rounded up to a multiple
    of 8, gives B < 2^(K - 2): every packed value decodes exactly, and one
    is 0 iff its table is, so a cancelled x-term is deleted exactly.  K is
    proven, never guessed and retried."""
    bound = 1
    for _, _, norm in layers:
        bound *= norm
    K = (bound.bit_length() + 9) // 8 * 8
    packed = _packed_weights(K)
    back = {start: {0: (1, 0)}}
    for reach, moves, _ in reversed(layers):
        prev = {}
        for src, dst, xh, weight in moves:
            tail = back.get(dst)
            if not tail:
                continue
            hit = packed.get(id(weight))
            if hit is None:
                low = min(weight.terms)
                hit = packed[id(weight)] = (
                    weight, kronecker_pack(weight.terms, K, low), low)
            _, w, low = hit
            acc = prev.get(src)
            if acc is None:
                acc = prev[src] = {}
            top = trunc - reach[src] - xh
            for x, (p, e) in tail.items():
                if x > top:
                    continue
                x += xh
                p *= w
                e += low
                cur = acc.get(x)
                if cur is not None:
                    q, f = cur
                    if f < e:
                        p = q + (p << K * (e - f))
                        e = f
                    elif f > e:
                        p += q << K * (f - e)
                    else:
                        p += q
                    if not p:
                        del acc[x]
                        continue
                acc[x] = (p, e)
        back = prev
    return {x: kronecker_unpack(p, K, e)
            for x, (p, e) in back.get(start, {}).items()}
