"""Flow-loop generating series Phi(x, q) and its BPS normalization.

For a homogeneous braid word whose closure is a knot, Phi is a weighted
count of closed flow loops in the open book of the closure.  It is
computed two ways:

* phi_positive: for all-positive words, from the graded traces as
      sum_m (1 - q^{2m+n-1} x^n) q^{-m} Tr_{V_{n,m}}
  where each trace is a sum of closed walks of the weight-m states,
  truncated at x^order (lawrence.truncated_trace_table), each state named
  by its position in lawrence.weight_states.  Every positive
  move costs a nonnegative x-power, so the same forward min-plus pass and
  backward series pass as in the DP below (walks.closed_sum) form no term
  above x^order, and a start state with no closed walk within it does no
  series work.  A closed walk of a weight-m state costs at least x^m
  (proved in lawrence.truncated_trace_table), so a weight above the order
  has an empty trace and the weight loop stops at the order.  The weight
  m is the DP's conserved charge m~ on an all-positive word, so the traces
  are the closed-walk tables by charge that _assemble turns into Phi.
  Every weight runs on the word's cut (_cut), at every cap: rotating the
  word by k letters maps its closed walks one-to-one onto those of the
  rotation (start each walk k letters later), with the same weight and
  the same total cost, so every truncated trace is the same term for
  term, whatever the order or cap.  A
  trace does not depend on the cutoff cap, so the stabilization check
  assembles the traces of weights cap + 1 and cap + 2 on their own and
  raises iff that is nonzero, instead of recomputing Phi at cap + 2.  At
  the default cap = order those two weights lie above the order.
* phi_homogeneous: for any homogeneous word, by a column-label transfer
  DP.  Each column carries a nonnegative label (for negative columns the
  label is the "hat" of the true label, lambda = -1 - hat).  Reading the
  word bottom to top, at a crossing of column i the neighbors shed
  nonnegative amounts into the middle:

      middle label below u, above v = u + (left shed) + (right shed)

  in true-label terms at every crossing, which for a negative middle
  column means its hat DROPS by the total shed.  With low = min(u, v)
  and high = max(u, v) = low + b + c, the crossing weight is

      positive column:  (-1)^low q^{(low^2+high)/2} [high; low, b, c]_q
      negative column:  the same with q -> 1/q

  times x^{(u+v)/2}: a negative crossing carries the mirror image of the
  positive weight.

  and each closed loop picks up the axis-sector factor
  q^{(2 eps - 1) m~ + eps (col+ - col-)} (-x^n)^eps over eps in {0, 1},
  where m~ = sum_+ labels - sum_- hats is conserved by every transition
  (asserted; this conservation is exactly the telescoping of the
  q^{(hat_above - hat_below)/2} factors around closed columns).  So a run
  sums its closed loops into one table per charge m~ (_charge_tables), and
  _assemble applies the two sectors to each table, as it does to the
  positive route's traces.  A loop starts from a bottom, n - 1 labels with
  sum <= 2 cap (_bottoms).

  The DP forms no term of x-half-degree above trunc = 2 order + 1.  This
  is exact: labels are nonnegative, so every crossing cost (u+v)/2 is
  >= 0 and the degree of a path never falls; a term above trunc is
  dropped by the truncated product and the closing sector factor
  x^{n eps} only raises it further.  Per bottom, a forward min-plus pass
  over integer costs records each letter's moves and the cheapest cost
  from the bottom to each state before any series arithmetic, so a
  bottom that cannot return within budget costs no amplitude work.  A
  closed path within trunc also keeps every label <= order (proof in
  _label_bound), so no state or bottom above that is visited, and two
  more lower bounds on the cost of a closed path prune before and inside
  the forward pass: a bottom b whose closed paths all cost at least
  2 W(b) > trunc, W(b) the largest label sum over columns no two of which
  can both shed into each other before the cut (proof in _window_bound),
  gets no forward pass, and letter j keeps only the moves that end within
  its budget trunc - h_j(b), where h_j(b) bounds the cost of the letters
  after j on any path that ends at b (_letter_budgets).  Neither drops a
  move of a closed path within trunc, so the sum is the one without
  them.  Both are taken once per run, not per bottom: the window filter
  reads the word only through its live edges, so the filtered bottoms are
  kept per (n, cap, label bound, live edges, trunc) (_open_bottoms), and
  h_j(b) is one linear form sum_i a_{j,i} b_i whose rows change only at a
  column's last own crossing, so the letters fall into at most n runs of
  one budget (_letter_runs) and a bottom pays one dot product per run,
  at most n, not one per letter.  The q-weight of a crossing depends only
  on the middle column's sign, low and the two sheds, and is shared by
  every move that has them.
  A state is one int, the label tuple padded with a boundary 0 at each
  end: column i's label (its hat, for a negative column) sits in bits
  [i B, (i + 1) B), B = _field_width(limit) bits for the run's label bound
  `limit`, and the boundary columns 0 and n read 0, columns of kind 0 that
  shed nothing, so one rule serves every crossing (_transitions).  No move
  lands on a label above limit, so no field overflows.  A crossing of any
  column i reads columns i - 1..i + 1 as the 3 B bits from (i - 1) B up,
  masked in place, and one table per process, column, kinds of columns
  i - 1..i + 1 and limit (_column_table) maps them to the crossing's row:
  its moves as (delta, x_half, coeff), one tuple per (delta, x_half), a
  move landing on state + delta, and its row norm, the sum of ||coeff||_1
  over them.  A row is built on its first read and shared by every word
  and run with that key.  The engine only builds these tables and their
  runs of one budget: walks.closed_sum runs the forward pass, which keeps
  per letter the largest row norm it reads, and the backward series pass:
  each move adds its end's sum home times its weight into its source in
  place, truncated at trunc minus the cheapest cost to the source, on
  Kronecker-packed q-coefficients whose width those norms prove.  Each
  bottom's decoded {x_half: {q_half: coeff}} table becomes its charge's
  table or goes into it through one ring.xs_addmul_term_into; only Phi
  becomes an XSeries.

  The label cap is checked only where it can bind: below the order a
  second run at cap + 2 must give the same Phi; at cap >= order the two
  runs provably agree (proof in phi_homogeneous), so Phi takes one run.

  Where the word is cut decides which bottoms the two bounds keep.  At
  cap >= order the one run is the whole truncated trace of the transfer
  product, and every cyclic rotation of the word closes to the same knot
  and has the same trace, so the run takes the word's cut (_cut): its
  first rotation that starts on a positive letter and ends on a negative
  one, or, for a one-sign word, which has no such boundary, its rotation
  with the longest windows.  A -|+ cut sits between a negative column's
  own crossing and a positive column's own crossing, both columns have
  empty windows, and the two bounds usually prune more than at the given
  cut.  Below the order the bottoms' sum filter makes the run depend on
  the cut, so there the given word runs, and so does its cap + 2 guard.

Both engines refuse an order or cap whose start states times letters pass
PHI_WORK_LIMIT, before they build any state.

zhat() multiplies Phi by the closure prefactor
(-1)^{1+cr-+col-} q^{(w-(n-1))/2 + col-} x^{(w-n)/2 + cr-}.  With
g = (c - n + 1)/2, w = c - 2 cr- and lam = cr- - col-, it is the genus
form (-1)^{1+lam} q^{g-lam} x^{g-1/2} term for term.

On an all-positive word at cap >= order, zhat() runs phi_positive on the
word with its end columns thinned and destabilized (braid._thin_ends):
braid moves that keep the word positive, far commutation and
sigma_e sigma_f sigma_e = sigma_f sigma_e sigma_f, bring an end column
sigma_1 or sigma_(n-1) down to one letter where they can, and Markov
destabilization (braid._destabilize) then rotates that letter to the end
and drops it.  The closure stays the same knot (the moves keep the braid
up to conjugation; Markov's theorem, with the half-twist conjugation
sigma_i <-> sigma_(n-i) for the sigma_1 end), every step keeps g and lam,
and by the paper's theorem Phi times the prefactor is the knot invariant
Zhat, so Phi is the same.  At cap >= order Phi is the whole truncated
series; below the order the weight cutoff on n strands is not one on
n - 1, so the given word runs there.  phi_positive, phi_homogeneous and
words with a negative letter run the word they are given.
"""

import functools
from dataclasses import dataclass
from itertools import groupby, product
from math import comb
from operator import itemgetter, mul

from . import braid as _braid
from . import lawrence as _lawrence
from . import walks as _walks
from .errors import InputError, VerificationError, require_nonnegative
from .ring import (
    QLaurent,
    XSeries,
    ql_norm,
    qbinom,
    qtrinom,
    xs_addmul_term_into,
)

# Phi takes one forward step per start state and letter: on the DP route
# from at most (label bound + 1)^(n - 1) bottoms, on the positive route
# from the C(weight bound + n - 1, n - 1) states of weights up to the
# weight bound.  Past this many start states times letters it refuses the
# order or cap before it builds any state.  The benchmark items need at
# most 3,645.
PHI_WORK_LIMIT = 10 ** 6


def _require_work(starts, kind, word, order):
    """Refuse a Phi run from `starts` start states (`kind`) per letter of
    the word when that passes PHI_WORK_LIMIT."""
    letters = len(word.letters)
    if starts * letters > PHI_WORK_LIMIT:
        raise InputError(
            f"order {order} needs {starts * letters} forward steps "
            f"({starts} {kind} x {letters} letters), past "
            f"PHI_WORK_LIMIT = {PHI_WORK_LIMIT}"
        )


def _finalize_phi(phi, label, word, order, cap=None):
    if phi.coeff(0) != QLaurent.one():
        raise VerificationError(
            f"{label} of {_braid._where(word, order, cap)} does not "
            f"start with 1: {phi}")
    if not phi.x_integral or not phi.q_integral:
        raise VerificationError(
            f"{label} of {_braid._where(word, order, cap)} kept "
            f"half-integer exponents: {phi}")
    return phi


def _assemble(parts, spin, n, trunc):
    """Phi from its closed-walk tables by conserved charge, truncated at
    x-half trunc: the sum over the tables T of parts = {m~: T} of

        (q^{-m~} - q^{m~ + spin} x^n) T,

    the axis sectors eps = 0, 1 of the module docstring, with spin =
    col+ - col-, the positive columns less the negative ones.  Both
    engines hand their tables to this one assembly: the DP's by charge
    (_charge_tables), the positive route's graded traces by weight, whose
    word has n - 1 positive columns.  The raw table is built in place, two
    ring.xs_addmul_term_into calls per charge, and becomes an XSeries once."""
    phi = {}
    for m, table in parts.items():
        xs_addmul_term_into(phi, table, {-2 * m: 1}, 0, trunc)
        xs_addmul_term_into(phi, table, {2 * (m + spin): -1}, 2 * n, trunc)
    return XSeries._adopt(phi, trunc)


# ---------------------------------------------------------------------------
# positive words: assemble from truncated closed-walk traces

def phi_positive(word, order, cap=None, stabilize=True):
    """Phi for an all-positive homogeneous knot word, truncated at x^order.

    Phi(cap) is the _assemble of the graded traces Tr V_{n,m} for
    m = 0..cap, the weight parts (1 - q^{2m+n-1} x^n) q^{-m} Tr V_{n,m},
    each trace a sum of closed walks truncated while walking
    (lawrence.truncated_trace_table).  The weight cutoff cap defaults to
    the x-order: a knot word has a letter on every column, so every closed
    walk of a weight-m state costs at least x^m (proof in
    lawrence.truncated_trace_table), and a weight above the order has an
    empty trace, so the loop stops at the order.

    Every weight, at every cap and in the guard below, runs on the word's
    cut (_cut), its rotation with the longest windows.  This is exact:
    rotating the word by k letters maps its closed walks one-to-one onto
    those of the rotation (start each walk k letters later), with the same
    weight and the same total cost, so each truncated trace is the same
    term for term.  Every rotation closes to the same knot (Markov's
    theorem; Birman, Braids, Links, and Mapping Class Groups).  The rule
    only decides how much the walks prune.  The result and every message
    keep the given word; lawrence.truncated_trace_table runs the word it
    is given.

    stabilize insists that raising the cutoff to cap + 2 changes nothing,
    in one run: a trace depends on m and the x-order only, never on cap,
    and truncated series add exactly, so Phi(cap + 2) = Phi(cap) + Delta
    with Delta the _assemble of the traces of weights cap + 1 and cap + 2.
    Since Phi + Delta != Phi iff Delta != 0, the guard raises iff Delta is
    nonzero, that is iff Phi(cap + 2) != Phi(cap).  For cap >= order both
    weights lie above the order, so their traces are empty and the guard
    passes; for cap < order the ones up to the order are computed.  An
    order or cap whose start states times letters pass PHI_WORK_LIMIT
    raises InputError."""
    if _braid.require_homogeneous_knot(word).cr_minus:
        raise InputError("phi_positive needs an all-positive word")
    return _phi_positive(word, order, cap, stabilize)


def _phi_positive(word, order, cap, stabilize):
    """phi_positive past its gate: word is an all-positive knot word."""
    if cap is None:
        cap = order
    require_nonnegative(order=order, cap=cap)
    n = word.n
    top = min(cap + 2 if stabilize else cap, order)
    _require_work(comb(top + n - 1, n - 1), "start states", word, order)
    trunc = 2 * order + 1
    # every rotation has the same truncated traces, term for term (proof
    # in phi_positive), so each weight runs on the word's cut
    run = _cut(word)
    try:
        parts = {m: _lawrence.truncated_trace_table(run, m, trunc)
                 for m in range(top + 1)}
    except VerificationError as exc:
        # truncated_trace_table names the word and the weight, not the order
        raise VerificationError(
            f"{exc} in {_braid._where(word, order, cap)}") from exc
    if _assemble({m: t for m, t in parts.items() if m > cap}, n - 1, n,
                 trunc):
        raise VerificationError(
            f"weight cutoff not stable: raising it to cap + 2 changes "
            f"phi_positive of {_braid._where(word, order, cap)}"
        )
    phi = _assemble({m: t for m, t in parts.items() if m <= cap}, n - 1, n,
                    trunc)
    return _finalize_phi(phi, "phi_positive", word, order, cap)


# ---------------------------------------------------------------------------
# homogeneous words: column-label transfer DP

@functools.cache
def _crossing_weight(mid_sign, low, b, c):
    """q-weight of a crossing whose middle label is u below and v above,
    low = min(u, v), and whose neighbors shed b and c:

        (-1)^low q^{(low^2 + high)/2} [high; low, b, c]_q,  high = low + b + c,

    with q -> 1/q when the middle column is negative, the mirror image of
    the positive weight.  It does not depend on the neighbors' labels or
    on the cap, so every move with the same key shares one object; a
    Gaussian multinomial with nonnegative parts is never zero."""
    high = low + b + c
    coeff = qtrinom(high, low, b, c).shift(low * low + high)
    if mid_sign < 0:
        coeff = coeff.bar()
    return -coeff if low % 2 else coeff


def _transitions(key, cache):
    """All moves of one crossing: key = (mid_sign, kindL, kindR, lL, lM, lR,
    cap); returns [(nL, nM, nR, x_half, coeff), ...] sorted by x_half.

    kind* is a neighbor's column sign, or 0 for the boundary past either
    end, which holds label 0.  A neighbor of kind k goes from l to
    l - k shed: a positive label drops to >= 0, a negative hat rises to
    <= cap, and the boundary sheds nothing.  Every label a move lands on
    is <= cap and its weight does not depend on cap, so the moves at a
    smaller cap are those whose landed labels stay within it."""
    hit = cache.get(key)
    if hit is not None:
        return hit
    mid_sign, kindL, kindR, lL, lM, lR, cap = key
    out = []
    for b in range((lL if kindL >= 0 else cap - lL) + 1):
        for c in range((lR if kindR >= 0 else cap - lR) + 1):
            v = lM + mid_sign * (b + c)
            if v < 0 or v > cap:
                continue
            coeff = _crossing_weight(mid_sign, min(lM, v), b, c)
            nL, nR = lL - kindL * b, lR - kindR * c
            # conserved charge m~ = sum_+ labels - sum_- hats; its
            # conservation is the telescoping of the per-column
            # q^{(hat_above - hat_below)/2} factors around a closed braid
            if mid_sign * (v - lM) + kindL * (nL - lL) + kindR * (nR - lR):
                raise VerificationError(
                    f"charge leak in transfer move {key}")
            out.append((nL, v, nR, lM + v, coeff))
    out.sort(key=itemgetter(3))
    cache[key] = out
    return out


def _bottoms(n, cap, bound):
    """Every starting label vector: n - 1 labels in [0, bound] with sum
    <= 2 cap, in lexicographic order.

    At bound = the run's label bound limit this leaves out no bottom that
    closes a path: a bottom with a label above limit closes no path, since
    in a knot word every column has an own crossing, which lands its label
    within limit, and after its last one a positive label only drops and a
    negative hat rises to at most limit."""
    return [b for b in product(range(bound + 1), repeat=n - 1)
            if sum(b) <= 2 * cap]


@functools.cache
def _open_bottoms(n, cap, bound, live, trunc):
    """The bottoms of _bottoms(n, cap, bound) whose closed paths may cost
    at most trunc: those with 2 W(b) <= trunc, W(b) = _window_bound(b,
    live).  The filter reads the word only through its live edges, so one
    tuple serves every run in the process with this key."""
    return tuple(b for b in _bottoms(n, cap, bound)
                 if 2 * _window_bound(b, live) <= trunc)


def _label_bound(trunc, cap):
    """The largest label the DP at label cap `cap` has to admit.

    No label on a closed path of x-half cost <= trunc exceeds trunc // 2
    (= order), so the DP runs at min(cap, trunc // 2).  Proof.  In x-half
    units a crossing whose middle label is u below and v above, and whose
    neighbors shed b and c, costs
    u + v = 2 min(u, v) + b + c (v = u + b + c for a positive middle,
    v = u - b - c for a negative one), and each unit of shed is paid at
    exactly one crossing, as the b or c of the crossing it is shed into.
    Cut a closed path anywhere and take a positive column with label l
    there.  Its label rises only at its own crossings, and by the sheds it
    receives there; it drops only when it sheds into a neighbor's
    crossing.  Let T be its total rise, which equals its total drop since
    the path closes.  In a knot closure every column has an own crossing;
    let u_1 be its label just below the first one after the cut.  Until
    then the label only drops, so l <= u_1 + T.  Its own crossings pay
    at least 2 u_1 + T: the first has min(u, v) = u_1, the other 2 min
    terms are >= 0, and their b + c are the sheds it receives, T in all.
    The crossings it sheds into pay T more, and those are other crossings
    than its own.  So the path costs at least 2 u_1 + 2 T >= 2 l.  A
    negative column's hat is the mirror case: it drops at its own
    crossings (min(u, v) = v there) and rises by its sheds, so with v_0
    its hat just above its last own crossing before the cut, l <= v_0 + T
    and the path costs at least 2 v_0 + 2 T >= 2 l.  Hence 2 l <= trunc
    on every closed path that reaches the truncated series.  States and
    bottoms with a larger label carry nothing, and the moves at any cap
    are exactly those whose labels landed on stay within it, so the
    smaller cap drops just them."""
    return min(cap, trunc // 2)


def _window_lengths(letters, column, sign):
    """The length of the column's window in each rotation letters[k:] +
    letters[:k] of the word, k = 0..L - 1, in one sweep; letters are the
    word's columns (|letter|) and the column has an own crossing.

    A column's window is the part of the word in which it can shed label
    before the cut at the bottom is reached: for a positive column the
    letters before its first own crossing, for a negative column the
    letters after its last own crossing (see _window_bound).  So in
    rotation k a positive window runs from letter k to the column's next
    own crossing at or after it, and a negative one from its last own
    crossing before letter k (cyclically) to letter k - 1."""
    size = len(letters)
    own = [j for j, c in enumerate(letters) if c == column]
    out = [0] * size
    if sign > 0:
        nxt = own[0] + size
        for k in range(size - 1, -1, -1):
            if letters[k] == column:
                nxt = k
            out[k] = nxt - k
    else:
        last = own[-1] - size
        for k in range(size):
            out[k] = k - 1 - last
            if letters[k] == column:
                last = k
    return out


def _live_edges(letters, col_sign):
    """For each edge (i, i + 1), i = 0..n - 2, whether it is live: each of
    its columns has a crossing of the other inside its own window
    (_window_lengths of the word as given); the boundary column 0 has
    none.  letters are the word's columns (|letter|)."""
    size = len(letters)
    windows = []
    for i, sign in enumerate(col_sign, start=1):
        length = _window_lengths(letters, i, sign)[0]
        windows.append(set(letters[:length] if sign > 0
                           else letters[size - length:]))
    return (False,) + tuple(i + 1 in windows[i - 1] and i in windows[i]
                            for i in range(1, len(col_sign)))


def _window_bound(bottom, live):
    """W(b): the largest sum of the labels of a set of columns that never
    holds both ends of a live edge (path DP; live[i] joins columns i, i + 1).

    Every closed path bottom -> bottom costs at least 2 W(b) in x-half
    units, so a bottom with 2 W(b) > trunc carries nothing.  Proof.  A
    crossing costs u + v = 2 min(u, v) + b + c (see _label_bound), so a
    closed path costs twice its min terms plus all its sheds.  On a closed
    path every column sheds what it receives (a positive label rises by what
    it receives and drops by what it sheds, a negative hat the other way
    round, and both return to the bottom).  Let f(i -> j) be what column i
    sheds into the crossings of its neighbor j: receipts equal sheds at
    every column, and the columns form a path, so (by induction from an end
    of it) f(i -> i+1) = f(i+1 -> i) = f_e on each edge e, and all the sheds
    add up to 2 sum_e f_e.  In a knot closure every column has an own
    crossing.  Before a positive column's first own crossing its label only
    drops, so there min(u, v) = u = b_i - D_i, with D_i what it shed inside
    its window; after a negative column's last own crossing its hat only
    rises, so there min(u, v) = v = b_i - D_i likewise.  The column sheds
    inside its window only into neighbors that cross there, so D_i <= the
    sum of f_e over those edges.  Take a set I of columns with no live edge:
    each edge is then charged to at most one D_i of I, and the path costs at
    least
        2 sum_{i in I} (b_i - D_i) + 2 sum_e f_e >= 2 sum_{i in I} b_i,
    the min terms of I being those of distinct crossings."""
    take = skip = 0  # the best set with / without the previous column
    for i, label in enumerate(bottom):
        if live[i]:
            take, skip = skip + label, max(take, skip)
        else:
            skip = max(take, skip)
            take = skip + label
    return max(take, skip)


def _letter_budgets(letters, col_sign):
    """The linear form h_j(b) = sum_i a_{j,i} b_i, a_{j,i} in {0, 1, 2}, as
    one row (a_{j,1}, ..., a_{j,n-1}) per letter j: h_j(b) bounds from
    below the cost of the letters after j of any path that ends at bottom
    b, so letter j's budget trunc - h_j(b) is the most a path may have
    cost after letter j and still close within trunc.

    Column i adds
    * a_{j,i} = 1 if it is positive and has an own crossing after letter
      j: after its last own crossing its label only drops, to b_i, so that
      crossing has v = b_i + its later sheds and costs u + v >= b_i;
    * a_{j,i} = 2 if it is negative, has an own crossing after letter j
      and no neighbor crossing after its last one: its hat cannot move
      after that crossing, so there v = b_i and u >= v;
    and 0 otherwise.  Distinct columns count distinct crossings, and every
    crossing costs >= 0, so the sum is a lower bound.  A move of letter j
    that ends above trunc - h_j(b) lies on no closed path within trunc.

    Column i's coefficient is set once, at its last own crossing: it is
    a_{j,i} before that letter and 0 from it on.  So the rows change at no
    more than n - 1 letters and fall into at most n runs of equal rows,
    and every budget in a run is the same.  The form depends on the word
    only, so a run of the DP takes it once, grouped into those runs
    (_letter_runs), and each bottom pays one dot product per run."""
    rows = []
    row = [0] * len(col_sign)
    seen = set()  # columns whose last own crossing is already behind us
    crowded = set()  # columns with a neighbor crossing after the letter
    for i in reversed(letters):
        rows.append(tuple(row))
        if i not in seen:
            seen.add(i)
            if col_sign[i - 1] > 0:
                row[i - 1] = 1
            elif i not in crowded:
                row[i - 1] = 2
        crowded.add(i - 1)
        crowded.add(i + 1)
    rows.reverse()
    return rows


def _field_width(limit):
    """Bits per label of a packed state whose labels are all <= limit."""
    return max(limit.bit_length(), 1)


def _pack(labels, width):
    """The label vector of columns 1..n - 1 as one int: column i's label in
    bits [i width, (i + 1) width), with the boundary column 0's field,
    bits [0, width), and everything from column n's field up left 0."""
    state = 0
    for label in reversed(labels):
        state = (state | label) << width
    return state


class _ColumnTable(dict):
    """The rows of the crossings of column i at label bound limit, whose
    columns i - 1..i + 1 have kinds kinds (0 for the boundary), in the row
    form of walks.closed_sum: the key is a packed state masked to those
    columns' 3 fields in place, the 3 B bits from (i - 1) B up,
    B = _field_width(limit), and the row is (moves, norm), one move
    (delta, x_half, coeff) per move of _transitions at cap = limit,
    cheapest first, landing on state + delta, and norm the sum of
    ||coeff||_1 over them.  A row is built on its first read
    (__missing__).

    A boundary neighbor has kind 0 and label 0, so it sheds nothing, and
    every label a move lands on is <= limit < 2^B, so no field overflows
    into its neighbor.  The table interns one tuple per (delta, x_half),
    shared by all its rows: the kinds are fixed, so each field of delta
    has a fixed sign and a magnitude below 2^B, and delta gives the sheds
    b and c; x_half = 2 low + b + c then gives low, and b, c and low fix
    the weight."""

    def __init__(self, kinds, i, limit):
        super().__init__()
        self.kinds, self.i, self.limit = kinds, i, limit
        self.interned = {}

    def __missing__(self, field):
        kindL, mid_sign, kindR = self.kinds
        width = _field_width(self.limit)
        low = (1 << width) - 1
        shift = (self.i - 1) * width
        here = field >> shift
        lL, lM, lR = here & low, (here >> width) & low, here >> 2 * width
        key = (mid_sign, kindL, kindR, lL, lM, lR, self.limit)
        out = []
        norm = 0
        # the table is this crossing's cache: a throwaway dict keeps
        # _transitions from holding every move list a second time
        for nL, nM, nR, xh, coeff in _transitions(key, {}):
            delta = ((nL - lL) + ((nM - lM) << width)
                     + ((nR - lR) << 2 * width)) << shift
            out.append(self.interned.setdefault((delta, xh),
                                                (delta, xh, coeff)))
            norm += ql_norm(coeff.terms)
        row = self[field] = tuple(out), norm
        return row


@functools.cache
def _column_table(kinds, i, limit):
    """The _ColumnTable of column i at label bound limit whose columns
    i - 1..i + 1 have kinds kinds.  A row depends on nothing else: not on
    the word, the order, the cap or the bottom, so one table serves every
    run in the process that has a crossing of column i with these kinds at
    this limit."""
    return _ColumnTable(kinds, i, limit)


def _letter_tables(letters, col_sign, limit):
    """Per letter, the (rows, mask) pair of walks.closed_sum at label bound
    limit: its column's _column_table and the mask of the 3 fields from
    (i - 1) B up that the table is keyed by."""
    width = _field_width(limit)
    kinds = (0,) + col_sign + (0,)
    return [(_column_table(kinds[i - 1:i + 2], i, limit),
             ((1 << 3 * width) - 1) << (i - 1) * width)
            for i in letters]


def _letter_runs(letters, col_sign, limit):
    """The word's _letter_tables at limit grouped into the runs of equal
    rows of _letter_budgets, in order: one (tables, row) pair per run, at
    most n of them, the row giving the run's one budget trunc - h(b) for
    each bottom b."""
    return [([table for _, table in run], row)
            for row, run in groupby(zip(_letter_budgets(letters, col_sign),
                                        _letter_tables(letters, col_sign,
                                                       limit)),
                                    key=itemgetter(0))]


def _charge_tables(word, order, cap, col_sign):
    """The closed label paths of one DP run at cap over the word as it is
    cut here, one {x_half: {q_half: coeff}} table per conserved charge
    m~ = sum_+ labels - sum_- hats of their bottom, truncated at
    x-half 2 order + 1; a charge whose table cancels to empty is left out.
    col_sign is +1 or -1 for each of the word's n - 1 columns.  The first
    bottom of a charge hands over its closed-path table, and each later
    one adds its table in through one ring.xs_addmul_term_into.

    A state is one int, the padded label tuple packed by _pack in fields
    of _field_width(limit) bits, and walks.closed_sum runs the forward
    min-plus pass and the backward series pass over the column tables: a
    state costs one mask and one dict lookup, a move one add.  The letters
    are grouped into runs of one budget once per call (_letter_runs), so a
    bottom b pays one dot product per run, at most n, for its budgets
    trunc - h_j(b), and the forward pass keeps a move of letter j only if
    it ends within its budget.  Every move it drops lies on no closed path
    within trunc, so the sum is the one with trunc as every budget."""
    trunc = 2 * order + 1
    limit = _label_bound(trunc, cap)
    width = _field_width(limit)
    letters = [abs(letter) for letter in word.letters]
    runs = _letter_runs(letters, col_sign, limit)
    parts = {}
    for bottom in _open_bottoms(word.n, cap, limit,
                                _live_edges(letters, col_sign), trunc):
        amp = _walks.closed_sum(
            _pack(bottom, width),
            [(run, trunc - sum(map(mul, row, bottom))) for run, row in runs],
            trunc)
        if not amp:
            continue
        m_tilde = sum(l if s > 0 else -l for l, s in zip(bottom, col_sign))
        table = parts.get(m_tilde)
        if table is None:
            parts[m_tilde] = amp  # a fresh table: walks.closed_sum built it
        else:
            xs_addmul_term_into(table, amp, {0: 1}, 0, trunc)
    return {m: table for m, table in parts.items() if table}


def _phi_homogeneous_run(word, order, cap, col_sign):
    """Phi at cap from one DP run over the word as it is cut here: the
    _assemble of its _charge_tables, spin = sum(col_sign).

    At cap >= order every rotation of the word gives the same Phi, and
    phi_homogeneous hands it the word's cut (_cut); below the order the
    bottoms' sum filter makes Phi depend on the cut, so it hands it the
    word as given."""
    return _assemble(_charge_tables(word, order, cap, col_sign),
                     sum(col_sign), word.n, 2 * order + 1)


def phi_homogeneous(word, order, cap=None, stabilize=True):
    """Phi for any homogeneous knot word, truncated at x^order.

    cap bounds every column label (default = order; by the label bound of
    _label_bound, no label above order reaches the truncated series).
    stabilize insists that raising the cap to cap + 2 changes nothing.
    Below the order that is a second DP run at cap + 2, which must equal
    the first.  At cap >= order the second run could not differ, so it is
    not made.  Proof.  Both runs admit labels up to min(cap, order) =
    min(cap + 2, order) = order, so they share every move and every
    bottom's amplitude; they differ only in the bottoms b with
    2 cap < sum b <= 2 cap + 4, so sum b >= 2 order + 1.  The odd columns
    hold no edge of the column path, nor do the even ones, so one of the
    two sets has label sum >= sum b / 2 and W(b) >= order + 1
    (_window_bound).  Every closed path from such a bottom costs at least
    2 W(b) >= 2 order + 2 > trunc, so it adds nothing to the truncated
    series: Phi(cap + 2) = Phi(cap) term for term.

    At cap >= order that one run starts from the word's cut: its first
    rotation that starts on a positive letter and ends on a negative one,
    or, for a one-sign (all-negative) word, which has no such -|+
    boundary, its first rotation with the largest total window length
    (_cut).  This is exact.  By the same argument a bottom with
    sum b >= 2 order + 1 closes no path within trunc, so the filter
    sum b <= 2 cap drops none, and by _label_bound neither does the label
    bound: the run is the sum of the closed paths within trunc over every
    bottom and every label, the truncated trace of the transfer product
    times the axis-sector factor, which depends only on the conserved m~.
    A trace does not change under cyclic rotation, and each rotation
    closes to the same knot (Markov's theorem; Birman, Braids, Links, and
    Mapping Class Groups).  At a -|+ cut the first letter's column and the
    last letter's column have empty windows (_live_edges), so
    _window_bound and _letter_budgets usually prune more; a one-sign
    word's cut, with the longest windows, is measured to run faster than
    the word as given.  Below the order the bottoms' filter sum b <= 2 cap
    does depend on the cut (n=5; -3 -4 1 -3 2 -3 at order 3, cap 1 gives
    another Phi than its cut), so both runs there take the word as given.
    The prefactor, every message and every result keep the given word.

    The DP is pruned to the moves on closed label paths whose summed
    crossing costs x^{(u+v)/2} stay within x^order.  Every cost is >= 0
    and terms above the truncation are dropped anyway, so the pruned
    moves only ever carried terms that truncation would discard: the
    series is the same as that of the unpruned DP.  An order or cap whose
    bottoms times letters pass PHI_WORK_LIMIT raises InputError.

    The DP's column tables (_column_table) outlive the call: the process
    keeps every table it has built, one per column, kinds of columns
    i - 1..i + 1 and label bound, and a table's fields grow like
    (bound + 1)^3 (n=4; 1 -2 1 -3 -2 at order 16 leaves 1.7 MB).
    _column_table.cache_clear() frees them, and _open_bottoms.cache_clear()
    the filtered bottoms."""
    return _phi_homogeneous(word, _braid.require_homogeneous_knot(word),
                            order, cap, stabilize)


def _cut(word):
    """The rotation of a knot word that the Phi engines run: phi_positive
    at every cap, phi_homogeneous at cap >= order.

    A word with a -|+ boundary is cut at its first rotation that starts on
    a positive letter and ends on a negative one.  A one-sign word has no
    such boundary; it is cut at its rotation with the largest total window
    length over its columns (_window_lengths), the first one on ties, so
    the word itself if it is one.  The scores of all L rotations take one
    sweep per column, O(L (n - 1)), and no rotation is built but the cut.
    Every rotation closes to the same knot and has the same truncated
    traces, so the rule only decides how much the engines prune; it is
    measured, not proven."""
    letters = word.letters
    for k, letter in enumerate(letters):
        if letter > 0 > letters[k - 1]:
            break
    else:
        columns = [abs(letter) for letter in letters]
        sign = 1 if letters[0] > 0 else -1
        scores = list(map(sum, zip(*(_window_lengths(columns, i, sign)
                                     for i in range(1, word.n)))))
        k = scores.index(max(scores))
    return word if k == 0 else _braid.BraidWord(
        word.n, letters[k:] + letters[:k])


def _phi_homogeneous(word, stats, order, cap, stabilize):
    """phi_homogeneous past its gate: stats is the word's BraidStats from
    braid.require_homogeneous_knot."""
    col_sign = tuple(1 if s == "+" else -1 for s in stats.column_sign)
    if cap is None:
        cap = order
    require_nonnegative(order=order, cap=cap)
    top = cap + 2 if stabilize else cap
    bound = _label_bound(2 * order + 1, top)
    _require_work((bound + 1) ** (word.n - 1), "bottoms", word, order)
    # at cap >= order the one run is the whole truncated trace (proof in
    # phi_homogeneous), the same on every rotation of the word
    run = _cut(word) if cap >= order else word
    try:
        phi = _phi_homogeneous_run(run, order, cap, col_sign)
        unstable = (stabilize and cap < order
                    and _phi_homogeneous_run(word, order, cap + 2,
                                             col_sign) != phi)
    except VerificationError as exc:
        raise VerificationError(
            f"{exc} in {_braid._where(word, order, cap)}") from exc
    if unstable:
        raise VerificationError(
            f"label cap not stable: raising it to cap + 2 changes "
            f"phi_homogeneous of {_braid._where(word, order, cap)}"
        )
    return _finalize_phi(phi, "phi_homogeneous", word, order, cap)


# ---------------------------------------------------------------------------
# BPS normalization

_REFERENCE_WORDS = {(2, (1, 1, 1)), (3, (1, -2, 1, -2))}


_NOTES_PINNED = ("prefactor sign pinned by the reference-model oracle",)
_NOTES_UNPINNED = (
    "prefactor sign follows the closure formula convention; "
    "no independent sign oracle for this word",
)


@dataclass(frozen=True, slots=True)
class ZhatResult:
    word: object
    stats: object
    phi: XSeries
    prefactor: tuple  # (sign, q_half, x_half)
    sign_pinned: bool
    notes: tuple

    @property
    def zhat(self):
        """Phi shifted by the prefactor, truncated as far as Phi is."""
        sign, q_half, x_half = self.prefactor
        return self.phi._times_term({q_half: sign}, x_half,
                                    self.phi.trunc + x_half)


def zhat(word, order, cap=None):
    """Phi and the BPS series of the closure knot, truncated prefactor-
    shifted.

    This is the one place that picks a Phi route: phi_positive for an
    all-positive word, phi_homogeneous otherwise.  cap goes to the route
    it picks under the same name, a weight cutoff on the first and a label
    cap on the second; both default to the order and both assemble Phi in
    _assemble.  The latter keeps its column tables for the rest of the
    process (see phi_homogeneous).

    An all-positive word at cap >= order (cap None included) runs on its
    thinned Markov destabilization (braid._thin_ends): the word left, on
    fewer strands, once every end column that far commutations and braid
    relations bring down to one letter is removed.  This is exact.  Each
    braid move keeps the braid up to conjugation (proof in
    braid._thin_ends), so the closure; it keeps n, c, cr- and col-.  The
    destabilized word closes to the same knot (Markov's theorem, with the
    half-twist conjugation sigma_i <-> sigma_(n-i) for the sigma_1 end;
    Birman, Braids, Links, and Mapping Class Groups), and a
    destabilization drops one letter and one strand, with
    cr- = col- = 0 on a positive word.  By the paper's theorem Phi times
    the prefactor is the knot's Zhat, a knot invariant, and the prefactor
    depends only on g = (c - n + 1)/2 and lam = cr- - col-, which every
    step keeps.  So both words have the same Phi.  At cap >= order
    Phi(cap) is that whole truncated series, since every weight above the
    order has an empty trace.  Below the order Phi(cap) sums only the
    weights up to cap, and a weight on n strands is not one on n - 1, so
    the given word runs there, guard included.  The work estimate is taken on the word that runs.
    phi_positive, phi_homogeneous and every word with a negative letter
    run the word they are given.  The result, its prefactor and every
    message keep the given word."""
    stats = _braid.require_homogeneous_knot(word)
    n, w = stats.n, stats.writhe
    crm, colm = stats.cr_minus, stats.col_minus
    sign = -1 if (1 + crm + colm) % 2 else 1
    q_half = (w - (n - 1)) + 2 * colm
    x_half = (w - n) + 2 * crm
    # the engines past their gate: this one analyzed the word already
    if crm:
        phi = _phi_homogeneous(word, stats, order, cap, stabilize=True)
    else:
        run = (word if cap is not None and cap < order
               else _braid._thin_ends(word))
        try:
            phi = _phi_positive(run, order, cap, stabilize=True)
        except VerificationError as exc:
            if run is word:
                raise
            raise VerificationError(
                f"zhat of {_braid._where(word, order, cap)} failed on its "
                f"destabilization: {exc}") from exc
    pinned = (word.n, tuple(word.letters)) in _REFERENCE_WORDS
    return ZhatResult(
        word=word,
        stats=stats,
        phi=phi,
        prefactor=(sign, q_half, x_half),
        sign_pinned=pinned,
        notes=_NOTES_PINNED if pinned else _NOTES_UNPINNED,
    )


# ---------------------------------------------------------------------------
# reference closed-form models (the oracles)

REFERENCE_MODELS = (
    "trefoil_braid", "trefoil_direct", "fig8_braid", "fig8_direct",
)


def reference_series(model, order):
    """Evaluate one of the four displayed closed-form state sums verbatim.

    These are independent of the transfer machinery and pin both the
    per-crossing weights and the axis sectors."""
    require_nonnegative(order=order)
    trunc = 2 * order + 1
    acc = XSeries.zero(trunc)
    one_minus_x = XSeries({0: QLaurent.one(), 2: QLaurent.monomial(-1, 0)},
                          trunc)
    if model == "trefoil_braid":
        a = 0
        while 3 * a <= order:
            for eps in (0, 1):
                xh = 6 * a + 4 * eps
                if xh > trunc:
                    continue
                qh = 3 * a * a + a + 4 * eps * a + 2 * eps
                sgn = -1 if (a + eps) % 2 else 1
                acc = acc + XSeries.monomial(
                    QLaurent.monomial(sgn, qh), xh, trunc
                )
            a += 1
        return acc
    if model == "trefoil_direct":
        for a in range(order // 2 + 1):
            for b in range(order - 2 * a + 1):
                qh = a * a + a
                coeff = qbinom(a + b, a).shift(qh)
                if a % 2:
                    coeff = -coeff
                acc = acc + XSeries.monomial(coeff, 2 * (2 * a + b), trunc)
        return one_minus_x * acc
    if model == "fig8_braid":
        for a in range(order + 1):
            for b in range((order - a) // 2 + 1):
                for d in range(max(0, a - b), order + 1):
                    if a + 2 * b + d > order:
                        break
                    f = b - a + d
                    for c in range(order + 1):
                        if a + c + 2 * b + d > order:
                            break
                        for e in range(order + 1):
                            deg = a + c + 2 * b + d + e
                            if deg > order:
                                break
                            tri = (
                                qbinom(a + c, a)
                                * qbinom(a + e, d)
                                * qbinom(b + e, b).bar()
                                * qbinom(b + c, a + c - d).bar()
                            )
                            if tri.is_zero:
                                continue
                            qh0 = (a * a + d * d - b * b - f * f)
                            # displayed correction (identically zero for
                            # admissible labels; kept as displayed)
                            qh0 += (a + d - b - f) - 2 * (a - b)
                            sgn0 = -1 if (a + d + b + f) % 2 else 1
                            for eps in (0, 1):
                                xh = 2 * deg + 6 * eps
                                if xh > trunc:
                                    continue
                                qh = qh0 + 4 * eps * (a - b)
                                sgn = -sgn0 if eps else sgn0
                                acc = acc + XSeries.monomial(
                                    QLaurent._raw(
                                        {e2 + qh: sgn * c2
                                         for e2, c2 in tri.terms.items()}
                                    ),
                                    xh,
                                    trunc,
                                )
        return acc
    if model == "fig8_direct":
        for c in range(order // 2 + 1):
            for a in range(order - 2 * c + 1):
                for b in range(order - 2 * c - a + 1):
                    for d in range(order - 2 * c - a - b + 1):
                        deg = a + b + 2 * c + d
                        coeff = (
                            qbinom(a + b + c, a).bar()
                            * qbinom(b + c, b)
                            * qbinom(c + d, c)
                        ).shift(2 * c * c)
                        acc = acc + XSeries.monomial(coeff, 2 * deg, trunc)
        return one_minus_x * acc
    raise InputError(
        f"unknown model {model!r}; pick one of {', '.join(REFERENCE_MODELS)}"
    )
