"""Weight-graded braid representations V_{n,m}.

Basis states of V_{n,m} are (n-1)-tuples of nonnegative ints summing to m
(the label a_i sits on column i).  A positive generator i pulls b units off
the left neighbor and c off the right into the middle,

    (a_{i-1}, a_i, a_{i+1}) -> (a_{i-1}-b, a_i+b+c, a_{i+1}-c),

summed over 0 <= b <= a_{i-1}, 0 <= c <= a_{i+1}, where the columns 0 and
n past either end hold 0, so nothing is shed from there.  Two weight
conventions are supported:

  half   (-1)^{a_i} q^{(a_i^2 + a_i+b+c)/2} [a_i+b+c; a_i,b,c]_q
         x^{(2a_i+b+c)/2}
  under  (-1)^{a_i} q^{a_i(a_i-1)/2} [a_i+b+c; a_i,b,c]_q (qx)^{a_i+c}

Both give the same closed traces on knot words.  Negative generators use
the mirrored weights (q -> q^{-1}, monomials inverted, and for `under' the
left/right shed roles swapped); that mirror is checked against
sigma_i^{-1} sigma_i = id, exactly, for all (n, m) <= (4, 4) before any
negative move table is read (_letter_moves, the one gate of
generator_matrix, the trace walks and the q = 1 weight-rep route).  The
check sums the products of the cached move tables of both signs as raw
{q_half: coeff} tables through the ring kernel; a failed check raises
VerificationError rather than falling back to another inverse.  The exact
triangular inverse `_triangular_inverse` is kept as the independent
oracle the verify suite compares the mirror against.

Traces are sums of closed walks (truncated_trace_table): graded_trace,
and through it `flowloop trace`, unknot_closure_check and verma's Kohno
identity, takes them exact, zhat.phi_positive truncated at its order.
rep_matrix composes the GradedMatrix product; it serves `trace --dump`,
the braid-relation checks and the tests' oracle.

The walks and the mirror check name a state by its position in
weight_states(n, m), not by its tuple.  Each generator has one cached move
table (_generator_moves), in the row form of walks.closed_sum: a list
indexed by source position, each row its moves, which step by a position
offset at a cost shifted by the table's cheapest one, and its row norm,
from which walks.sum_paths proves the width of its Kronecker-packed
coefficients.  Every dict keyed by state in the two passes hashes a small
int.  _generator_mirror maps the positions back to tuples and the costs
back to x-powers for GradedMatrix, so matrices and dumps read as before.

Weights are m >= 0: generator_matrix, rep_matrix, graded_trace and
truncated_trace_table refuse a negative one with InputError.
"""

import functools
from dataclasses import dataclass
from math import comb
from operator import itemgetter

from . import braid as _braid
from . import walks as _walks
from .errors import InputError, VerificationError, require_nonnegative
from .ring import (
    QLaurent,
    XSeries,
    ql_addmul_into,
    ql_norm,
    qtrinom,
    xs_addmul_term_into,
)

HALF = "half"
UNDER = "under"

# graded_trace walks every letter's moves from every start state: past this
# many start states times moves per letter, summed over the letters and
# weights, it refuses before it builds a table.  The trace of the unknot
# sigma_1 ... sigma_(n-1) at weights up to 3 needs 4.5 10^7 at n = 20
# (1.3-1.9 s on a 2-core host) and 7.1 10^8 at n = 30 (24.5 s).
TRACE_WORK_LIMIT = 10 ** 8


def _check_convention(convention):
    if convention not in (HALF, UNDER):
        raise InputError(f"unknown convention {convention!r}")


@functools.cache
def weight_states(n, m):
    """All (n-1)-tuples of nonnegative ints summing to m, lexicographic
    (none for m < 0)."""
    if m < 0:
        return []

    def build(parts, left):
        if parts == 1:
            yield (left,)
            return
        for first in range(left + 1):
            for rest in build(parts - 1, left - first):
                yield (first,) + rest

    return sorted(build(n - 1, m))


def dim(n, m):
    return comb(m + n - 2, m) if m >= 0 else 0


def compose(a_cols, b_cols):
    """a o b (apply b, then a) on sparse cols[src][dst] matrices whose
    entries are XSeries, QLaurent or Kronecker-packed ints; an entry that
    sums to zero (is falsy) is dropped."""
    out = {}
    for src, vec in b_cols.items():
        acc = {}
        for mid, coeff in vec.items():
            for dst, w in a_cols.get(mid, {}).items():
                term = w * coeff
                cur = acc.get(dst)
                acc[dst] = term if cur is None else cur + term
        out[src] = {d: v for d, v in acc.items() if v}
    return out


@dataclass
class GradedMatrix:
    """Sparse matrix on weight_states(n, m); cols[src][dst] = entry."""

    n: int
    m: int
    cols: dict

    @classmethod
    def identity(cls, n, m):
        one = XSeries.one()
        return cls(n, m, {s: {s: one} for s in weight_states(n, m)})

    def after(self, first):
        """self o first (apply `first`, then self)."""
        if (self.n, self.m) != (first.n, first.m):
            raise InputError("composing matrices of different grades")
        return GradedMatrix(self.n, self.m, compose(self.cols, first.cols))

    def trace(self):
        tr = XSeries.zero()
        for s, vec in self.cols.items():
            d = vec.get(s)
            if d is not None:
                tr = tr + d
        return tr

    def __eq__(self, other):
        if not isinstance(other, GradedMatrix):
            return NotImplemented
        if (self.n, self.m) != (other.n, other.m):
            return False
        for s in weight_states(self.n, self.m):
            a = self.cols.get(s, {})
            b = other.cols.get(s, {})
            for d in set(a) | set(b):
                if a.get(d, XSeries.zero()) != b.get(d, XSeries.zero()):
                    return False
        return True

    def dump(self):
        """One line per nonzero entry: (from) -> (to) : value."""
        lines = []
        for src in weight_states(self.n, self.m):
            vec = self.cols.get(src, {})
            for dst in sorted(vec):
                val = vec[dst]
                if not val.is_zero:
                    sfrom = ",".join(str(v) for v in src)
                    sto = ",".join(str(v) for v in dst)
                    lines.append(f"({sfrom}) -> ({sto}) : {val.render()}")
        return "\n".join(lines)


def _positive_weight(A, b, c, convention):
    """(QLaurent factor, x_half) of the positive (A, b, c) move."""
    tri = qtrinom(A + b + c, A, b, c)
    if convention == HALF:
        qh = A * A + A + b + c
        xh = 2 * A + b + c
    else:
        qh = A * (A - 1) + 2 * (A + c)
        xh = 2 * (A + c)
    coeff = tri.shift(qh)
    if A % 2:
        coeff = -coeff
    return coeff, xh


def _negative_weight(A, b, c, convention):
    """The mirror of the positive (A, c, b) move: q -> 1/q, x -> 1/x.  The
    trinomial is symmetric in its parts, so swapping the sheds only moves
    the x-power of `under', whose left shed b takes the role of c."""
    coeff, xh = _positive_weight(A, c, b, convention)
    return coeff.bar(), -xh


@functools.cache
def _generator_moves(n, m, i, sign, convention):
    """Generator i (sign +1/-1) on weight_states(n, m) as the rows of a
    walks.closed_sum letter, read by position (mask -1), and the table's
    cheapest x-half cost low: (rows, low).  Row src is (moves, norm) for
    the state at position src: each move (dst - src, x_half - low,
    weight) lands on position dst, cheapest first, and norm is the sum of
    ||weight||_1 over them.  The walks key their dicts by these small
    ints, which hash far faster than the state tuples; _generator_mirror
    maps them back to tuples and adds low back."""
    # distinct sheds (b, c) land on distinct states, and every weight is a
    # nonzero Gaussian trinomial, so each move is one matrix entry of its own
    weight = _positive_weight if sign > 0 else _negative_weight
    states = weight_states(n, m)
    position = {s: k for k, s in enumerate(states)}
    table = []
    for src, s in enumerate(states):
        p = (0,) + s + (0,)  # columns 0 and n hold 0 and shed nothing
        L, A, R = p[i - 1:i + 2]
        moves = []
        for b in range(L + 1):
            for c in range(R + 1):
                t = p[:i - 1] + (L - b, A + b + c, R - c) + p[i + 2:]
                coeff, xh = weight(A, b, c, convention)
                moves.append((position[t[1:-1]] - src, xh, coeff))
        moves.sort(key=itemgetter(1))
        table.append(moves)
    low = min(moves[0][1] for moves in table)
    return [(tuple((delta, xh - low, w) for delta, xh, w in moves),
             sum(ql_norm(w.terms) for _, _, w in moves))
            for moves in table], low


@functools.cache
def _generator_mirror(n, m, i, sign, convention):
    states = weight_states(n, m)
    rows, low = _generator_moves(n, m, i, sign, convention)
    return GradedMatrix(n, m, {
        states[src]: {states[src + delta]: XSeries.monomial(w, xh + low)
                      for delta, xh, w in moves}
        for src, (moves, _) in enumerate(rows)
    })


def _triangular_inverse(mat):
    """Exact inverse of a generator matrix.

    The off-diagonal part strictly raises the middle label, so with
    M = D + N (D the monomial diagonal), M^{-1} = sum_k (-D^{-1}N)^k D^{-1}
    terminates after at most m+1 terms."""
    n, m = mat.n, mat.m
    d_inv_cols = {}
    n_cols = {}
    for s, vec in mat.cols.items():
        diag = vec.get(s)
        if diag is None:
            raise VerificationError("generator matrix missing diagonal")
        if len(diag.terms) != 1:
            raise VerificationError("generator diagonal is not a monomial")
        ((xh, qc),) = diag.terms.items()
        unit = qc.unit_monomial()
        if unit is None:
            raise VerificationError("generator diagonal is not a unit")
        c0, qh = unit
        d_inv_cols[s] = {s: XSeries.monomial(QLaurent.monomial(c0, -qh), -xh)}
        off = {d: v for d, v in vec.items() if d != s}
        if off:
            n_cols[s] = off
    d_inv = GradedMatrix(n, m, d_inv_cols)
    n_mat = GradedMatrix(n, m, n_cols)
    step = d_inv.after(n_mat)  # D^{-1} N
    acc = GradedMatrix.identity(n, m)
    power = GradedMatrix.identity(n, m)
    for _ in range(m + 1):
        power = power.after(step)
        if not any(power.cols.values()):
            break
        sgn_cols = {
            s: {d: -v for d, v in vec.items()}
            for s, vec in power.cols.items()
        }
        power = GradedMatrix(n, m, sgn_cols)
        acc_cols = dict(acc.cols)
        for s, vec in power.cols.items():
            cur = dict(acc_cols.get(s, {}))
            for d, v in vec.items():
                cur[d] = cur[d] + v if d in cur else v
            acc_cols[s] = {d: v for d, v in cur.items() if not v.is_zero}
        acc = GradedMatrix(n, m, acc_cols)
    return acc.after(d_inv)  # (I + D^{-1}N)^{-1} D^{-1} via Neumann sum


@functools.cache
def _mirror_validated(convention):
    """True if the mirrored negative weights invert the positive ones for
    all (n, m) <= (4, 4): sigma_i^{-1} sigma_i = id, exactly.

    It reads the cached move tables of both signs and sums, per source,
    every positive move followed by every negative move out of its end as
    raw {q_half: coeff} tables keyed by (end position, x_half), the two
    tables' cheapest costs added back; the identity leaves exactly
    coefficient 1 at (source, x^0 q^0)."""
    for n in range(2, 5):
        for m in range(0, 5):
            for i in range(1, n):
                pos, low = _generator_moves(n, m, i, +1, convention)
                neg, low_neg = _generator_moves(n, m, i, -1, convention)
                low += low_neg
                for src, (moves, _) in enumerate(pos):
                    acc = {}
                    for delta, xh, w in moves:
                        mid = src + delta
                        for delta2, xh2, w2 in neg[mid][0]:
                            cell = acc.setdefault(
                                (mid + delta2, xh + xh2 + low), {})
                            ql_addmul_into(cell, w.terms, w2.terms)
                    acc = {k: v for k, v in acc.items() if v}
                    if acc != {(src, 0): {0: 1}}:
                        return False
    return True


def _letter_moves(n, m, v, convention):
    """The cached (rows, low) of letter v (_generator_moves): generator |v|
    with the sign of v.  A negative letter's table is read only after its
    convention passes the mirror check."""
    if v < 0 and not _mirror_validated(convention):
        raise VerificationError(
            f"mirrored weights of convention {convention!r} do not invert "
            f"the positive generators; refusing generator {v} at "
            f"(n, m) = ({n}, {m})"
        )
    return _generator_moves(n, m, abs(v), 1 if v > 0 else -1, convention)


def generator_matrix(n, m, i, sign, convention=HALF):
    """Matrix of generator i (sign +1/-1) on weight_states(n, m)."""
    _check_convention(convention)
    require_nonnegative(m=m)
    if not 1 <= i <= n - 1:
        raise InputError(f"generator index {i} out of range for n={n}")
    if sign not in (1, -1):
        raise InputError("sign must be +1 or -1")
    _letter_moves(n, m, sign * i, convention)  # the mirror check
    return _generator_mirror(n, m, i, sign, convention)


def rep_matrix(word, m, convention=HALF):
    """Product of generator matrices over the word (left letter first)."""
    _check_convention(convention)
    require_nonnegative(m=m)
    acc = GradedMatrix.identity(word.n, m)
    for v in word.letters:
        g = generator_matrix(word.n, m, abs(v), 1 if v > 0 else -1, convention)
        acc = g.after(acc)
    return acc


def graded_trace(word, m_max, convention=HALF):
    """[Tr rep_matrix(word, m) for m in 0..m_max], exact Laurent entries,
    each a sum of closed walks (truncated_trace_table with no truncation).

    For knot closures the half x-powers must cancel; that integrality is
    asserted rather than assumed.

    Before any table is built, the walks are refused past TRACE_WORK_LIMIT
    moves, start states times moves per letter, summed over the letters
    and the weights 0..m_max.  Letter i has prod (a_j + 1) moves from state
    a, j over its neighbour columns inside 1..n-1 (each neighbour sheds any
    part of its label), so over the states of weight m it has as many
    moves as there are ways to write m as n - 1 + k ordered parts,
    C(m + n - 2 + k, n - 2 + k), k its number of neighbour columns.  That
    count never falls as m grows, so the weights from m to m_max need at
    least m_max - m + 1 times weight m's count: the refusal comes at the
    first weight where that bound passes the limit, and a huge m_max is
    refused at weight 0."""
    require_nonnegative(m_max=m_max)
    n = word.n
    sides = [(abs(v) > 1) + (abs(v) < n - 1) for v in word.letters]
    work = 0
    for m in range(m_max + 1):
        step = dim(n, m) * sum(comb(m + n - 2 + k, n - 2 + k) for k in sides)
        need = work + (m_max + 1 - m) * step
        if need > TRACE_WORK_LIMIT:
            raise InputError(
                f"trace of {_braid.render_word(word)} up to weight {m_max} "
                f"needs at least {need} moves (start states x moves per "
                f"letter), past TRACE_WORK_LIMIT = {TRACE_WORK_LIMIT}"
            )
        work += step
    return [XSeries._adopt(truncated_trace_table(word, m, None, convention),
                           None)
            for m in range(m_max + 1)]


def truncated_trace_table(word, m, trunc=None, convention=HALF):
    """Tr rep_matrix(word, m, convention) for any word, truncated at x-half
    trunc (exact for trunc None), as a sum of closed walks, returned as an
    {x_half: {q_half: coeff}} table.

    Every generator entry is one x-monomial, so each move has an integer
    x-half cost.  Each letter's table holds its costs shifted by its
    cheapest move's (_generator_moves), so every shifted cost is >= 0, and
    every closed walk's cost shifts by the same S, the sum of the letters'
    shifts.  The walks then run at bound trunc - S, and their sum is
    shifted back by S.  For trunc None the bound is the sum of each
    letter's dearest shifted move, which no walk passes, so the trace is
    exact.  A negative letter's table is read only after the mirror check
    of its convention.

    Per start state s, walks.closed_sum runs a forward min-plus pass over
    the shifted costs, which finds the cheapest cost from s to each state,
    and sums the closed walks s -> s backward in place, each state's table
    truncated at the bound minus that cost.  This is exact: every walk
    reaches the state at that cost or more, so each term dropped there
    lies above the bound in every closed walk and the truncation drops it
    anyway.  A start state that no walk returns to within the bound does
    no series work at all.  The sum runs on Kronecker-packed coefficients
    (see the walks module), at a width proven from the row norms of the
    states each letter leaves, and is decoded once per start state.

    For an all-positive `half` word with a letter on every column
    1..n-1, a closed walk of a weight-m start state s costs at least 2m,
    so for 2m > trunc the table is empty; this is why zhat.phi_positive
    stops at weight order.  Proof: a move (A, b, c) costs 2A + b + c.
    Let p_i be the first letter of column i and D_i what column i shed
    before p_i.  Before p_i only its neighbors' letters touch column i,
    and they only take from it, so at p_i its label is A = s_i - D_i, and
    that letter costs at least 2(s_i - D_i).  Every shed also costs 1 at
    the letter that makes it, so a closed walk costs at least
    sum_i 2(s_i - D_i) + S', S' the total shed.  Across the edge between
    columns i and i+1 the sheds balance: the label sum of columns 1..i
    changes only by them and is the same at both ends of a closed walk,
    so the sheds each way are E_i = half the sheds across that edge.
    Column i sheds across the edge only at a letter of column i+1, and
    column i+1 only at a letter of column i, so before its own first
    letter only the endpoint whose first letter comes later can shed
    across the edge, at most E_i.  Hence sum_i D_i <= sum_i E_i = S' / 2
    and the cost is at least 2 sum_i s_i = 2m.  (A column with no letter
    of its own never pays 2A: on "1 1" with n = 3 the walks of (0, m)
    cost 0, so the bound fails there; a knot word has a letter on every
    column.)

    For a knot closure the half x-powers must cancel; that integrality is
    asserted rather than assumed."""
    _check_convention(convention)
    require_nonnegative(m=m)
    n = word.n
    tables = {v: _letter_moves(n, m, v, convention)
              for v in dict.fromkeys(word.letters)}
    shift = sum(tables[v][1] for v in word.letters)
    if trunc is None:
        bound = sum(max(moves[-1][1] for moves, _ in tables[v][0])
                    for v in word.letters)
    else:
        bound = trunc - shift
    runs = [([(tables[v][0], -1) for v in word.letters], bound)]
    tr = {}
    for s in range(dim(n, m)):
        xs_addmul_term_into(tr, _walks.closed_sum(s, runs, bound),
                            {0: 1}, shift, trunc)
    if any(x % 2 for x in tr) and \
            _braid.analyze(word).closure_components == 1:
        raise VerificationError(
            f"trace of {_braid.render_word(word)} at weight {m} kept half "
            f"x-powers: {XSeries._adopt(tr, trunc).render()}"
        )
    return tr


def unknot_closure_check(word, z_order):
    """The two-fixed-point specialization

        sum_{m, eps} Tr_{V_{n,m}} |_{x = q^{2 eps - 1}} q^{w eps} (-1)^eps
            z^{m + n eps}

    as a series in z; equals 1 - z exactly when the machinery is healthy on
    an unknot closure."""
    stats = _braid.analyze(word)
    traces = graded_trace(word, z_order)
    trunc = 2 * z_order + 1
    acc = {}
    for eps in (0, 1):
        k = 2 * eps - 1
        for m, tr in enumerate(traces):
            j = m + word.n * eps
            if j > z_order:
                continue
            spec = tr.subst_x_qpow(k)
            spec = spec.shift(2 * stats.writhe * eps)
            if eps:
                spec = -spec
            zh = 2 * j
            cur = acc.get(zh)
            acc[zh] = spec if cur is None else cur + spec
    return XSeries({zh: v for zh, v in acc.items() if v}, trunc)
