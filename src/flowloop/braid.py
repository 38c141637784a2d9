"""Braid words, their combinatorial statistics, and the classical
Alexander polynomial of the closure (computed two independent ways).

A braid word on n strands is a list of nonzero signed generator indices,
e.g. "1 -2 1 -2" for sigma_1 sigma_2^{-1} sigma_1 sigma_2^{-1} in B_3.
Column i collects the letters using generator i.  A word is homogeneous
when every column 1..n-1 is nonempty and single-signed; those are the
words the flow-loop machinery accepts (their closures are fibered links).

The q = 1 layer works on raw {x_half: int} tables, the layout of
QLaurent.terms.  The reduced Burau route rewrites one row of its product,
kept between two empty rows, per letter through ring.ql_add_into; the
weight-rep route takes each letter's m = 1 move table to q = 1 once per
process (_q1_moves), packs its entries into integers (ring's Kronecker
codec, under a proven coefficient bound) and composes those with
lawrence.compose.  Both end in _det, one determinant also shared by the
template zeta, which packs every nonempty entry the same way and
eliminates in Z.
_axis_quotient, the q = 1 series (1 - x^k)/P(x) of both (1 - x)/Delta
and the zeta, is an integer recurrence over a list.  Both refuse, before
they start, work estimated past Q1_WORK_LIMIT; their callers add the word
and order to their errors.  Objects are made only for the determinant
and the outputs.
"""

import functools
import re
from dataclasses import dataclass

from .errors import InputError, ParseError, VerificationError
from .errors import require_nonnegative
from .ring import (
    QLaurent,
    XSeries,
    _monomial,
    kronecker_pack,
    kronecker_unpack,
    ql_add_into,
    ql_norm,
)

_PREFIX = re.compile(r"^n\s*=\s*([+-]?\d+)\s*;\s*(.*)$", re.S)


@dataclass(frozen=True, slots=True)
class BraidWord:
    """n = strand count, letters = signed generator indices (left first).

    parse_braid rejects empty input, but the identity word (no letters) is
    allowed when built directly; representations map it to the identity.
    """

    n: int
    letters: tuple

    def __post_init__(self):
        if self.n < 2:
            raise InputError(f"need at least 2 strands, got n={self.n}")
        for v in self.letters:
            if v == 0 or abs(v) >= self.n:
                raise InputError(f"letter {v} out of range for n={self.n}")

    def __str__(self):
        return render_word(self)


def parse_braid(text):
    """Parse 'n=<int>; i1 i2 ...' or just 'i1 i2 ...' (n inferred as
    1 + max |index|).  Errors carry the 1-based offending token position."""
    if not isinstance(text, str):
        raise ParseError("braid word must be a string")
    body = text.strip()
    n_explicit = None
    m = _PREFIX.match(body)
    if m:
        n_explicit = int(m.group(1))
        if n_explicit < 2:
            raise ParseError(f"strand count n={n_explicit} must be >= 2")
        body = m.group(2)
    tokens = body.replace(",", " ").split()
    if not tokens:
        raise ParseError("empty braid word")
    letters = []
    for pos, tok in enumerate(tokens, start=1):
        try:
            v = int(tok)
        except ValueError:
            raise ParseError(f"token {pos}: malformed token {tok!r}") from None
        if v == 0:
            raise ParseError(f"token {pos}: generator index must be nonzero")
        if n_explicit is not None and abs(v) >= n_explicit:
            raise ParseError(
                f"token {pos}: index {v} out of range for n={n_explicit}"
            )
        letters.append(v)
    n = n_explicit if n_explicit is not None else 1 + max(abs(v) for v in letters)
    return BraidWord(n, tuple(letters))


def render_word(word):
    """Canonical text form; parse_braid(render_word(w)) == w."""
    return f"n={word.n}; " + " ".join(str(v) for v in word.letters)


@dataclass(frozen=True, slots=True)
class BraidStats:
    n: int
    c: int
    writhe: int
    cr_minus: int
    col_minus: int
    column_sign: tuple  # per column 1..n-1: '+', '-', 'mixed' or 'empty'
    is_homogeneous: bool
    closure_components: int
    genus: object  # int for homogeneous knots, else None


def closure_permutation(word):
    """Permutation of strand endpoints (0-based), bottom to top."""
    p = list(range(word.n))
    for v in word.letters:
        i = abs(v) - 1
        p[i], p[i + 1] = p[i + 1], p[i]
    return p


def _cycle_count(p):
    seen = [False] * len(p)
    cycles = 0
    for s in range(len(p)):
        if not seen[s]:
            cycles += 1
            t = s
            while not seen[t]:
                seen[t] = True
                t = p[t]
    return cycles


def analyze(word):
    """Crossing counts, column signs, closure components, genus."""
    cols = {i: [] for i in range(1, word.n)}
    for v in word.letters:
        cols[abs(v)].append(v > 0)
    signs = []
    for i in range(1, word.n):
        ups = cols[i]
        if not ups:
            signs.append("empty")
        elif all(ups):
            signs.append("+")
        elif not any(ups):
            signs.append("-")
        else:
            signs.append("mixed")
    homogeneous = all(s in ("+", "-") for s in signs)
    c = len(word.letters)
    cr_minus = sum(1 for v in word.letters if v < 0)
    writhe = c - 2 * cr_minus
    col_minus = sum(1 for s in signs if s == "-")
    components = _cycle_count(closure_permutation(word))
    genus = None
    if homogeneous and components == 1:
        # a knot closure's permutation is an n-cycle, of sign (-1)^(n-1);
        # each letter is a transposition, so c - n + 1 is even
        genus = (c - word.n + 1) // 2
    return BraidStats(
        n=word.n,
        c=c,
        writhe=writhe,
        cr_minus=cr_minus,
        col_minus=col_minus,
        column_sign=tuple(signs),
        is_homogeneous=homogeneous,
        closure_components=components,
        genus=genus,
    )


def require_homogeneous(word):
    """analyze(word), or InputError unless the word is homogeneous."""
    stats = analyze(word)
    if not stats.is_homogeneous:
        raise InputError(f"braid word {render_word(word)} is not homogeneous")
    return stats


def require_homogeneous_knot(word):
    """require_homogeneous(word), or InputError unless the closure is also a
    knot: the words every Phi route and the Alexander route accept."""
    stats = require_homogeneous(word)
    if stats.closure_components != 1:
        raise InputError(
            f"closure has {stats.closure_components} components, need a knot"
        )
    return stats


def _where(word, order, cap=None):
    """The word, order and cutoff cap (a label cap on the DP route, a
    weight cutoff on the trace route) an error is about."""
    at = f"{render_word(word)} at order {order}"
    if cap is not None:
        at += f", cap {cap}"
    return at


def _destabilize(word):
    """The homogeneous knot word with every Markov stabilization at an end
    removed: while n >= 3 and sigma_(n-1) or sigma_1 appears exactly once
    (sigma_(n-1) tried first), rotate the word so that letter comes last,
    drop it and go down to n - 1 strands, renumbering sigma_i as
    sigma_(i-1) after dropping sigma_1.  The word itself if nothing moves.

    Each step keeps the closure knot.  Rotated, the word is v sigma^(+-1)
    with v on n - 1 strands, conjugate to the given one, and the closures
    of v sigma_(n-1)^(+-1) and v are the same knot (Markov's theorem;
    Birman, Braids, Links, and Mapping Class Groups).  For sigma_1,
    conjugation by the half twist maps sigma_i to sigma_(n-i), so the
    letter becomes sigma_(n-1); after it is dropped, the half twist of
    n - 1 strands maps sigma_(n-i) back to sigma_(i-1).  The result is
    again homogeneous: every column keeps its letters and its sign.  An
    interior generator that appears once makes a connected sum, not a
    stabilization, and stays."""
    n, letters = word.n, word.letters
    while n >= 3:
        columns = [abs(v) for v in letters]
        end = next((i for i in (n - 1, 1) if columns.count(i) == 1), None)
        if end is None:
            break
        j = columns.index(end)
        letters = letters[j + 1:] + letters[:j]
        if end == 1:
            letters = tuple(v - 1 if v > 0 else v + 1 for v in letters)
        n -= 1
    return word if n == word.n else BraidWord(n, letters)


def _thin_ends(word):
    """_destabilize(word), after each end column that braid moves can thin
    to one letter is thinned: for e = sigma_(n-1), then e = sigma_1, with
    f its one neighbour column, while e has two cyclically consecutive
    letters whose arc between them holds exactly one letter of f, all
    three of one sign, the first such arc's e A f B e becomes A f e f B.
    If e reaches one letter, _destabilize removes it, and the search
    starts again on n - 1 strands; if e sticks at two or more, its moves
    are dropped and the other end is tried on the word as it was.  The
    word itself if nothing moves, so the step is idempotent.

    Each move keeps the braid up to conjugation, so the closure.  A and B
    hold neither e (the two letters are consecutive) nor f (the arc holds
    one), and e is an end column whose only neighbour is f, so A and B
    hold only columns at distance >= 2 from e and commute with it (far
    commutation): e A f B e = A e f e B.  The braid relation
    e f e = f e f, or its inverse for three negative letters, does the
    rest; the rotation that brings the arc into view is a conjugation.
    No letter changes sign, e loses one letter and f gains one, so n, c,
    cr-, col- and the homogeneity of the word stay, and each column keeps
    its sign.  Garside (The braid group and other groups, 1969): far
    commutations and one-sign braid relations join every positive word
    of a positive braid, so a search over both could thin more; the one
    targeted move reaches the strand count of a breadth-first search
    over them on 421 of the 422 distinct words of the positive-trace
    benchmark batches of seeds 1 and 2.

    The step ends.  A move is linear in the word, a run of moves on one
    end makes fewer moves than e has letters, and a run that is kept
    removes a strand.  An end that sticks keeps none of its moves: on 3
    strands the two ends are each other's neighbours, and runs on both
    ends could undo each other without end."""
    word = _destabilize(word)
    while word.n >= 3:
        n = word.n
        for e, f in ((n - 1, n - 2), (1, 2)):
            letters = list(word.letters)
            # the signed letters of the two columns, one sign each in a
            # homogeneous word; columns of opposite signs admit no move
            e = e if e in letters else -e
            f = f if f in letters else -f
            if (e > 0) != (f > 0):
                continue
            while True:
                at = [j for j, v in enumerate(letters) if v == e]
                if len(at) == 1:
                    break
                for j, k in zip(at, at[1:] + at[:1]):
                    arc = (letters[j + 1:k] if j < k
                           else letters[j + 1:] + letters[:k])
                    if arc.count(f) == 1:
                        break
                else:
                    break
                rest = (letters[k + 1:] + letters[:j] if j < k
                        else letters[k + 1:j])
                i = arc.index(f)
                letters = arc[:i] + [f, e, f] + arc[i + 1:] + rest
            if len(at) == 1:
                break
        else:
            return word
        word = _destabilize(BraidWord(n, tuple(letters)))
    return word


# ---------------------------------------------------------------------------
# Alexander polynomial, two ways.  Every x-polynomial below is a raw
# {x_half: int} table (the layout of QLaurent.terms, exponents counting
# halves of x); only _det and the outputs make QLaurent/XSeries objects.

# Steps of _axis_quotient ((2 order + 2) x terms of P) and of _det (about
# 0.4 us each); past this many either refuses before it starts.  The corpus
# at order 400 needs under 10^4, every determinant tested under 5 10^4.
Q1_WORK_LIMIT = 10 ** 6


def _det_bound(mat):
    """B = prod over rows of (sum over the row's entries of ||entry||_1),
    the bound _det proves on every coefficient of det(mat)."""
    bound = 1
    for row in mat:
        bound *= sum(ql_norm(entry) for entry in row if entry)
    return bound


def _det(mat):
    """Exact determinant, as a QLaurent, of a square matrix of x-half
    tables, by Kronecker substitution into one integer Bareiss
    elimination.

    Shift each row by its lowest half-exponent lo_r, which leaves a matrix
    M' of polynomials in y = x^(1/2) with det(mat) = y^(sum lo_r) det(M').
    A row with no entry is a zero row, and then the determinant is 0.

    Bound.  By Leibniz, det(M') = sum over permutations s of
    sgn(s) prod_r M'[r][s(r)], and ||ab||_1 <= ||a||_1 ||b||_1, so

        ||det(M')||_1 <= sum_s prod_r ||M'[r][s(r)]||_1
                      <= prod_r sum_c ||M'[r][c]||_1 = B

    (expanding the last product yields every term of the middle sum, and
    more, all nonnegative).  Every coefficient of det(M') thus has
    |coeff| <= B < 2^(K - 1) for K = B.bit_length() + 2.

    Packing.  Evaluate every nonempty entry at y = 2^K by ring's Kronecker
    codec (kronecker_pack); an empty entry is 0.  Evaluation is a ring
    homomorphism Z[y] -> Z, so det(M'(2^K)) = det(M')(2^K).  The integer
    determinant is computed by fraction-free elimination (Bareiss 1968):
    after step p every entry below and right of the pivot is a
    (p+2)-minor of the input, so by Sylvester's identity the division by
    the previous pivot is exact in Z.  A zero pivot is swapped for the
    first lower row with a nonzero entry in its column; if there is none
    the matrix is singular.  Intermediate minors need no bound: they are
    exact integers, and only the final value is decoded.  Since
    |coeff| < 2^(K - 1), kronecker_unpack decodes that value into exactly
    the coefficients of det(M').  (The swaps are also the ones the
    polynomial elimination would make: each minor is a minor of M' over
    nonzero rows, so its norm is at most B as well, and a nonzero
    polynomial with coefficients below 2^(K - 1) does not vanish at 2^K.)

    K comes from B, never from a guess.  Elimination makes about k^3/3
    products of entries of up to k K bits, each about (k K / 64)^2 word
    products, a thousand of which (0.4 us on a 2-core Xeon) make one step;
    past Q1_WORK_LIMIT steps _det raises InputError before packing.  One
    determinant, shared by both Alexander routes and the template zeta.
    """
    k = len(mat)
    if k == 0:
        return QLaurent.one()
    bound = _det_bound(mat)
    if not bound:
        return QLaurent.zero()
    K = bound.bit_length() + 2
    work = k ** 3 * (k * K // 64) ** 2 // 3000
    if work > Q1_WORK_LIMIT:
        raise InputError(f"a {k} x {k} determinant of {K}-bit packed "
                         f"coefficients needs about {work} elimination "
                         f"steps, past Q1_WORK_LIMIT = {Q1_WORK_LIMIT}")
    low = 0
    m = []
    for row in mat:
        lo = min(e for entry in row for e in entry)
        low += lo
        m.append([kronecker_pack(entry, K, lo) if entry else 0
                  for entry in row])
    sign, prev = 1, 1
    for p in range(k - 1):
        if not m[p][p]:
            swap = next((r for r in range(p + 1, k) if m[r][p]), None)
            if swap is None:
                return QLaurent.zero()
            m[p], m[swap] = m[swap], m[p]
            sign = -sign
        pivot_row = m[p]
        pivot = pivot_row[p]
        for row in m[p + 1:]:
            lead = row[p]
            for c in range(p + 1, k):
                row[c] = (pivot * row[c] - lead * pivot_row[c]) // prev
        prev = pivot
    return QLaurent._raw(kronecker_unpack(sign * m[k - 1][k - 1], K, low))


def _cyclotomic_like(n):
    """1 + x + ... + x^{n-1} as an x-half QLaurent."""
    return QLaurent({2 * j: 1 for j in range(n)})


def _normalize_alexander(d, word, order):
    """The route determinant d divided by 1 + x + ... + x^{n-1}, scaled by
    +-x^{k/2} so the lowest term is +1 at x^0."""
    if d.is_zero:
        raise VerificationError(
            f"Alexander determinant vanished for {_where(word, order)}")
    try:
        p = d.exact_div(_cyclotomic_like(word.n))
    except VerificationError as exc:
        raise VerificationError(f"{exc} for {_where(word, order)}") from exc
    p = p.shift(-p.min_half())
    if p.coeff(0) < 0:
        p = -p
    if p.coeff(0) != 1:
        raise VerificationError(
            "Alexander polynomial not monic after normalization for "
            f"{_where(word, order)}: {p.render('x')}"
        )
    return p


def _burau_reduced(word):
    """Reduced Burau matrix of the word at t = x, as x-half tables.

    The running product P sits between empty rows 0 and n.  Generator i
    differs from the identity only in row i, so g P replaces row i with

        sigma_i:       -t P[i] + t P[i-1] + P[i+1]
        sigma_i^(-1):  -t^(-1) P[i] + P[i-1] + t^(-1) P[i+1]

    three shifted rows per letter, each entry scaled by a unit and added
    by ring.ql_add_into.
    """
    k = word.n - 1
    prod = [[]] + [[{0: 1} if r == c else {} for c in range(k)]
                   for r in range(k)] + [[]]  # rows 0 and n stay empty
    for v in word.letters:
        i = abs(v)
        t = 2 if v > 0 else -2  # half-exponent of t^(+-1)
        row = [{} for _ in range(k)]
        for src, shift, scale in ((prod[i], t, -1),
                                  (prod[i - 1], t if v > 0 else 0, 1),
                                  (prod[i + 1], 0 if v > 0 else t, 1)):
            for acc, entry in zip(row, src):
                ql_add_into(acc, entry, scale, shift)
        prod[i] = row
    return prod[1:-1]


def _burau_alexander_matrix(word):
    """P - I for the reduced Burau matrix P of the word."""
    p = _burau_reduced(word)
    for r, row in enumerate(p):
        ql_add_into(row[r], {0: 1}, -1)
    return p


def _alexander_burau(word, order):
    """Via the reduced Burau matrix: det(P - I)/(1 + ... + x^{n-1})."""
    d = _det(_burau_alexander_matrix(word))
    return _normalize_alexander(d, word, order)


@functools.cache
def _q1_moves(n, v):
    """Letter v's m = 1 move table at q = 1, read once per process: one
    list of (dst, x_half - low, coeff) per source position, with low the
    table's lowest half-exponent, and the table's largest row norm (the
    sum of |coeff| over one source's moves).  The table comes from
    lawrence._letter_moves, shifted by low already, so a negative letter
    passes the mirror check first."""
    from . import lawrence  # deferred: lawrence imports this module

    rows, low = lawrence._letter_moves(n, 1, v, lawrence.HALF)
    q1 = [[(src + delta, xh, w.at_q1()) for delta, xh, w in moves]
          for src, (moves, _) in enumerate(rows)]
    return q1, low, max(sum(abs(c) for _, _, c in moves) for moves in q1)


def _weight_rep_alexander_matrix(word):
    """I - M for the m=1 weight-graded matrix M of the word at q = 1.

    Each distinct letter's move table at q = 1 (_q1_moves) has one
    x-monomial per move, shifted by the letter's lowest half-exponent
    lo_g, and each is packed into one integer at x^(1/2) = 2^K by ring's
    Kronecker codec.  States are positions in lawrence.weight_states(n, 1).
    lawrence.compose folds the packed matrices into M shifted by the sum
    of lo_g over the letters.  Evaluation at q = 1 and at 2^K are ring
    homomorphisms, so both commute with the product: M is
    rep_matrix(word, 1) at q = 1, exactly.

    Bound.  Let N_g be the largest total norm (sum of ||entry||_1) of a
    column g[src].  Column src of g P is sum over mid of P[src][mid] g[mid],
    so its total norm is at most N_g times that of column src of P.  From
    the identity, every coefficient of every prefix product, M included,
    is thus at most B = prod over letters of N_g < 2^(K - 1) for
    K = B.bit_length() + 2: compose's zero test on the packed sums is
    exact, and kronecker_unpack decodes M.
    """
    from . import lawrence  # deferred: lawrence imports this module

    tables = {v: _q1_moves(word.n, v) for v in set(word.letters)}
    bound, low = 1, 0
    for v in word.letters:
        _, lo, norm = tables[v]
        bound *= norm
        low += lo
    K = bound.bit_length() + 2
    packed = {v: {src: {dst: kronecker_pack({xh: c}, K, 0)
                        for dst, xh, c in moves}
                  for src, moves in enumerate(table)}
              for v, (table, _, _) in tables.items()}
    states = range(lawrence.dim(word.n, 1))
    prod = {s: {s: 1} for s in states}
    for v in word.letters:
        prod = lawrence.compose(packed[v], prod)
    mat = [[kronecker_unpack(-prod[src].get(dst, 0), K, low)
            for src in states]
           for dst in states]
    for r, row in enumerate(mat):
        ql_add_into(row[r], {0: 1})
    return mat


def _alexander_weight_rep(word, order, stats):
    """Via the m=1 weight-graded matrices at q = 1; stats is analyze(word)."""
    d = _det(_weight_rep_alexander_matrix(word))  # det(I - M)
    return _normalize_alexander(d.shift(word.n - 1 - stats.writhe), word,
                                order)


def alexander_classical(word, order):
    """Normalized Alexander polynomial of the closure knot and the series
    (1-x)/Delta, truncated at x^order.

    Computed independently from the q = 1 weight-graded representation and
    from the reduced Burau matrix; the two must agree exactly.  Every
    VerificationError names the word and the order.  An order or a
    determinant whose work passes Q1_WORK_LIMIT raises InputError.
    """
    require_nonnegative(order=order)
    stats = require_homogeneous_knot(word)
    where = _where(word, order)
    try:  # _det names neither the word nor the order
        # Burau first: its matrix is cheap to build, so a determinant past
        # Q1_WORK_LIMIT is refused before the weight-rep matrix is composed
        d_bur = _alexander_burau(word, order)
        d_rep = _alexander_weight_rep(word, order, stats)
    except InputError as exc:
        raise InputError(f"{exc} in {where}") from exc
    if d_rep != d_bur:
        raise VerificationError(
            f"Alexander routes disagree for {where}: weight-rep gives "
            f"{d_rep.render('x')}, Burau gives {d_bur.render('x')}"
        )
    delta = d_rep
    if not delta.is_integral:
        raise VerificationError(
            f"Alexander polynomial of {where} has half-exponents: "
            f"{delta.render('x')}"
        )
    top = delta.max_half()
    if any(delta.coeff(e) != delta.coeff(top - e) for e in delta.terms):
        raise VerificationError(
            f"Alexander polynomial of {where} not palindromic: "
            f"{delta.render('x')}"
        )
    if abs(delta.at_q1()) != 1:
        raise VerificationError(
            f"Alexander polynomial of {where} has |Delta(1)| != 1: "
            f"{delta.render('x')}"
        )
    try:
        inv = _axis_quotient(1, delta.terms, order)
    except VerificationError as exc:
        raise VerificationError(f"{exc} in {where}") from exc
    if inv.coeff(0) != QLaurent.one():
        raise VerificationError(
            f"(1-x)/Delta of {where} does not start with 1")
    # through specialize_q1 so small coefficients share one QLaurent each
    return XSeries(delta.terms).specialize_q1(), inv


def _axis_quotient(k, poly, order):
    """(1 - x^k)/poly at q = 1, truncated at x^order, for an x-half table
    poly whose constant term is +-1: (1 - x)/Delta of the Alexander route
    (k = 1) and the template zeta (k = n).

    With c0 = poly[0], so 1/c0 = c0, the inverse is the integer recurrence
    inv[0] = c0, inv[t] = -c0 sum_{s >= 1} poly[s] inv[t - s] (von zur
    Gathen and Gerhard, Modern Computer Algebra, ch. 9) over a list of
    2 order + 2 half-steps.  Values are handed out as shared
    ring._monomial objects.
    """
    trunc = 2 * order + 1
    work = (trunc + 1) * len(poly)
    if work > Q1_WORK_LIMIT:
        raise InputError(
            f"order {order} needs {work} steps of the q = 1 series "
            f"((2*order + 2) x {len(poly)} terms of the denominator), past "
            f"Q1_WORK_LIMIT = {Q1_WORK_LIMIT}"
        )
    if not poly or min(poly) < 0:
        raise VerificationError("inverse: series must start at x^0")
    c0 = poly.get(0)
    if c0 not in (1, -1):
        raise VerificationError(
            f"inverse: constant term {c0} is not a unit monomial")
    tail = [(s, -c0 * p) for s, p in poly.items() if s]
    inv = [c0]
    for t in range(1, trunc + 1):
        inv.append(sum(p * inv[t - s] for s, p in tail if s <= t))
    terms = {}
    for t, v in enumerate(inv):
        if t >= 2 * k:
            v -= inv[t - 2 * k]
        if v:
            terms[t] = _monomial(v, 0)
    return XSeries._raw(terms, trunc)
