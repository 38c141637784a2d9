"""Braid words, their combinatorial statistics, and the classical
Alexander polynomial of the closure (computed two independent ways).

A braid word on n strands is a list of nonzero signed generator indices,
e.g. "1 -2 1 -2" for sigma_1 sigma_2^{-1} sigma_1 sigma_2^{-1} in B_3.
Column i collects the letters using generator i.  A word is homogeneous
when every column 1..n-1 is nonempty and single-signed; those are the
words the flow-loop machinery accepts (their closures are fibered links).

The q = 1 layer works on integer x-polynomials.  The reduced Burau route
rewrites one row of its product per letter; the weight-rep route takes
each distinct m = 1 generator matrix to q = 1 once and composes those.
Both end in _det, one determinant also shared by the template zeta, which
packs every entry into a single integer (Kronecker substitution under a
proven coefficient bound) and eliminates in Z.
"""

import re
from dataclasses import dataclass

from .errors import InputError, ParseError, VerificationError
from .ring import QLaurent, XSeries, ql_add_into

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
        two_g = c - word.n + 1
        if two_g % 2:
            raise VerificationError(
                f"parity violation: c - n + 1 = {two_g} is odd for a knot"
            )
        genus = two_g // 2
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


def require_homogeneous_knot(word):
    """analyze(word), or InputError unless the word is homogeneous and its
    closure a knot: the words every Phi route and the Alexander route
    accept."""
    stats = analyze(word)
    if not stats.is_homogeneous:
        raise InputError(f"braid word {render_word(word)} is not homogeneous")
    if stats.closure_components != 1:
        raise InputError(
            f"closure has {stats.closure_components} components, need a knot"
        )
    return stats


def _where(word, order, cap=None, m_cut=None):
    """The word, order and cutoff (cap on the DP route, m_cut on the trace
    route) an error is about."""
    at = f"{render_word(word)} at order {order}"
    if cap is not None:
        at += f", cap {cap}"
    if m_cut is not None:
        at += f", m_cut {m_cut}"
    return at


# ---------------------------------------------------------------------------
# Alexander polynomial, two ways.  All x-polynomials below live in QLaurent
# dicts whose exponents count halves of x.

def _det_bound(mat):
    """B = prod over rows of (sum over the row's entries of ||entry||_1),
    the bound _det proves on every coefficient of det(mat)."""
    bound = 1
    for row in mat:
        bound *= sum(abs(c) for entry in row for c in entry.terms.values())
    return bound


def _det(mat):
    """Exact determinant of a square matrix of x-half Laurent polynomials,
    by Kronecker substitution into one integer Bareiss elimination.

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

    Packing.  Evaluate every entry at y = 2^K, an integer.  Evaluation is
    a ring homomorphism Z[y] -> Z, so det(M'(2^K)) = det(M')(2^K).  The
    integer determinant is computed by fraction-free elimination (Bareiss
    1968): after step p every entry below and right of the pivot is a
    (p+2)-minor of the input, so by Sylvester's identity the division by
    the previous pivot is exact in Z.  A zero pivot is swapped for the
    first lower row with a nonzero entry in its column; if there is none
    the matrix is singular.  Intermediate minors need no bound: they are
    exact integers, and only the final value is decoded.  Since
    |coeff| < 2^(K - 1), the balanced base-2^K digits of that value are
    exactly the coefficients of det(M').  (The swaps are also the ones the
    polynomial elimination would make: each minor is a minor of M' over
    nonzero rows, so its norm is at most B as well, and a nonzero
    polynomial with coefficients below 2^(K - 1) does not vanish at 2^K.)

    K comes from B, never from a guess.  One determinant, shared by both
    Alexander routes and the template zeta.
    """
    k = len(mat)
    if k == 0:
        return QLaurent.one()
    bound = _det_bound(mat)
    if not bound:
        return QLaurent.zero()
    K = bound.bit_length() + 2
    low = 0
    m = []
    for row in mat:
        lo = min(e for entry in row for e in entry.terms)
        low += lo
        m.append([sum(c << K * (e - lo) for e, c in entry.terms.items())
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
    value = sign * m[k - 1][k - 1]
    mask, half = (1 << K) - 1, 1 << (K - 1)
    terms = {}
    e = low
    while value:
        digit = value & mask
        if digit >= half:
            digit -= 1 << K
        if digit:
            terms[e] = digit
        value = (value - digit) >> K
        e += 1
    return QLaurent._raw(terms)


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
    """Reduced Burau matrix of the word at t = x (x-half exponents).

    Generator i differs from the identity only in row r = i - 1, so
    g P replaces row r of the running product P with

        sigma_i:       -t P[r] + t P[r-1] + P[r+1]
        sigma_i^(-1):  -t^(-1) P[r] + P[r-1] + t^(-1) P[r+1]

    (rows outside 0..n-2 dropped): at most three shifted rows per letter,
    each entry scaled by a unit.
    """
    k = word.n - 1
    prod = [[QLaurent.one() if r == c else QLaurent.zero() for c in range(k)]
            for r in range(k)]
    for v in word.letters:
        r = abs(v) - 1
        t = 2 if v > 0 else -2  # half-exponent of t^(+-1)
        parts = [(prod[r], t, -1)]
        if r > 0:
            parts.append((prod[r - 1], t if v > 0 else 0, 1))
        if r < k - 1:
            parts.append((prod[r + 1], 0 if v > 0 else t, 1))
        row = []
        for c in range(k):
            acc = {}
            for src, shift, scale in parts:
                ql_add_into(acc, src[c].shift(shift).terms, scale)
            row.append(QLaurent._raw(acc))
        prod[r] = row
    return prod


def _burau_alexander_matrix(word):
    """P - I for the reduced Burau matrix P of the word."""
    p = _burau_reduced(word)
    one = QLaurent.one()
    return [
        [entry - one if r == c else entry for c, entry in enumerate(row)]
        for r, row in enumerate(p)
    ]


def _alexander_burau(word, order):
    """Via the reduced Burau matrix: det(P - I)/(1 + ... + x^{n-1})."""
    d = _det(_burau_alexander_matrix(word))
    return _normalize_alexander(d, word, order)


def _at_q1(entry):
    """An exact XSeries evaluated at q = 1, as an x-half QLaurent."""
    return QLaurent({x: qv.at_q1() for x, qv in entry.terms.items()})


def _weight_rep_alexander_matrix(word):
    """I - M for the m=1 weight-graded matrix M of the word at q = 1.

    Each distinct generator matrix of the word is evaluated at q = 1 once,
    and lawrence.compose folds those x-polynomial matrices into M.
    Evaluation at q = 1 is a ring homomorphism, so it commutes with the
    product: M is rep_matrix(word, 1) evaluated at q = 1, exactly.
    """
    from . import lawrence  # deferred: lawrence imports this module

    gens = {}
    for v in set(word.letters):
        cols = lawrence.generator_matrix(
            word.n, 1, abs(v), 1 if v > 0 else -1).cols
        gens[v] = {
            src: {dst: cell for dst, entry in row.items()
                  if (cell := _at_q1(entry))}
            for src, row in cols.items()
        }
    states = lawrence.weight_states(word.n, 1)
    prod = {s: {s: QLaurent.one()} for s in states}
    for v in word.letters:
        prod = lawrence.compose(gens[v], prod)
    one, zero = QLaurent.one(), QLaurent.zero()
    return [
        [one - prod[src].get(dst, zero) if src == dst
         else -prod[src].get(dst, zero) for src in states]
        for dst in states
    ]


def _alexander_weight_rep(word, order):
    """Via the m=1 weight-graded matrices at q = 1."""
    d = _det(_weight_rep_alexander_matrix(word))  # det(I - M)
    stats = analyze(word)
    return _normalize_alexander(d.shift(word.n - 1 - stats.writhe), word,
                                order)


def alexander_classical(word, order):
    """Normalized Alexander polynomial of the closure knot and the series
    (1-x)/Delta, truncated at x^order.

    Computed independently from the q = 1 weight-graded representation and
    from the reduced Burau matrix; the two must agree exactly.  Every
    VerificationError names the word and the order.
    """
    if order < 0:
        raise InputError("order must be >= 0")
    require_homogeneous_knot(word)
    where = _where(word, order)
    d_rep = _alexander_weight_rep(word, order)
    d_bur = _alexander_burau(word, order)
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
    inv = _axis_quotient(1, delta, order)
    if inv.coeff(0) != QLaurent.one():
        raise VerificationError(
            f"(1-x)/Delta of {where} does not start with 1")
    # through specialize_q1 so small coefficients share one QLaurent each
    return XSeries(delta.terms).specialize_q1(), inv


def _axis_quotient(k, poly, order):
    """(1 - x^k)/poly at q = 1, truncated at x^order, for an x-half
    QLaurent poly whose constant term is +-1: (1 - x)/Delta of the
    Alexander route (k = 1) and the template zeta (k = n)."""
    trunc = 2 * order + 1
    axis = XSeries({0: 1, 2 * k: -1}, trunc)
    return (axis * XSeries(poly.terms).inverse(trunc)).specialize_q1()
