"""Braid words, their combinatorial statistics, and the classical
Alexander polynomial of the closure (computed two independent ways).

A braid word on n strands is a list of nonzero signed generator indices,
e.g. "1 -2 1 -2" for sigma_1 sigma_2^{-1} sigma_1 sigma_2^{-1} in B_3.
Column i collects the letters using generator i.  A word is homogeneous
when every column 1..n-1 is nonempty and single-signed; those are the
words the flow-loop machinery accepts (their closures are fibered links).
"""

import re
from dataclasses import dataclass

from .errors import InputError, ParseError, VerificationError
from .ring import QLaurent, XSeries

_PREFIX = re.compile(r"^n\s*=\s*([+-]?\d+)\s*;\s*(.*)$", re.S)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

    def to_json(self):
        return {
            "n": self.n,
            "c": self.c,
            "writhe": self.writhe,
            "cr_minus": self.cr_minus,
            "col_minus": self.col_minus,
            "columns": list(self.column_sign),
            "homogeneous": self.is_homogeneous,
            "components": self.closure_components,
            "genus": self.genus,
        }


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


# ---------------------------------------------------------------------------
# Alexander polynomial, two ways.  All x-polynomials below live in QLaurent
# dicts whose exponents count halves of x.

def _det(mat):
    """Exact determinant by fraction-free elimination (Bareiss 1968).

    After step p every entry below and right of the pivot is a (p+2)-minor
    of the input, so the division by the previous pivot is always exact.
    A zero pivot is swapped for a lower row with a nonzero entry in its
    column; if there is none the matrix is singular.  Polynomial in the
    size, and shared by both Alexander routes and the template zeta.
    """
    m = [list(row) for row in mat]
    k = len(m)
    if k == 0:
        return QLaurent.one()
    sign, prev = 1, QLaurent.one()
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
                v = pivot * row[c]
                if lead and pivot_row[c]:
                    v = v - lead * pivot_row[c]
                row[c] = v.exact_div(prev) if v and not prev.is_one else v
        prev = pivot
    det = m[k - 1][k - 1]
    return det if sign > 0 else -det


def _cyclotomic_like(n):
    """1 + x + ... + x^{n-1} as an x-half QLaurent."""
    return QLaurent({2 * j: 1 for j in range(n)})


def _normalize_alexander(p):
    """Scale by +-x^{k/2} so the lowest term is +1 at x^0."""
    if p.is_zero:
        raise VerificationError("Alexander determinant vanished")
    low = p.min_half()
    p = p.shift(-low)
    if p.coeff(0) < 0:
        p = -p
    if p.coeff(0) != 1:
        raise VerificationError(
            f"Alexander polynomial not monic after normalization: {p.render('x')}"
        )
    return p


def _burau_reduced(word):
    """Reduced Burau matrix of the word at t = x (x-half exponents)."""
    k = word.n - 1
    t = QLaurent.monomial(1, 2)
    t_inv = QLaurent.monomial(1, -2)
    one = QLaurent.one()

    def gen_matrix(v):
        i = abs(v)
        m = [[one if r == c else QLaurent.zero() for c in range(k)]
             for r in range(k)]
        r = i - 1  # 0-based row of the generator
        if v > 0:
            m[r][r] = -t
            if r > 0:
                m[r][r - 1] = t
            if r < k - 1:
                m[r][r + 1] = one
        else:
            m[r][r] = -t_inv
            if r > 0:
                m[r][r - 1] = one
            if r < k - 1:
                m[r][r + 1] = t_inv
        return m

    prod = [[one if r == c else QLaurent.zero() for c in range(k)]
            for r in range(k)]
    for v in word.letters:
        g = gen_matrix(v)
        prod = [
            [
                sum((g[r][s] * prod[s][c] for s in range(k)), QLaurent.zero())
                for c in range(k)
            ]
            for r in range(k)
        ]
    return prod


def _burau_alexander_matrix(word):
    """P - I for the reduced Burau matrix P of the word."""
    p = _burau_reduced(word)
    one = QLaurent.one()
    return [
        [entry - one if r == c else entry for c, entry in enumerate(row)]
        for r, row in enumerate(p)
    ]


def _alexander_burau(word):
    d = _det(_burau_alexander_matrix(word))
    return _normalize_alexander(d.exact_div(_cyclotomic_like(word.n)))


def _weight_rep_alexander_matrix(word):
    """I - M for the m=1 weight-graded matrix M of the word at q = 1."""
    from . import lawrence  # deferred: lawrence imports this module

    mat_graded = lawrence.rep_matrix(word, 1)
    states = lawrence.weight_states(word.n, 1)
    mat = []
    for r, dst in enumerate(states):
        row = []
        for c, src in enumerate(states):
            entry = mat_graded.entry(src, dst)  # XSeries, exact
            q1 = entry.specialize_q1()
            cell = QLaurent(
                {x: qv.at_q1() for x, qv in q1.terms.items()}
            )
            if r == c:
                cell = QLaurent.one() - cell
            else:
                cell = -cell
            row.append(cell)
        mat.append(row)
    return mat


def _alexander_weight_rep(word):
    """Via the m=1 weight-graded matrices at q = 1."""
    d = _det(_weight_rep_alexander_matrix(word))  # det(I - M)
    stats = analyze(word)
    shifted = d.shift(word.n - 1 - stats.writhe)
    return _normalize_alexander(shifted.exact_div(_cyclotomic_like(word.n)))


def alexander_classical(word, order):
    """Normalized Alexander polynomial of the closure knot and the series
    (1-x)/Delta, truncated at x^order.

    Computed independently from the q = 1 weight-graded representation and
    from the reduced Burau matrix; the two must agree exactly.
    """
    stats = analyze(word)
    if not stats.is_homogeneous:
        raise InputError(f"braid word {render_word(word)} is not homogeneous")
    if stats.closure_components != 1:
        raise InputError(
            f"closure has {stats.closure_components} components, need a knot"
        )
    d_rep = _alexander_weight_rep(word)
    d_bur = _alexander_burau(word)
    if d_rep != d_bur:
        raise VerificationError(
            "Alexander routes disagree: weight-rep gives "
            f"{d_rep.render('x')}, Burau gives {d_bur.render('x')}"
        )
    delta = d_rep
    if not delta.is_integral:
        raise VerificationError(
            f"Alexander polynomial has half-exponents: {delta.render('x')}"
        )
    top = delta.max_half()
    if any(delta.coeff(e) != delta.coeff(top - e) for e in delta.terms):
        raise VerificationError(
            f"Alexander polynomial not palindromic: {delta.render('x')}"
        )
    if abs(delta.at_q1()) != 1:
        raise VerificationError(
            f"Alexander polynomial has |Delta(1)| != 1: {delta.render('x')}"
        )
    delta_series = XSeries(
        {e: QLaurent.monomial(c, 0) for e, c in delta.terms.items()},
        trunc=None,
    )
    trunc = 2 * order + 1
    inv = delta_series.inverse(trunc)
    one_minus_x = XSeries(
        {0: QLaurent.one(), 2: QLaurent.monomial(-1, 0)}, trunc
    )
    inv_series = one_minus_x * inv
    if inv_series.coeff(0) != QLaurent.one():
        raise VerificationError("(1-x)/Delta does not start with 1")
    # through specialize_q1 so small coefficients share one QLaurent each
    return delta_series.specialize_q1(), inv_series.specialize_q1()
