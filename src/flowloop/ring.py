"""Exact coefficient arithmetic.

Everything downstream works in the ring Z[q^{1/2}, q^{-1/2}] and in
truncated series in x^{1/2} over it.  Exponents are stored as plain ints
counting *half* units, so q^{3/2} is exponent 3 and q^2 is exponent 4;
there is no floating point anywhere and no stored zero coefficient.

QLaurent  -- sparse one-variable Laurent "polynomial" in q^{1/2}
XSeries   -- series in x^{1/2} with QLaurent coefficients, either truncated
             at a fixed half-exponent or exact (trunc=None) when the object
             is known to be polynomial (matrix entries, normalized Alexander
             polynomials)
Framing   -- a half-integer framing parameter for the bifurcation identities

ql_add_into, ql_addmul_into, xs_addmul_term_into and xs_mul are the
plain-dict loops that both classes do their arithmetic with;
ql_addmul_into is the one q-product loop, and ql_mul and
xs_addmul_term_into run it.

kronecker_pack and kronecker_unpack are the one Kronecker codec (von zur
Gathen and Gerhard, Modern Computer Algebra; D. Harvey, J. Symbolic
Comput. 2009): a {half: coeff} table times y^(-low), y the half-power of
its variable and low at most its lowest exponent, is evaluated at
y = 2^K, one integer.  Evaluation at 2^K is a ring homomorphism
Z[y] -> Z, so the packed product of two tables is the product of their
packed values, at the sum of their lows, and two packed values at one
low add; one at a higher low is shifted left by K bits per step first.
Whenever every coefficient of the true result has
|coeff| < 2^(K - 1), its balanced base-2^K digits are exactly those
coefficients, so kronecker_unpack decodes it, and a packed value is 0
iff the table is empty.  Each caller proves such a bound, from the L1
norms (ql_norm) of what it multiplies, before it picks K: braid._det and
the q = 1 weight-rep route (braid), and the closed-walk sums of both Phi
engines (walks.sum_paths).

qbinom / qtrinom are the Gaussian binomial/trinomial with the generalized
negative-top convention.  qbinom builds nonnegative tops from q-Pascal rows
in one cache and reflects a negative top onto a nonnegative one; qtrinom is
a product of two cached binomials, memoized by functools.cache.  The two
functions at the bottom that build the bifurcation identities return the
series whose collapse to 1 (resp. pairwise equality) encodes the
saddle-node and period-doubling cancellations.
"""

from dataclasses import dataclass
import functools
import types

from .errors import VerificationError, require_nonnegative


def _signed_sum(pieces):
    """Join (text, positive) pairs as "a + b - c", with a leading "-" for a
    negative first piece; "0" when there is none."""
    out = []
    for text, positive in pieces:
        if out:
            out.append((" + " if positive else " - ") + text)
        else:
            out.append(text if positive else "-" + text)
    return "".join(out) or "0"


def _pow_str(var, half):
    """Render var^(half/2) canonically ('' for exponent 0)."""
    if half == 0:
        return ""
    if half % 2 == 0:
        k = half // 2
        return var if k == 1 else f"{var}^{k}"
    return f"{var}^({half}/2)"


# ---------------------------------------------------------------------------
# Dict kernels: the hot loops of every transfer-matrix product.  A
# one-variable poly is {q_half: int}; a two-variable series is
# {x_half: {q_half: int}}.  No zero coefficient is ever left in a dict.


def ql_mul(a, b):
    """Product of two {exp: coeff} dicts."""
    out = {}
    ql_addmul_into(out, a, b)
    return out


def ql_norm(a):
    """||a||_1: the sum of |coeff| over the {exp: coeff} dict a."""
    return sum(map(abs, a.values()))


def ql_add_into(acc, a, scale=1, shift=0):
    """acc += scale * a with every exponent raised by shift, in place
    (zeros dropped); scale is nonzero."""
    for e, c in a.items():
        e += shift
        v = acc.get(e, 0) + scale * c
        if v:
            acc[e] = v
        elif e in acc:
            del acc[e]


def ql_addmul_into(acc, a, b):
    """acc += a * b, in place, without building the product dict."""
    if not a or not b:
        return
    if len(a) > len(b):
        a, b = b, a
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            v = acc.get(e, 0) + ca * cb
            if v:
                acc[e] = v
            elif e in acc:
                del acc[e]


def xs_addmul_term_into(acc, a, qc, xh, tmax):
    """acc += a * qc * x^(xh/2), in place, for an {x_half: {q_half: coeff}}
    table a and a {q_half: coeff} dict qc.

    Terms with x_half > tmax are dropped; tmax None means keep everything.
    An x-term that cancels is deleted, so acc keeps no empty entry and no
    zero coefficient.  a and qc are only read, and acc never shares a dict
    with them; acc must not be a itself.
    """
    for x, qa in a.items():
        nx = x + xh
        if tmax is not None and nx > tmax:
            continue
        t = acc.get(nx)
        if t is None:
            t = acc[nx] = {}
        ql_addmul_into(t, qa, qc)
        if not t:
            del acc[nx]


def kronecker_pack(terms, K, low):
    """The {half: coeff} table terms times y^(-low), low at most its lowest
    exponent, evaluated at y = 2^K: one integer."""
    return sum(c << K * (e - low) for e, c in terms.items())


def kronecker_unpack(value, K, low):
    """The {half: coeff} table whose coefficients are the balanced
    base-2^K digits of value, the lowest at exponent low: the inverse of
    kronecker_pack when every coefficient is below 2^(K - 1) in absolute
    value."""
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
    return terms


def xs_mul(a, b, tmax):
    """Product of two {x_half: {q_half: coeff}} tables, one
    xs_addmul_term_into per term of b.

    Terms with x_half > tmax are dropped; tmax None means keep everything.
    """
    out = {}
    for xb, qb in b.items():
        xs_addmul_term_into(out, a, qb, xb, tmax)
    return out


class QLaurent:
    """Sparse Laurent element of Z[q^{1/2}, q^{-1/2}].

    terms: {half_exponent: coefficient}, zero coefficients never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms:
            self.terms = {e: c for e, c in terms.items() if c}
        else:
            self.terms = {}

    @classmethod
    def _raw(cls, terms):
        # internal: terms already normalized, adopt without copying
        self = cls.__new__(cls)
        self.terms = terms
        return self

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def one(cls):
        return cls._raw({0: 1})

    @classmethod
    def monomial(cls, coeff=1, half=0):
        return cls._raw({half: coeff} if coeff else {})

    @staticmethod
    def coerce(v):
        if isinstance(v, QLaurent):
            return v
        if isinstance(v, int):
            return QLaurent._raw({0: v} if v else {})
        raise TypeError(f"cannot coerce {type(v).__name__} to QLaurent")

    # -- predicates / views ------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_integral(self):
        """True when every exponent is a whole power of q."""
        return all(e % 2 == 0 for e in self.terms)

    def coeff(self, half):
        return self.terms.get(half, 0)

    def min_half(self):
        if not self.terms:
            raise ValueError("zero element has no degree")
        return min(self.terms)

    def max_half(self):
        if not self.terms:
            raise ValueError("zero element has no degree")
        return max(self.terms)

    def unit_monomial(self):
        """(coeff, half) if this is c*q^(half/2) with c = +-1, else None."""
        if len(self.terms) != 1:
            return None
        ((e, c),) = self.terms.items()
        return (c, e) if c in (1, -1) else None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = QLaurent.coerce(other)
        out = dict(self.terms)
        ql_add_into(out, other.terms)
        return QLaurent._raw(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = QLaurent.coerce(other)
        out = dict(self.terms)
        ql_add_into(out, other.terms, -1)
        return QLaurent._raw(out)

    def __rsub__(self, other):
        return QLaurent.coerce(other) - self

    def __neg__(self):
        return QLaurent._raw({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        other = QLaurent.coerce(other)
        return QLaurent._raw(ql_mul(self.terms, other.terms))

    __rmul__ = __mul__

    def exact_div(self, den):
        """Exact quotient self/den; VerificationError if it does not divide.

        A nonzero remainder here always signals an upstream bug (the callers
        divide things that are divisible by construction), hence the hard
        error instead of a (quotient, remainder) pair.
        """
        den = QLaurent.coerce(den)
        if den.is_zero:
            raise VerificationError("exact_div by zero")
        if self.is_zero:
            return QLaurent.zero()
        # strip the monomial content so both sides start at exponent 0
        sa, sb = self.min_half(), den.min_half()
        num = {e - sa: c for e, c in self.terms.items()}
        dterms = {e - sb: c for e, c in den.terms.items()}
        dlead = max(dterms)
        dcoef = dterms[dlead]
        quot = {}
        while num:
            e = max(num)
            if e < dlead:
                raise VerificationError(
                    f"exact_div: nonzero remainder ({self} / {den})"
                )
            c = num[e]
            t, r = divmod(c, dcoef)
            if r:
                raise VerificationError(
                    f"exact_div: coefficient {c} not divisible by {dcoef}"
                )
            quot[e - dlead] = t
            for de, dc in dterms.items():
                k = e - dlead + de
                v = num.get(k, 0) - t * dc
                if v:
                    num[k] = v
                elif k in num:
                    del num[k]
        return QLaurent._raw({e + sa - sb: c for e, c in quot.items()})

    # -- substitutions -----------------------------------------------------

    def bar(self):
        """q -> q^{-1}."""
        return QLaurent._raw({-e: c for e, c in self.terms.items()})

    def shift(self, half):
        """Multiply by q^(half/2)."""
        if not half:
            return self
        return QLaurent._raw({e + half: c for e, c in self.terms.items()})

    def at_q1(self):
        """Evaluate at q = 1 (always an integer)."""
        return sum(self.terms.values())

    # -- comparison / rendering --------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == ({0: other} if other else {})
        if isinstance(other, QLaurent):
            return self.terms == other.terms
        return NotImplemented

    __hash__ = None

    def render(self, var="q"):
        pieces = []
        for e in sorted(self.terms):
            c = self.terms[e]
            body = []
            if abs(c) != 1 or e == 0:
                body.append(str(abs(c)))
            p = _pow_str(var, e)
            if p:
                body.append(p)
            pieces.append(("*".join(body), c > 0))
        return _signed_sum(pieces)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"<QLaurent {self.render()}>"


class XSeries:
    """Series in x^{1/2} over QLaurent.

    terms: {x_half_exponent: QLaurent}; trunc is the largest retained x
    half-exponent, or None for exact (no truncation) arithmetic.  Mixing a
    truncated and an exact operand truncates; mixing two truncations keeps
    the smaller.  Exponents may be negative but the support is always a
    finite set, so every object is bounded below.
    """

    __slots__ = ("terms", "trunc")

    def __init__(self, terms=None, trunc=None):
        self.trunc = trunc
        if terms:
            self.terms = {
                x: (q if isinstance(q, QLaurent) else QLaurent.coerce(q))
                for x, q in terms.items()
            }
            self.terms = {
                x: q
                for x, q in self.terms.items()
                if q and (trunc is None or x <= trunc)
            }
        else:
            self.terms = {}

    @classmethod
    def _raw(cls, terms, trunc):
        self = cls.__new__(cls)
        self.terms = terms
        self.trunc = trunc
        return self

    @classmethod
    def _adopt(cls, table, trunc):
        # internal: wrap an {x_half: {q_half: coeff}} table that has no
        # empty entry, no zero coefficient and nothing above trunc, with
        # each coefficient copied by _adopt_coeff; a small monomial becomes
        # the shared _monomial, so a kept result holds no dict for it
        return cls._raw({x: _adopt_coeff(t) for x, t in table.items()},
                        trunc)

    @classmethod
    def zero(cls, trunc=None):
        return cls._raw({}, trunc)

    @classmethod
    def one(cls, trunc=None):
        return cls._raw({0: QLaurent.one()}, trunc)

    @classmethod
    def monomial(cls, qcoeff=1, x_half=0, trunc=None):
        q = QLaurent.coerce(qcoeff)
        if q.is_zero or (trunc is not None and x_half > trunc):
            return cls._raw({}, trunc)
        return cls._raw({x_half: q}, trunc)

    @staticmethod
    def _join_trunc(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    def _coerce(self, v):
        if isinstance(v, XSeries):
            return v
        if isinstance(v, (int, QLaurent)):
            return XSeries.monomial(v, 0, self.trunc)
        raise TypeError(f"cannot coerce {type(v).__name__} to XSeries")

    # -- views ---------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self):
        return not self.terms

    def coeff(self, x_half):
        return self.terms.get(x_half, QLaurent.zero())

    @property
    def x_integral(self):
        return all(x % 2 == 0 for x in self.terms)

    @property
    def q_integral(self):
        return all(q.is_integral for q in self.terms.values())

    # -- arithmetic ------------------------------------------------------

    def _addsub(self, other, sign):
        other = self._coerce(other)
        trunc = self._join_trunc(self.trunc, other.trunc)
        out = {}
        for x, q in self.terms.items():
            if trunc is None or x <= trunc:
                out[x] = dict(q.terms)
        for x, q in other.terms.items():
            if trunc is not None and x > trunc:
                continue
            acc = out.setdefault(x, {})
            ql_add_into(acc, q.terms, sign)
        return XSeries._raw(
            {x: QLaurent._raw(t) for x, t in out.items() if t}, trunc
        )

    def __add__(self, other):
        return self._addsub(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._addsub(other, -1)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return XSeries._raw(
            {x: -q for x, q in self.terms.items()}, self.trunc
        )

    def __mul__(self, other):
        other = self._coerce(other)
        trunc = self._join_trunc(self.trunc, other.trunc)
        raw = xs_mul(
            {x: t.terms for x, t in self.terms.items()},
            {x: t.terms for x, t in other.terms.items()},
            trunc,
        )
        return XSeries._raw(
            {x: QLaurent._raw(t) for x, t in raw.items()}, trunc
        )

    __rmul__ = __mul__

    def _times_term(self, qc, x_half, trunc):
        """self * qc * x^(x_half/2) for a {q_half: coeff} dict qc,
        truncated at trunc: one xs_addmul_term_into into an empty table."""
        out = {}
        xs_addmul_term_into(out, {x: q.terms for x, q in self.terms.items()},
                            qc, x_half, trunc)
        return XSeries._adopt(out, trunc)

    def mul_term(self, qcoeff, x_half):
        """Multiply by the single term qcoeff * x^(x_half/2)."""
        return self._times_term(QLaurent.coerce(qcoeff).terms, x_half,
                                self.trunc)

    # -- substitutions ---------------------------------------------------

    def bar_q(self):
        """q -> q^{-1}, x untouched."""
        return XSeries._raw(
            {x: q.bar() for x, q in self.terms.items()}, self.trunc
        )

    def substitute_x_inverse(self):
        """x -> x^{-1}; only meaningful for exact (untruncated) objects."""
        if self.trunc is not None:
            raise VerificationError(
                "x -> x^{-1} is only defined for exact series"
            )
        return XSeries._raw({-x: q for x, q in self.terms.items()}, None)

    def subst_x_qpow(self, k):
        """Substitute x = q^k (k a whole integer); returns a QLaurent."""
        out = {}
        for x, q in self.terms.items():
            ql_add_into(
                out, {e + x * k: c for e, c in q.terms.items()}
            )
        return QLaurent._raw(out)

    def specialize_q1(self):
        """Evaluate coefficients at q = 1 (same truncation).

        Small values share one QLaurent each (see _monomial), so q = 1
        series kept by callers cost one dict slot per term.
        """
        out = {}
        for x, q in self.terms.items():
            v = q.at_q1()
            if v:
                out[x] = _monomial(v, 0)
        return XSeries._raw(out, self.trunc)

    # -- comparison / rendering -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, XSeries):
            return self.trunc == other.trunc and self.terms == other.terms
        if isinstance(other, (int, QLaurent)):
            return self == self._coerce(other)
        return NotImplemented

    __hash__ = None

    def render(self, var="x", tail=False):
        pieces = []
        for x in sorted(self.terms):
            q = self.terms[x]
            px = _pow_str(var, x)
            if len(q.terms) == 1:
                ((qe, qc),) = q.terms.items()
                body = []
                if abs(qc) != 1 or (qe == 0 and x == 0):
                    body.append(str(abs(qc)))
                body += [p for p in (_pow_str("q", qe), px) if p]
                pieces.append(("*".join(body), qc > 0))
            else:
                piece = "(" + q.render() + ")"
                pieces.append((piece + "*" + px if px else piece, True))
        s = _signed_sum(pieces)
        if tail and self.trunc is not None:
            h = self.trunc + 1
            if h % 2 == 0:
                s += f" + O({var}^{h // 2})"
            else:
                s += f" + O({var}^({h}/2))"
        return s

    def __str__(self):
        return self.render()

    def __repr__(self):
        t = "exact" if self.trunc is None else f"trunc={self.trunc}"
        return f"<XSeries {self.render()} [{t}]>"


_SHARED_SPAN = 256
_SHARED = {}


def _monomial(c, e):
    """The QLaurent c * q^(e/2) for c != 0.  While |c| and |e| are at most
    _SHARED_SPAN, every call returns the same object, made on first use,
    so kept series cost no dict for such a coefficient (most values of a
    q = 1 series and most coefficients of Phi are one).  A shared object's
    terms are a read-only view, so an in-place add into them raises
    TypeError instead of changing every series that holds it."""
    if -_SHARED_SPAN <= c <= _SHARED_SPAN and \
            -_SHARED_SPAN <= e <= _SHARED_SPAN:
        hit = _SHARED.get((c, e))
        if hit is None:
            hit = _SHARED[c, e] = QLaurent._raw(
                types.MappingProxyType({e: c}))
        return hit
    return QLaurent._raw({e: c})


def _adopt_coeff(terms):
    """QLaurent of a fresh copy of the {q_half: coeff} dict terms, or the
    shared _monomial when terms has one entry.  The copy is built entry by
    entry, so it is sized to its entries (dict(terms) may clone the
    table's larger hash table): a kept result neither aliases the table
    nor keeps its slack."""
    if len(terms) == 1:
        ((e, c),) = terms.items()
        return _monomial(c, e)
    return QLaurent._raw({e: c for e, c in terms.items()})


@dataclass(frozen=True)
class Framing:
    """Half-integer framing f = half/2 for the bifurcation identities."""

    half: int

    def render(self):
        return f"{self.half // 2}" if self.half % 2 == 0 else f"{self.half}/2"


# ---------------------------------------------------------------------------
# Gaussian binomials / trinomials

_qbinom_cache = {}


def qbinom(n, k):
    """Gaussian binomial [n; k]_q = prod_{j=1}^{k} (1-q^{n-k+j})/(1-q^j).

    n may be negative (generalized top, Laurent result); k < 0 gives 0,
    k = 0 gives 1, and 0 <= n < k gives 0 through the vanishing factor.
    A negative top reflects to a nonnegative one,

        [-N; k] = (-1)^k q^{-kN - k(k-1)/2} [N+k-1; k],

    because each numerator factor 1 - q^{-j} is -q^{-j} (1 - q^j) for
    j = N..N+k-1, and the factors 1 - q^j left over make [N+k-1; k].
    Nonnegative tops come from q-Pascal rows (_pascal).
    """
    key = (n, k)
    hit = _qbinom_cache.get(key)
    if hit is not None:
        return hit
    if k < 0 or 0 <= n < k:
        out = QLaurent.zero()
    elif n < 0:
        out = _pascal(k - n - 1, k).shift(2 * k * n - k * (k - 1))
        if k % 2:
            out = -out
    else:
        out = _pascal(n, k)
    _qbinom_cache[key] = out
    return out


def _pascal(n, k):
    """[n; k]_q for 0 <= k <= n, by the q-Pascal recurrence

        [r; j] = [r-1; j-1] + q^j [r-1; j]

    (G. E. Andrews, The Theory of Partitions, ch. 3), built row by row in
    _qbinom_cache, with no recursion.  Entries are kept under the smaller
    column of the symmetry [r; j] = [r; r-j], and only the ones [n; k]
    depends on are built: columns j <= min(k, n-k) with r - j <= the
    larger of the two.  All coefficients are positive, so no sum cancels.
    """
    k = min(k, n - k)
    if k == 0:
        return QLaurent.one()
    cache = _qbinom_cache
    one = {0: 1}
    for r in range(2, n + 1):
        for j in range(max(1, r - n + k), min(k, r // 2) + 1):
            if (r, j) in cache:
                continue
            terms = dict(cache[r - 1, j - 1].terms if j > 1 else one)
            up = min(j, r - 1 - j)
            for e, c in (cache[r - 1, up].terms if up else one).items():
                e += 2 * j
                terms[e] = terms.get(e, 0) + c
            cache[r, j] = QLaurent._raw(terms)
    return cache[n, k]


@functools.cache
def qtrinom(n, k1, k2, k3):
    """Gaussian trinomial [n; k1, k2, k3]_q, zero unless k1+k2+k3 = n with
    all parts nonnegative; equals [k1+k2; k2]_q * [n; k3]_q otherwise."""
    if k1 < 0 or k2 < 0 or k3 < 0 or k1 + k2 + k3 != n:
        return QLaurent.zero()
    return qbinom(k1 + k2, k2) * qbinom(n, k3)


# ---------------------------------------------------------------------------
# Bifurcation identities

def saddle_node_identity(f, order):
    """Sum_{n>=0, eps in {0,1}} q^{f(n+eps)^2} x^n (-x)^eps, truncated at
    x^order.  Adjacent (n, 1) and (n+1, 0) terms cancel, so the contract is
    that the returned series equals 1."""
    if not isinstance(f, Framing):
        raise TypeError("f must be a Framing")
    require_nonnegative(order=order)
    trunc = 2 * order + 1
    out = XSeries.zero(trunc)
    n = 0
    while 2 * n <= trunc:
        for eps in (0, 1):
            xh = 2 * n + 2 * eps
            if xh > trunc:
                continue
            qh = f.half * (n + eps) * (n + eps)
            out = out + XSeries.monomial(
                QLaurent.monomial((-1) ** eps, qh), xh, trunc
            )
        n += 1
    return out


def period_doubling_identity(f, order):
    """Returns (lhs, rhs) with
    lhs = Sum_n q^{f n^2} (-x)^n,
    rhs = Sum_{n, eps} q^{f(2n+eps)^2} x^{2n} (-x)^eps,
    truncated at x^order.  The contract is lhs == rhs (even/odd split)."""
    if not isinstance(f, Framing):
        raise TypeError("f must be a Framing")
    require_nonnegative(order=order)
    trunc = 2 * order + 1
    lhs = XSeries.zero(trunc)
    n = 0
    while 2 * n <= trunc:
        lhs = lhs + XSeries.monomial(
            QLaurent.monomial((-1) ** n, f.half * n * n), 2 * n, trunc
        )
        n += 1
    rhs = XSeries.zero(trunc)
    n = 0
    while 4 * n <= trunc:
        for eps in (0, 1):
            xh = 4 * n + 2 * eps
            if xh > trunc:
                continue
            m = 2 * n + eps
            rhs = rhs + XSeries.monomial(
                QLaurent.monomial((-1) ** eps, f.half * m * m), xh, trunc
            )
        n += 1
    return lhs, rhs
