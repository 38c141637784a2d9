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

qbinom / qtrinom are the Gaussian binomial/trinomial with the generalized
negative-top convention; the two bifurcation identity builders at the bottom
return the series whose collapse to 1 (resp. pairwise equality) encodes the
saddle-node and period-doubling cancellations.
"""

from dataclasses import dataclass

from . import _kernel
from .errors import VerificationError


def _pow_str(var, half):
    """Render var^(half/2) canonically ('' for exponent 0)."""
    if half == 0:
        return ""
    if half % 2 == 0:
        k = half // 2
        return var if k == 1 else f"{var}^{k}"
    return f"{var}^({half}/2)"


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
    def is_one(self):
        return self.terms == {0: 1}

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
        _kernel.active.ql_add_into(out, other.terms)
        return QLaurent._raw(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = QLaurent.coerce(other)
        out = dict(self.terms)
        _kernel.active.ql_add_into(out, other.terms, -1)
        return QLaurent._raw(out)

    def __rsub__(self, other):
        return QLaurent.coerce(other) - self

    def __neg__(self):
        return QLaurent._raw({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        other = QLaurent.coerce(other)
        return QLaurent._raw(_kernel.active.ql_mul(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        acc, base = QLaurent.one(), self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

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
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mag = abs(c)
            body = []
            if mag != 1 or e == 0:
                body.append(str(mag))
            p = _pow_str(var, e)
            if p:
                body.append(p)
            piece = "*".join(body)
            if not parts:
                parts.append(piece if c > 0 else "-" + piece)
            else:
                parts.append((" + " if c > 0 else " - ") + piece)
        return "".join(parts)

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

    def min_x_half(self):
        if not self.terms:
            raise ValueError("zero series has no degree")
        return min(self.terms)

    def max_x_half(self):
        if not self.terms:
            raise ValueError("zero series has no degree")
        return max(self.terms)

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
            _kernel.active.ql_add_into(acc, q.terms, sign)
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
        if isinstance(other, (int, QLaurent)):
            q = QLaurent.coerce(other)
            if q.is_zero:
                return XSeries.zero(self.trunc)
            raw = _kernel.active.xs_mul(
                {x: t.terms for x, t in self.terms.items()},
                {0: q.terms},
                self.trunc,
            )
            return XSeries._raw(
                {x: QLaurent._raw(t) for x, t in raw.items()}, self.trunc
            )
        other = self._coerce(other)
        trunc = self._join_trunc(self.trunc, other.trunc)
        raw = _kernel.active.xs_mul(
            {x: t.terms for x, t in self.terms.items()},
            {x: t.terms for x, t in other.terms.items()},
            trunc,
        )
        return XSeries._raw(
            {x: QLaurent._raw(t) for x, t in raw.items()}, trunc
        )

    __rmul__ = __mul__

    def scale_monomial(self, coeff, q_half, x_half):
        """Multiply by coeff * q^(q_half/2) * x^(x_half/2)."""
        out = {}
        for x, q in self.terms.items():
            nx = x + x_half
            if self.trunc is not None and nx > self.trunc:
                continue
            nq = QLaurent._raw(
                {e + q_half: c * coeff for e, c in q.terms.items()}
            ) if coeff else QLaurent.zero()
            if nq:
                out[nx] = nq
        return XSeries._raw(out, self.trunc)

    def mul_term(self, qcoeff, x_half):
        """Multiply by the single term qcoeff * x^(x_half/2)."""
        qcoeff = QLaurent.coerce(qcoeff)
        if qcoeff.is_zero:
            return XSeries.zero(self.trunc)
        mul = _kernel.active.ql_mul
        out = {}
        for x, q in self.terms.items():
            nx = x + x_half
            if self.trunc is not None and nx > self.trunc:
                continue
            t = mul(q.terms, qcoeff.terms)
            if t:
                out[nx] = QLaurent._raw(t)
        return XSeries._raw(out, self.trunc)

    def truncate(self, trunc):
        return XSeries._raw(
            {x: q for x, q in self.terms.items()
             if trunc is None or x <= trunc},
            trunc,
        )

    def inverse(self, trunc):
        """Multiplicative inverse as a series truncated at trunc.

        Requires support in x_half >= 0 and a unit-monomial constant term
        (the only places this is used invert series that start at 1).
        """
        if self.is_zero or self.min_x_half() < 0:
            raise VerificationError("inverse: series must start at x^0")
        head = self.terms.get(0)
        unit = head.unit_monomial() if head else None
        if unit is None:
            raise VerificationError(
                f"inverse: constant term {head} is not a unit monomial"
            )
        c0, e0 = unit
        u_inv = QLaurent.monomial(c0, -e0)  # (+-q^k)^-1
        inv = {0: u_inv}
        for t in range(1, trunc + 1):
            acc = {}
            for s, a in self.terms.items():
                if 1 <= s <= t:
                    b = inv.get(t - s)
                    if b is not None:
                        _kernel.active.ql_addmul_into(acc, a.terms, b.terms)
            if acc:
                prod = _kernel.active.ql_mul(acc, u_inv.terms)
                inv[t] = QLaurent._raw({e: -c for e, c in prod.items()})
        return XSeries._raw({x: q for x, q in inv.items() if q}, trunc)

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

    def shift_x(self, x_half):
        out = {}
        for x, q in self.terms.items():
            nx = x + x_half
            if self.trunc is None or nx <= self.trunc:
                out[nx] = q
        return XSeries._raw(out, self.trunc)

    def subst_x_qpow(self, k):
        """Substitute x = q^k (k a whole integer); returns a QLaurent."""
        out = {}
        for x, q in self.terms.items():
            _kernel.active.ql_add_into(
                out, {e + x * k: c for e, c in q.terms.items()}
            )
        return QLaurent._raw(out)

    def specialize_q1(self):
        """Evaluate coefficients at q = 1 (same truncation).

        Values with |v| <= _SMALL_Q1 reuse one shared QLaurent each, so
        q = 1 series kept by callers cost one dict slot per term.  Sharing
        is safe because no QLaurent's terms are ever mutated in place.
        """
        out = {}
        for x, q in self.terms.items():
            v = q.at_q1()
            if v:
                out[x] = (_SMALL_Q1_CONSTS[v + _SMALL_Q1]
                          if -_SMALL_Q1 <= v <= _SMALL_Q1
                          else QLaurent.monomial(v, 0))
        return XSeries._raw(out, self.trunc)

    # -- comparison / rendering -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, XSeries):
            return self.trunc == other.trunc and self._same_terms(other)
        if isinstance(other, (int, QLaurent)):
            return self == self._coerce(other)
        return NotImplemented

    __hash__ = None

    def _same_terms(self, other):
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[x] == other.terms[x] for x in self.terms)

    def render(self, var="x", tail=False):
        if not self.terms:
            s = "0"
        else:
            parts = []
            for x in sorted(self.terms):
                q = self.terms[x]
                unit = None
                if len(q.terms) == 1:
                    ((qe, qc),) = q.terms.items()
                    body = []
                    if abs(qc) != 1 or (qe == 0 and x == 0):
                        body.append(str(abs(qc)))
                    p = _pow_str("q", qe)
                    if p:
                        body.append(p)
                    p = _pow_str(var, x)
                    if p:
                        body.append(p)
                    unit = ("*".join(body), qc > 0)
                if unit is None:
                    piece = "(" + q.render() + ")"
                    p = _pow_str(var, x)
                    if p:
                        piece += "*" + p
                    unit = (piece, True)
                piece, positive = unit
                if not parts:
                    parts.append(piece if positive else "-" + piece)
                else:
                    parts.append((" + " if positive else " - ") + piece)
            s = "".join(parts)
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


_SMALL_Q1 = 256
_SMALL_Q1_CONSTS = tuple(
    QLaurent.monomial(v, 0) for v in range(-_SMALL_Q1, _SMALL_Q1 + 1)
)


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
    """
    key = (n, k)
    hit = _qbinom_cache.get(key)
    if hit is not None:
        return hit
    if k < 0:
        out = QLaurent.zero()
    elif k == 0:
        out = QLaurent.one()
    else:
        num = QLaurent.one()
        den = QLaurent.one()
        for j in range(1, k + 1):
            num = num * (QLaurent.one() - QLaurent.monomial(1, 2 * (n - k + j)))
            den = den * (QLaurent.one() - QLaurent.monomial(1, 2 * j))
        out = num.exact_div(den) if num else QLaurent.zero()
    _qbinom_cache[key] = out
    return out


_qtrinom_cache = {}


def qtrinom(n, k1, k2, k3):
    """Gaussian trinomial [n; k1, k2, k3]_q, zero unless k1+k2+k3 = n with
    all parts nonnegative; equals [k1+k2; k2]_q * [n; k3]_q otherwise."""
    key = (n, k1, k2, k3)
    hit = _qtrinom_cache.get(key)
    if hit is not None:
        return hit
    if k1 < 0 or k2 < 0 or k3 < 0 or k1 + k2 + k3 != n:
        out = QLaurent.zero()
    else:
        out = qbinom(k1 + k2, k2) * qbinom(n, k3)
    _qtrinom_cache[key] = out
    return out


# ---------------------------------------------------------------------------
# Bifurcation identities

def saddle_node_identity(f, order):
    """Sum_{n>=0, eps in {0,1}} q^{f(n+eps)^2} x^n (-x)^eps, truncated at
    x^order.  Adjacent (n, 1) and (n+1, 0) terms cancel, so the contract is
    that the returned series equals 1."""
    if not isinstance(f, Framing):
        raise TypeError("f must be a Framing")
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
