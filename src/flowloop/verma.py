"""Infinite-dimensional highest-weight tensor action, one weight sector at
a time, and the trace identity tying it to the weight-graded matrices.

The braiding on a pair of factors acts on weight vectors v_i (x) v_j by

    R(x)_{i,j}^{i',j'} = delta_{i+j, i'+j'} q^{j j'} (q x^{-1})^{(j+j'+1)/2}
                         [i; j']_q  (q^{j+1} x^{-1}; q)_{i-j'}

with [i; j']_q the Gaussian binomial and (y; q)_k the finite q-product
prod_{l<k} (1 - y q^l).  Each total-weight sector of a pair is finite, so
everything here is exact.  Inverse letters use the mirrored entries
R^{-1}(x)_{i,j}^{i',j'} = R(q^{-1}, x^{-1})_{j,i}^{j',i'}, validated
against R R^{-1} = id on sectors of weight <= 3 at first use; a failed
check raises VerificationError rather than falling back to another
inverse.
"""

import functools

from . import braid as _braid
from . import lawrence as _lawrence
from .errors import VerificationError, require_nonnegative
from .ring import QLaurent, XSeries, qbinom


def r_entry(i, j, ip, jp):
    """Single braiding coefficient; zero off the conserved sector."""
    if min(i, j, ip, jp) < 0 or i + j != ip + jp or jp > i:
        return XSeries.zero()
    qh = 2 * j * jp + (j + jp + 1)
    xh = -(j + jp + 1)
    out = XSeries.monomial(QLaurent.monomial(1, qh), xh) * qbinom(i, jp)
    for l in range(i - jp):
        factor = XSeries(
            {0: QLaurent.one(), -2: QLaurent.monomial(-1, 2 * (j + 1 + l))},
            trunc=None,
        )
        out = out * factor
    return out


def _r_entry_inv(i, j, ip, jp):
    """Mirror of r_entry implementing the inverse braiding: swap the two
    factors inside source and target and invert both variables."""
    return r_entry(j, i, jp, ip).bar_q().substitute_x_inverse()


@functools.cache
def _pair_matrix(total, sign):
    """Matrix of a pair braiding (sign -1: its mirror) on the
    weight-`total` sector, as cols[(i, j)][(ip, jp)]."""
    entry = r_entry if sign > 0 else _r_entry_inv
    cols = {}
    for i in range(total + 1):
        j = total - i
        vec = {}
        for ip in range(total + 1):
            jpp = total - ip
            val = entry(i, j, ip, jpp)
            if not val.is_zero:
                vec[(ip, jpp)] = val
        cols[(i, j)] = vec
    return cols


@functools.cache
def _mirror_ok():
    """True if the mirrored braiding inverts R on the sectors of weight
    <= 3 (and so, under x -> 1/x, also with the variable x^{-1})."""
    for total in range(4):
        prod = _lawrence.compose(_pair_matrix(total, -1),
                                 _pair_matrix(total, 1))
        if any(vec != {src: XSeries.one()} for src, vec in prod.items()):
            return False
    return True


def tensor_states(n, m):
    """Compositions of m into n parts (one label per strand), lex order."""
    return _lawrence.weight_states(n + 1, m)


def tensor_action(word, m):
    """Sparse matrix of the word on the weight-m sector of the n-fold
    tensor power; cols[src][dst] = entry.  Each distinct letter's matrix
    on the sector is read off the cached pair braidings, and
    lawrence.compose applies the letters in turn."""
    require_nonnegative(m=m)
    if any(v < 0 for v in word.letters) and not _mirror_ok():
        raise VerificationError(
            "mirrored braiding does not invert R; "
            f"refusing the inverse letters of {_braid.render_word(word)}"
        )
    states = tensor_states(word.n, m)
    letters = {}
    for v in set(word.letters):
        k = abs(v) - 1  # 0-based factor position
        sign = 1 if v > 0 else -1
        letter = letters[v] = {}
        for s in states:
            pair = _pair_matrix(s[k] + s[k + 1], sign)
            letter[s] = {s[:k] + dst + s[k + 2:]: w
                         for dst, w in pair[s[k], s[k + 1]].items()}
    cols = {s: {s: XSeries.one()} for s in states}
    for v in word.letters:
        cols = _lawrence.compose(letters[v], cols)
    return cols


def tensor_trace(word, m):
    return _lawrence.GradedMatrix(
        word.n + 1, m, tensor_action(word, m)).trace()


def kohno_check(word, m_max):
    """Compare, weight by weight,

        Tr (tensor sector m, variable x^{-1})
      == (qx)^{w/2} * sum_{k <= m} Tr_{V_{n,k}}.

    The left-hand side is tensor_trace with x -> 1/x, an automorphism of
    exact series, so it equals the trace with x^{-1} in every factor.
    Returns (ok, lhs_list, rhs_list) with the exact per-weight traces."""
    stats = _braid.analyze(word)
    w = stats.writhe
    lhs = [tensor_trace(word, m).substitute_x_inverse()
           for m in range(m_max + 1)]
    graded = _lawrence.graded_trace(word, m_max)
    qx_w = XSeries.monomial(QLaurent.monomial(1, w), w)  # (qx)^{w/2}
    rhs = []
    run = XSeries.zero()
    for m in range(m_max + 1):
        run = run + graded[m]
        rhs.append(run * qx_w)
    ok = all(lhs[m] == rhs[m] for m in range(m_max + 1))
    return ok, lhs, rhs
