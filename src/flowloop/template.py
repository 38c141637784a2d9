"""Branched-surface model of the flow at q = 1.

The return map of the open-book flow of a homogeneous closure is carried
by a template: one branch line per crossing, and one strip per way the
flow can travel from a branch line to the next one it hits.  Concretely,
reading the word bottom to top with levels 0..c-1:

* every crossing sends a through-strip to the next crossing of its own
  column (upward for positive columns, downward for negative ones, both
  cyclic); the through-strip carries the twist and one unit of degree;
* between a crossing and its own-column successor, every crossing of an
  adjacent column sitting strictly inside that window receives a shed
  strip.  A shed to the right (column j -> j+1) costs one unit of degree,
  a shed to the left is free.

Closed orbits of the semiflow = cyclic strip words (repeats allowed).
An orbit's sign is (-1)^(number of twisted strips), its degree the total
mark.  The classical zeta function

    zeta = (1 - x^n) * prod_{primitive orbits} (1 - sign x^deg)^(-1)

collapses to (1 - x)/Delta(x), which is what the q = 1 specialization of
the loop count must produce; the test suite checks both equalities.

Sign and degree are multiplicative along an orbit, so by Bowen-Lanford
(1970) the orbit product is 1/det(I - A(x)), where A(x) is the strip
digraph's adjacency matrix on branch lines with

    A[src][dst] = sum over strips src -> dst of (-1)^twist x^mark,

and zeta_classical computes

    zeta = (1 - x^n) / det(I - A(x))

without listing a single orbit.  Exactly, det(I - A(x)) (1 - x) =
Delta(x) (1 - x^n).  I - A(x) is a matrix of raw {x_half: int} tables,
one ring.ql_add_into per strip.  The determinant is braid._det, which
packs each entry into one integer by Kronecker substitution, eliminates
in Z and decodes the result under a coefficient bound proven from the
entries; the quotient is braid._axis_quotient, the integer power-series
recurrence the Alexander route also uses, which refuses an order past
braid.Q1_WORK_LIMIT.
enumerate_orbits still lists the orbits themselves, for the `orbits`
command and as the test oracle of the determinant.  It refuses what the
zeta refuses, a cycle of mark-0 strips (_check_no_free_cycle, which also
measures the longest mark-0 path), and its depth-first search refuses a
max_degree whose strip words would be longer than ORBIT_DEPTH_LIMIT, or
whose primitive orbits, counted exactly from det(I - |A|(x)) with every
sign +1 (_orbit_counts), are more than ORBIT_COUNT_LIMIT.
"""

from dataclasses import dataclass

from . import braid as _braid
from .errors import InputError, VerificationError, require_nonnegative
from .ring import ql_add_into


@dataclass(frozen=True)
class Strip:
    sid: str
    src: int  # crossing level, 0-based
    dst: int
    mark: int  # degree carried: 1 for through/rightward, 0 for leftward
    twist: bool


@dataclass(frozen=True)
class Orbit:
    strips: tuple  # strip ids, canonical (lexicographically minimal) rotation
    degree: int
    sign: int

    def render(self):
        return f"{self.degree} {'+' if self.sign > 0 else '-'} " \
               + " ".join(self.strips)


class Template:
    def __init__(self, word, strips):
        self.word = word
        self.n = word.n
        self.strips = tuple(strips)
        self.by_src = {}  # branch line -> [(strip index, strip)], in order
        for idx, s in enumerate(self.strips):
            self.by_src.setdefault(s.src, []).append((idx, s))

    @property
    def branch_count(self):
        return len(self.word.letters)

    @property
    def nullity(self):
        """Cycle rank of the strip digraph (edges - vertices + components)."""
        verts = set(range(self.branch_count))
        adj = {v: set() for v in verts}
        for s in self.strips:
            adj[s.src].add(s.dst)
            adj[s.dst].add(s.src)
        seen, comps = set(), 0
        for v in verts:
            if v in seen:
                continue
            comps += 1
            stack = [v]
            while stack:
                u = stack.pop()
                if u in seen:
                    continue
                seen.add(u)
                stack.extend(adj[u] - seen)
        return len(self.strips) - len(verts) + comps

    def dump(self):
        lines = []
        for s in self.strips:
            succ = " ".join(t.sid for _, t in self.by_src.get(s.dst, ()))
            flags = " [twist]" if s.twist else ""
            lines.append(
                f"strip {s.sid}{flags} [mark {s.mark}] : {succ}"
            )
        return "\n".join(lines)


def _cyclic_open(a, b, c):
    """Levels strictly between a and b walking upward mod c; a == b means
    the whole circle minus the point."""
    out = []
    k = (a + 1) % c
    while k != b:
        out.append(k)
        k = (k + 1) % c
    return out


def build_template(word):
    _braid.require_homogeneous(word)
    letters = word.letters
    c = len(letters)
    cols = [abs(v) for v in letters]
    own = {}
    for lvl, col in enumerate(cols):
        own.setdefault(col, []).append(lvl)
    strips = []
    for lvl, v in enumerate(letters):
        col = abs(v)
        ring = own[col]
        pos = ring.index(lvl)
        if v > 0:
            mate = ring[(pos + 1) % len(ring)]
            window = _cyclic_open(lvl, mate, c)
        else:
            mate = ring[(pos - 1) % len(ring)]
            window = _cyclic_open(mate, lvl, c)
        strips.append(
            Strip(f"T{lvl + 1}", lvl, mate, 1, True)
        )
        for lvl2 in window:
            col2 = cols[lvl2]
            if col2 == col + 1:
                strips.append(
                    Strip(f"S{lvl + 1}_{lvl2 + 1}", lvl, lvl2, 1, False)
                )
            elif col2 == col - 1:
                strips.append(
                    Strip(f"S{lvl + 1}_{lvl2 + 1}", lvl, lvl2, 0, False)
                )
    return Template(word, strips)


def _minimal_rotation(seq):
    best = seq
    for k in range(1, len(seq)):
        cand = seq[k:] + seq[:k]
        if cand < best:
            best = cand
    return best


def _is_primitive(seq):
    k = len(seq)
    for p in range(1, k):
        if k % p == 0 and seq == seq[:p] * (k // p):
            return False
    return True


# The orbit search recurses once per strip of the word it extends, so the
# longest strip word it may build stays at half of CPython's default
# recursion limit (1000), leaving room for the caller's frames.
ORBIT_DEPTH_LIMIT = 500
# The search spends about 20 us per orbit it lists, so it refuses a
# max_degree with more primitive orbits than this (about 2 s of search)
# before it starts.  The CI corpus at degree 8 has at most 6,775.
ORBIT_COUNT_LIMIT = 10 ** 5


def _orbit_counts(template, max_degree):
    """[p_0, ..., p_max_degree]: p_d primitive closed orbits of degree d,
    from det(I - |A|(x)) alone, |A| the strip adjacency with every sign +1.

    By Bowen-Lanford, 1/P(x) = prod over primitive orbits of
    1/(1 - x^deg) for P = det(I - |A|(x)), so -x P'/P = sum_d c_d x^d with
    c_d = sum_{e | d} e p_e, and Moebius inversion gives each p_d from c_d
    and the p_e of the proper divisors e of d.  P has constant term 1
    (_check_no_free_cycle), so -x P'/P is an integer power series."""
    poly = [0] * (max_degree + 1)
    det = _braid._det(zeta_matrix(template, signed=False))
    for x_half, coeff in det.terms.items():
        if x_half // 2 <= max_degree:
            poly[x_half // 2] = coeff
    series = [0] * (max_degree + 1)  # -x P'/P, c_d at index d
    primitive = [0] * (max_degree + 1)
    for d in range(1, max_degree + 1):
        series[d] = -d * poly[d] - sum(poly[j] * series[d - j]
                                       for j in range(1, d))
        rest = series[d] - sum(e * primitive[e] for e in range(1, d)
                               if d % e == 0)
        primitive[d], left = divmod(rest, d)
        if left:
            raise VerificationError(
                f"orbit count of degree {d} is not whole in the template of "
                + _braid.render_word(template.word))
    return primitive


def enumerate_orbits(template, max_degree):
    """All primitive closed orbits of degree <= max_degree, canonically
    rotated, sorted by (degree, length, strip word).

    The search allows revisiting branch lines and strips.  It first refuses
    a template whose mark-0 strips close a cycle (_check_no_free_cycle), as
    the zeta does; without one, a run of free strips has at most L strips,
    L the longest mark-0 path, so a strip word of degree <= max_degree has
    at most (max_degree + 1)(L + 1) strips and the search terminates.  In a
    built template only leftward sheds are free and those strictly
    decrease the column, so L <= n - 2.  Above ORBIT_DEPTH_LIMIT strips,
    counting (max_degree + 1) max(n - 1, L + 1), past ORBIT_COUNT_LIMIT
    primitive orbits, or past braid.Q1_WORK_LIMIT to count them
    (_orbit_counts), the search is refused with an InputError first.
    """
    require_nonnegative(max_degree=max_degree)
    free_run = _check_no_free_cycle(template)
    longest = (max_degree + 1) * max(template.n - 1, free_run + 1)
    if longest > ORBIT_DEPTH_LIMIT:
        raise InputError(
            f"max_degree {max_degree} allows strip words of "
            f"{longest} strips on {template.n} strands, past the orbit "
            f"search depth limit of {ORBIT_DEPTH_LIMIT} strips"
        )
    try:
        counts = _orbit_counts(template, max_degree)
    except InputError as exc:
        raise InputError(f"{exc} in {_braid.render_word(template.word)} "
                         f"at max_degree {max_degree}") from exc
    listed = 0
    for degree, count in enumerate(counts):
        if listed + count > ORBIT_COUNT_LIMIT:
            raise InputError(
                f"max_degree {max_degree} has more primitive orbits than "
                f"the orbit count limit of {ORBIT_COUNT_LIMIT}; max_degree "
                f"{degree - 1} has {listed}"
            )
        listed += count
    strips = template.strips
    by_src = template.by_src
    found = {}

    def record(seq, deg, twists):
        if seq != _minimal_rotation(seq) or not _is_primitive(seq):
            return
        found[seq] = Orbit(
            tuple(strips[k].sid for k in seq),
            deg,
            -1 if twists % 2 else 1,
        )

    def dfs(first, cur, path, deg, twists):
        for nxt_idx, nxt in by_src.get(cur, ()):
            if nxt_idx < first:
                continue
            ndeg = deg + nxt.mark
            if ndeg > max_degree:
                continue
            path.append(nxt_idx)
            if nxt.dst == strips[first].src:
                record(tuple(path), ndeg, twists + nxt.twist)
            dfs(first, nxt.dst, path, ndeg, twists + nxt.twist)
            path.pop()

    for idx, s in enumerate(strips):
        if s.mark > max_degree:
            continue
        if s.dst == s.src:
            record((idx,), s.mark, 1 if s.twist else 0)
        dfs(idx, s.dst, [idx], s.mark, 1 if s.twist else 0)

    return sorted(
        found.values(), key=lambda o: (o.degree, len(o.strips), o.strips)
    )


def _check_no_free_cycle(template):
    """The most strips on a path of mark-0 strips; VerificationError if
    the mark-0 strips contain a cycle.

    Such a cycle is a degree-zero closed orbit, whose geometric series
    has no x-adic meaning.  Without one the mark-0 part of A(x) is
    nilpotent, which pins the constant term of det(I - A(x)) to 1.  The
    peel visits branch lines in topological order of the mark-0 strips,
    so each line's longest incoming mark-0 path is final when it is
    visited.
    """
    indegree = [0] * template.branch_count
    for s in template.strips:
        if s.mark == 0:
            indegree[s.dst] += 1
    ready = [v for v, d in enumerate(indegree) if d == 0]
    run = [0] * template.branch_count  # longest mark-0 path ending here
    peeled = 0
    while ready:
        v = ready.pop()
        peeled += 1
        for _, s in template.by_src.get(v, ()):
            if s.mark == 0:
                run[s.dst] = max(run[s.dst], run[v] + 1)
                indegree[s.dst] -= 1
                if indegree[s.dst] == 0:
                    ready.append(s.dst)
    if peeled < template.branch_count:
        raise VerificationError(
            "degree-zero closed orbit in the template of "
            + _braid.render_word(template.word))
    return max(run, default=0)


def zeta_matrix(template, signed=True):
    """I - A(x) over branch lines, as {x_half: int} tables (exponents
    count halves of x); unsigned, I - |A|(x) with every strip sign +1."""
    k = template.branch_count
    mat = [[{0: 1} if r == c else {} for c in range(k)] for r in range(k)]
    for s in template.strips:
        ql_add_into(mat[s.src][s.dst], {2 * s.mark: 1},
                    1 if signed and s.twist else -1)
    return mat


def zeta_denominator(template):
    """det(I - A(x)) as an exact polynomial in x, with constant term 1."""
    _check_no_free_cycle(template)
    return _braid._det(zeta_matrix(template))


def zeta_classical(word, order):
    """(1 - x^n) * prod over primitive orbits of (1 - sign x^deg)^{-1},
    computed as (1 - x^n)/det(I - A(x)) and truncated at x^order; equals
    the q = 1 loop count of the closure.  An order or a determinant whose
    work passes braid.Q1_WORK_LIMIT raises InputError."""
    require_nonnegative(order=order)
    template = build_template(word)
    try:  # _det names neither the word nor the order
        denominator = zeta_denominator(template).terms
    except InputError as exc:
        raise InputError(f"{exc} in {_braid._where(word, order)}") from exc
    try:
        return _braid._axis_quotient(template.n, denominator, order)
    except VerificationError as exc:
        raise VerificationError(
            f"{exc} in {_braid._where(word, order)}") from exc
