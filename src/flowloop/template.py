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
Delta(x) (1 - x^n).  enumerate_orbits still lists the orbits themselves,
for the `orbits` command and as the test oracle of the determinant.
"""

from dataclasses import dataclass

from . import braid as _braid
from .errors import InputError, VerificationError
from .ring import QLaurent, XSeries


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
        self.by_id = {s.sid: s for s in self.strips}
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
        if k == a:
            break
        out.append(k)
        k = (k + 1) % c
    return out


def build_template(word):
    stats = _braid.analyze(word)
    if not stats.is_homogeneous:
        raise InputError(
            f"braid word {_braid.render_word(word)} is not homogeneous"
        )
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


def enumerate_orbits(template, max_degree):
    """All primitive closed orbits of degree <= max_degree, canonically
    rotated, sorted by (degree, length, strip word).

    The search allows revisiting branch lines and strips; it terminates
    because only leftward sheds are free and those strictly decrease the
    column, so every cycle pays at least one unit of degree per n-1 steps.
    """
    if max_degree < 0:
        raise InputError("max_degree must be >= 0")
    strips = template.strips
    by_src = template.by_src
    found = {}

    def record(seq, deg, twists):
        if seq != _minimal_rotation(seq) or not _is_primitive(seq):
            return
        if deg == 0:
            raise VerificationError(_free_cycle_message(template))
        found[seq] = Orbit(
            tuple(strips[k].sid for k in seq),
            deg,
            -1 if twists % 2 else 1,
        )

    def dfs(first, cur, path, deg, twists, zero_run):
        for nxt_idx, nxt in by_src.get(cur, ()):
            if nxt_idx < first:
                continue
            ndeg = deg + nxt.mark
            if ndeg > max_degree:
                continue
            if nxt.mark == 0 and zero_run >= template.n - 2:
                continue  # structurally impossible; cheap guard
            path.append(nxt_idx)
            if nxt.dst == strips[first].src:
                record(tuple(path), ndeg, twists + nxt.twist)
            dfs(first, nxt.dst, path, ndeg, twists + nxt.twist,
                0 if nxt.mark else zero_run + 1)
            path.pop()

    for idx, s in enumerate(strips):
        if s.mark > max_degree:
            continue
        if s.dst == s.src:
            record((idx,), s.mark, 1 if s.twist else 0)
        dfs(idx, s.dst, [idx], s.mark, 1 if s.twist else 0,
            0 if s.mark else 1)

    return sorted(
        found.values(), key=lambda o: (o.degree, len(o.strips), o.strips)
    )


def _free_cycle_message(template):
    return ("degree-zero closed orbit in the template of "
            + _braid.render_word(template.word))


def _check_no_free_cycle(template):
    """Raise VerificationError if the mark-0 strips contain a cycle.

    Such a cycle is a degree-zero closed orbit, whose geometric series
    has no x-adic meaning.  Without one the mark-0 part of A(x) is
    nilpotent, which pins the constant term of det(I - A(x)) to 1.
    """
    indegree = [0] * template.branch_count
    for s in template.strips:
        if s.mark == 0:
            indegree[s.dst] += 1
    ready = [v for v, d in enumerate(indegree) if d == 0]
    peeled = 0
    while ready:
        v = ready.pop()
        peeled += 1
        for _, s in template.by_src.get(v, ()):
            if s.mark == 0:
                indegree[s.dst] -= 1
                if indegree[s.dst] == 0:
                    ready.append(s.dst)
    if peeled < template.branch_count:
        raise VerificationError(_free_cycle_message(template))


def zeta_matrix(template):
    """I - A(x) over branch lines; entries are QLaurent polynomials whose
    exponents count halves of x."""
    k = template.branch_count
    mat = [[QLaurent.one() if r == c else QLaurent.zero() for c in range(k)]
           for r in range(k)]
    for s in template.strips:
        weight = QLaurent.monomial(-1 if s.twist else 1, 2 * s.mark)
        mat[s.src][s.dst] = mat[s.src][s.dst] - weight
    return mat


def zeta_denominator(template):
    """det(I - A(x)) as an exact polynomial in x, with constant term 1."""
    _check_no_free_cycle(template)
    return _braid._det(zeta_matrix(template))


def zeta_classical(word, order):
    """(1 - x^n) * prod over primitive orbits of (1 - sign x^deg)^{-1},
    computed as (1 - x^n)/det(I - A(x)) and truncated at x^order; equals
    the q = 1 loop count of the closure."""
    if order < 0:
        raise InputError("order must be >= 0")
    template = build_template(word)
    det = zeta_denominator(template)
    trunc = 2 * order + 1
    axis = XSeries({0: 1, 2 * template.n: -1}, trunc)
    return (axis * XSeries(det.terms).inverse(trunc)).specialize_q1()
