"""Seeded inputs of the flowloop benchmark and how one item is run.

A workload is a fixed list of strata plus the ROADMAP corpus items that
fit it.  `batch(name, seed)` draws the random words of every stratum from
`random.Random(f"{name}:{seed}")`, so one seed always gives one batch, and
shuffles corpus and random items together.  The program only ever sees
the generated words.

Items call the public API only (names in `flowloop.__all__`):

* "zhat"  -- `zhat(word, order)`; its output is rendered exactly as
  `flowloop zhat --braid <word> --order <order>` prints it;
* "q1"    -- `alexander_classical(word, order)` then
  `zeta_classical(word, order)`;
* "suite" -- `run_suite("all")`, rendered as `flowloop verify` prints it.
"""

import hashlib
import random
from dataclasses import dataclass

# Names of `flowloop.__all__` that the untraced benchmark uses; the worker
# refuses to run if one of them is missing from `__all__`.
PUBLIC_NAMES = (
    "alexander_classical",
    "analyze",
    "generator_matrix",
    "parse_braid",
    "phi_homogeneous",
    "render_word",
    "run_suite",
    "suite_names",
    "zeta_classical",
    "zhat",
)


@dataclass(frozen=True)
class Item:
    kind: str  # "zhat", "q1" or "suite"
    braid: str  # canonical "n=<n>; ..." text, "" for suite items
    order: int
    origin: str  # "corpus" or the stratum label

    @property
    def key(self):
        return f"{self.kind}|{self.braid}|{self.order}"

    def replay(self):
        """Shell command that recomputes this item's output."""
        if self.kind == "zhat":
            return f'flowloop zhat --braid "{self.braid}" --order {self.order}'
        if self.kind == "q1":
            return (f'flowloop alexander --braid "{self.braid}" '
                    f'--order {self.order} && flowloop orbits --braid '
                    f'"{self.braid}" --max-degree {self.order}')
        return "flowloop verify --suite all"


@dataclass(frozen=True)
class Stratum:
    label: str
    kind: str  # item kind
    n: int  # strands
    crossings: tuple  # each word draws its crossing count from these
    order: int
    signs: str  # "mixed": at least one negative column; "positive"
    count: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: tuple  # (kind, braid text, order)
    strata: tuple
    suite_items: int = 0


# Stratum counts are sized so that one pass takes about 20 s on the
# reference host and holds 260-300 items: enough that totals, the median
# and p90 move by a few percent between seeds.  The median falls inside a
# dense stratum of cheap words, never in a gap between two strata.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mixed-dp",
            "zhat through the column transfer DP: deep 3-strand and wide "
            "4/5-strand knots with a negative column",
            corpus=(
                ("zhat", "n=3; 1 -2 1 -2", 10),
                ("zhat", "n=4; 1 -2 1 -3 -2", 8),
                ("zhat", "n=3; 1 1 1 -2 1 -2", 8),
            ),
            strata=(
                Stratum("deep-3x6", "zhat", 3, (6,), 7, "mixed", 80),
                Stratum("deep-3x8", "zhat", 3, (8,), 6, "mixed", 100),
                Stratum("deep-3x4", "zhat", 3, (4,), 9, "mixed", 16),
                Stratum("wide-4x5", "zhat", 4, (5,), 4, "mixed", 50),
                Stratum("wide-4x7", "zhat", 4, (7,), 4, "mixed", 24),
                Stratum("wide-5x6", "zhat", 5, (6,), 3, "mixed", 16),
            ),
        ),
        Workload(
            "positive-trace",
            "zhat of all-positive knots through the lawrence graded "
            "traces; bypasses the transfer DP",
            corpus=(
                ("zhat", "n=2; 1 1 1", 18),
                ("zhat", "n=3; 1 1 1 2", 8),
            ),
            strata=(
                Stratum("pos-2", "zhat", 2, (5, 7, 9, 11, 13), 14,
                        "positive", 6),
                Stratum("pos-3x4", "zhat", 3, (4,), 6, "positive", 16),
                Stratum("pos-3x8", "zhat", 3, (8,), 3, "positive", 48),
                Stratum("pos-4x5", "zhat", 4, (5,), 3, "positive", 128),
                Stratum("pos-4x7", "zhat", 4, (7,), 2, "positive", 64),
                Stratum("pos-4x9", "zhat", 4, (9,), 2, "positive", 32),
            ),
        ),
        Workload(
            "q1-zeta",
            "Alexander and the template orbit zeta at q = 1, plus the "
            "verify suites",
            corpus=(
                ("q1", "n=2; 1 1 1", 8),
                ("q1", "n=3; 1 -2 1 -2", 8),
                ("q1", "n=4; 1 -2 1 -3 -2", 8),
                ("q1", "n=3; 1 1 1 -2 1 -2", 8),
            ),
            strata=(
                Stratum("q1-3x6m", "q1", 3, (6,), 8, "mixed", 80),
                Stratum("q1-3x6p", "q1", 3, (6,), 8, "positive", 80),
                Stratum("q1-4x5p", "q1", 4, (5,), 7, "positive", 32),
                Stratum("q1-4x7m", "q1", 4, (7,), 7, "mixed", 40),
                Stratum("q1-4x9m", "q1", 4, (9,), 7, "mixed", 16),
                Stratum("q1-5x6m", "q1", 5, (6,), 7, "mixed", 8),
            ),
            suite_items=1,
        ),
    )
}

DEFAULT_SEED = 1


def closes_to_knot(n, letters):
    """True when the closure of the word is a single component."""
    perm = list(range(n))
    for v in letters:
        i = abs(v) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    length, s = 1, perm[0]
    while s != 0:
        length, s = length + 1, perm[s]
    return length == n


def knot_word(rng, n, crossings, signs):
    """A random homogeneous word on n strands whose closure is a knot.

    Every column appears, column i carries the sign signs[i-1].  A knot
    closure needs c - n + 1 even (the closure permutation is an n-cycle),
    so other crossing counts are refused instead of sampled forever."""
    if crossings < n - 1 or (crossings - n + 1) % 2:
        raise ValueError(
            f"no homogeneous knot word with n={n}, c={crossings}"
        )
    while True:
        cols = list(range(1, n))
        cols += [rng.randrange(1, n) for _ in range(crossings - n + 1)]
        rng.shuffle(cols)
        letters = tuple(c * signs[c - 1] for c in cols)
        if closes_to_knot(n, letters):
            return letters


def column_signs(rng, n, mode):
    if mode == "positive":
        return (1,) * (n - 1)
    while True:
        signs = tuple(rng.choice((1, -1)) for _ in range(n - 1))
        if -1 in signs:
            return signs


def braid_text(n, letters):
    return f"n={n}; " + " ".join(str(v) for v in letters)


def batch(name, seed):
    """The items of one pass of workload `name` for `seed`."""
    spec = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    items = [Item(kind, text, order, "corpus")
             for kind, text, order in spec.corpus]
    for st in spec.strata:
        for _ in range(st.count):
            signs = column_signs(rng, st.n, st.signs)
            letters = knot_word(rng, st.n, rng.choice(st.crossings), signs)
            items.append(
                Item(st.kind, braid_text(st.n, letters), st.order, st.label)
            )
    items += [Item("suite", "", 0, "suite")] * spec.suite_items
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# running and checking one item


def run_item(fl, item):
    """Compute the item through the public API; returns the raw results."""
    if item.kind == "suite":
        return fl.run_suite("all")
    word = fl.parse_braid(item.braid)
    if item.kind == "zhat":
        return fl.zhat(word, item.order)
    delta, inv = fl.alexander_classical(word, item.order)
    return delta, inv, fl.zeta_classical(word, item.order)


def render(fl, item, out):
    """Text of the item's output (what its replay command prints)."""
    if item.kind == "suite":
        passed = sum(1 for r in out if r.ok)
        lines = [r.render() for r in out]
        lines.append(f"passed {passed}/{len(out)} checks")
        return "\n".join(lines) + "\n"
    word = fl.parse_braid(item.braid)
    if item.kind == "zhat":
        sign, qh, xh = out.prefactor
        lines = [
            f"braid: {fl.render_word(word)}",
            f"writhe: {out.stats.writhe}",
            f"prefactor: {sign} * q^({qh}/2) * x^({xh}/2)",
            f"phi: {out.phi.render(tail=True)}",
            f"zhat: {out.zhat.render(tail=True)}",
        ]
        lines += [f"note: {note}" for note in out.notes]
        return "\n".join(lines) + "\n"
    delta, inv, zeta = out
    lines = [
        f"braid: {fl.render_word(word)}",
        f"writhe: {fl.analyze(word).writhe}",
        f"Delta: {delta.render()}",
        f"inverse: {inv.render(tail=True)}",
        f"zeta: {zeta.render(tail=True)}",
    ]
    return "\n".join(lines) + "\n"


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def cross_check(fl, item, out):
    """None if the independent route agrees, else a one-line reason."""
    if item.kind == "suite":
        bad = [f"{r.suite}.{r.name}" for r in out if not r.ok]
        return f"verify checks failed: {bad}" if bad else None
    if item.kind == "q1":
        _, inv, zeta = out
        return None if zeta == inv else "zeta != (1-x)/Delta"
    word = fl.parse_braid(item.braid)
    _, inv = fl.alexander_classical(word, item.order)
    if out.phi.specialize_q1() != inv:
        return "Phi at q = 1 != (1-x)/Delta"
    return None
