"""Per-layer tracing of flowloop from outside the package.

Every wrapper is installed from the one table `TARGETS`.  A target names
its metric prefix, its layer and a list of candidate locations
("module", "Class.attr" or "attr"); the first location that resolves is
wrapped.  Besides the attribute itself, every other binding of the same
function object in a `flowloop` module or class is replaced as well, so
names imported by value (`zhat.qtrinom`, `lawrence.qtrinom`,
`verify.phi_homogeneous`, the re-exports in `flowloop`) are traced too.
A target that resolves nowhere is skipped and its metrics are reported
as absent; it never stops the run.

A wrapper records calls, inclusive time and self time (inclusive time
minus the time of traced calls made inside it), plus the extra counters
of its observer.  `uninstall` puts every original binding back.
"""

import importlib
import sys
import time

_clock = time.perf_counter


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "extra", "seen")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.extra = {}
        self.seen = set()

    def add(self, name, amount=1):
        self.extra[name] = self.extra.get(name, 0) + amount


# -- observers: (before, after) hooks.  `before(tracer, stat, args, kwargs)`
# runs ahead of the call; its value is handed to `after`, unless it is a
# Rebind, which replaces the call's arguments.  A hook that raises disables
# itself and its counters go missing instead of breaking the run.


def _terms(q):
    """The {exp: coeff} dict of a QLaurent or an int."""
    if isinstance(q, int):
        return {0: q} if q else {}
    return q.terms


def _mul_term_after(stat, args, kwargs, result, _):
    series, qcoeff, x_half = args[0], args[1], args[2]
    trunc = series.trunc
    width = len(_terms(qcoeff))
    stat.add("madds", width * sum(
        len(q.terms) for x, q in series.terms.items()
        if trunc is None or x + x_half <= trunc
    ))
    if not result.is_zero:
        stat.add("useful")


def _xs_mul_after(stat, args, kwargs, result, _):
    a, b, tmax = args[0], args[1], args[2]
    stat.add("madds", sum(
        len(qa) * len(qb)
        for xa, qa in a.items() for xb, qb in b.items()
        if tmax is None or xa + xb <= tmax
    ))


def _distinct_after(stat, args, kwargs, result, _):
    stat.seen.add((args, tuple(sorted(kwargs.items()))))


def _transitions_before(tracer, stat, args, kwargs):
    key, cache = args[0], args[1]
    return key not in cache


def _transitions_after(stat, args, kwargs, result, built):
    if built:
        stat.add("built")


def _orbits_after(stat, args, kwargs, result, _):
    stat.add("orbits", len(result))


class Rebind:
    """Returned by a `before` hook to call the target with other arguments."""

    def __init__(self, args, kwargs):
        self.args = args
        self.kwargs = kwargs


def _parallel_before(tracer, stat, args, kwargs):
    """Run the mapped function as a span of the caller's layer: the work a
    pool does belongs to the code that handed it over, not to the pool."""
    fn, rest = args[0], args[1:]
    owner = tracer.caller_stat()
    if owner is None:
        return None

    def mapped(*a, **k):
        return tracer._span(owner, fn, a, k, own=False)

    return Rebind((mapped,) + rest, kwargs)


def _parallel_after(stat, args, kwargs, result, _):
    stat.add("items", len(result))


# metric prefix, layer, candidate locations, (before, after) hooks
TARGETS = (
    ("ring.ql_mul", "ring",
     (("flowloop._kernel", "active.ql_mul"), ("flowloop.ring", "ql_mul")),
     None),
    ("ring.xs_mul", "ring",
     (("flowloop._kernel", "active.xs_mul"), ("flowloop.ring", "xs_mul")),
     (None, _xs_mul_after)),
    ("ring.mul_term", "ring", (("flowloop.ring", "XSeries.mul_term"),),
     (None, _mul_term_after)),
    ("ring.addsub", "ring", (("flowloop.ring", "XSeries._addsub"),), None),
    ("ring.qtrinom", "ring", (("flowloop.ring", "qtrinom"),),
     (None, _distinct_after)),
    ("ring.qbinom", "ring", (("flowloop.ring", "qbinom"),),
     (None, _distinct_after)),
    ("zhat.zhat", "zhat", (("flowloop.zhat", "zhat"),), None),
    ("zhat.phi_homogeneous", "zhat",
     (("flowloop.zhat", "phi_homogeneous"),), None),
    ("zhat.phi_positive", "zhat", (("flowloop.zhat", "phi_positive"),),
     None),
    ("zhat.transitions", "zhat", (("flowloop.zhat", "_transitions"),),
     (_transitions_before, _transitions_after)),
    ("lawrence.graded_trace", "lawrence",
     (("flowloop.lawrence", "graded_trace"),), None),
    ("lawrence.rep_matrix", "lawrence",
     (("flowloop.lawrence", "rep_matrix"),), None),
    ("lawrence.after", "lawrence",
     (("flowloop.lawrence", "GradedMatrix.after"),), None),
    ("lawrence.generator_matrix", "lawrence",
     (("flowloop.lawrence", "generator_matrix"),), (None, _distinct_after)),
    ("braid.alexander", "braid",
     (("flowloop.braid", "alexander_classical"),), None),
    ("braid.alexander_burau", "braid",
     (("flowloop.braid", "_alexander_burau"),), None),
    ("braid.alexander_weight_rep", "braid",
     (("flowloop.braid", "_alexander_weight_rep"),), None),
    ("braid.analyze", "braid", (("flowloop.braid", "analyze"),), None),
    ("template.build", "template",
     (("flowloop.template", "build_template"),), None),
    ("template.enumerate_orbits", "template",
     (("flowloop.template", "enumerate_orbits"),), (None, _orbits_after)),
    ("template.zeta", "template",
     (("flowloop.template", "zeta_classical"),), None),
    ("verify.run_suite", "verify", (("flowloop.verify", "run_suite"),),
     None),
    ("parallel.map", "parallel",
     (("flowloop._parallel", "parallel_map"),),
     (_parallel_before, _parallel_after)),
)

LAYERS = ("ring", "zhat", "lawrence", "braid", "template", "verify",
          "parallel")


def _resolve(module_name, path):
    """(owner, attribute name, function) or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    return (owner, attr, fn) if callable(fn) else None


def _bindings(fn):
    """Every (owner, name) in flowloop modules and classes bound to fn."""
    out = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "flowloop"
                               or mod_name.startswith("flowloop.")):
            continue
        for owner in [mod] + [
            v for v in vars(mod).values()
            if isinstance(v, type) and v.__module__ == mod_name
        ]:
            for name, value in list(vars(owner).items()):
                if value is fn:
                    out.append((owner, name))
    return out


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats = {}
        self.layer_of = {}
        self.missing = []
        self.broken = set()  # targets whose observer raised
        self._stack = []  # [time inside traced children, Stat] per open span
        self._undo = []

    def _span(self, stat, fn, args, kwargs, own=True):
        """Call fn as a span whose self time goes to stat; `own` spans also
        count a call and inclusive time."""
        stack = self._stack
        stack.append([0.0, stat])
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = _clock() - t0
            stat.self_s += dt - stack.pop()[0]
            if own:
                stat.calls += 1
                stat.total_s += dt
            if stack:
                stack[-1][0] += dt

    def _wrap(self, name, fn, hooks):
        stat = self.stats[name]
        before, after = hooks or (None, None)
        broken = self.broken
        span = self._span

        def traced(*args, **kwargs):
            state = None
            if before is not None and name not in broken:
                try:
                    state = before(self, stat, args, kwargs)
                except Exception:  # noqa: BLE001 - see module docstring
                    broken.add(name)
                if isinstance(state, Rebind):
                    args, kwargs, state = state.args, state.kwargs, None
            result = span(stat, fn, args, kwargs)
            if after is not None and name not in broken:
                try:
                    after(stat, args, kwargs, result, state)
                except Exception:  # noqa: BLE001 - see module docstring
                    broken.add(name)
            return result

        traced.__wrapped__ = fn
        return traced

    def caller_stat(self):
        """Stat of the innermost open span, or None at top level."""
        return self._stack[-1][1] if self._stack else None

    def install(self):
        for name, layer, locations, hooks in self.targets:
            found = None
            for module_name, path in locations:
                found = _resolve(module_name, path)
                if found is not None:
                    break
            if found is None:
                self.missing.append(name)
                continue
            owner, attr, fn = found
            self.stats[name] = Stat()
            self.layer_of[name] = layer
            wrapper = self._wrap(name, fn, hooks)
            sites = _bindings(fn)
            if (owner, attr) not in sites:
                sites.append((owner, attr))
            for site, site_attr in sites:
                self._undo.append((site, site_attr, fn))
                setattr(site, site_attr, wrapper)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def layer_self_s(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for name, stat in self.stats.items():
            layer = self.layer_of[name]
            out[layer] = out.get(layer, 0.0) + stat.self_s
        return out
