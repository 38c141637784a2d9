"""One workload in one fresh Python process.

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--golden perfbench/golden.json]

`run.py` starts this with the checkout's `src/` on PYTHONPATH.  It first
times the set-up (`import flowloop` plus the lazy mirror validation paid on
first use), then runs the seeded batch in a closed loop: one caller,
serially, the next item sent when the previous one returns.  Around every
item it times a fixed pure-Python probe that shares no code with flowloop.

Untraced, it serves whole passes over the batch, as many as fit in
`--seconds` (at least one).  Traced, it takes every fourth item of the
batch plus the corpus and suite items and serves them once with the
wrappers of `tracer.py` installed, on cold caches, then once without.
Last it times the transfer DP main run and stabilization rerun apart, as
public `phi_homogeneous(..., stabilize=False)` calls.  Every output is
checked after the timed part.  The report is one JSON object on the last
line of stdout.
"""

import importlib
import os
import statistics
import sys
import time

# Typical probe time on the reference host (2-core x86-64 container,
# CPython 3.11).  Times are reported in reference-host units: each item's
# wall time is scaled by REFERENCE_PROBE_S over the mean of the probes
# timed just before and after it, which cancels the host's speed drift.
REFERENCE_PROBE_S = 0.0018


def setup():
    """Import flowloop and pay its lazy one-time validations."""
    t0 = time.perf_counter()
    fl = importlib.import_module("flowloop")
    fl.generator_matrix(2, 0, 1, -1)  # runs the lawrence mirror check
    return fl, time.perf_counter() - t0


def probe():
    """Seconds taken by a fixed sparse-polynomial product in plain Python."""
    a = {(7 * i) % 61: i + 1 for i in range(48)}
    b = {(11 * i) % 53: 2 * i - 47 for i in range(48)}
    t0 = time.perf_counter()
    for _ in range(4):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                v = out.get(e, 0) + ca * cb
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        a = {e % 61: c % 1009 + 1 for e, c in out.items()}
    return time.perf_counter() - t0


class Run:
    """Executions of one or more passes, in order."""

    def __init__(self):
        self.results = []  # (item index, output or None, error or None)
        self.latency_s = []
        self.probe_s = [probe()]  # probe_s[i] ran before execution i

    def serve(self, fl, items, run_item):
        for idx, item in enumerate(items):
            t0 = time.perf_counter()
            try:
                out, err = run_item(fl, item), None
            except Exception as exc:  # noqa: BLE001 - a failure is counted
                out, err = None, f"{type(exc).__name__}: {exc}"
            self.latency_s.append(time.perf_counter() - t0)
            self.results.append((idx, out, err))
            self.probe_s.append(probe())

    def cost_norm(self):
        """Summed item time over the summed probe time after each item."""
        return sum(self.latency_s) / sum(self.probe_s[1:])

    def normalized_s(self):
        """Latencies in reference-host seconds: each is scaled by the mean
        of the probes timed just before and just after it."""
        p = self.probe_s
        return [lat * 2 * REFERENCE_PROBE_S / (p[i] + p[i + 1])
                for i, lat in enumerate(self.latency_s)]


def measure(fl, items, seconds):
    """Serve whole passes of the batch: as many as the first pass says fit
    in `seconds` of wall time, and at least one."""
    from workloads import run_item

    run = Run()
    t0 = time.perf_counter()
    run.serve(fl, items, run_item)
    first = time.perf_counter() - t0
    passes = max(1, int(seconds // first)) if first > 0 else 1
    for _ in range(passes - 1):
        run.serve(fl, items, run_item)
    return run, passes


def check(fl, items, results, golden):
    """(failure reason or None, output digest or None) per execution.

    An execution fails if it raised, if the item's independent cross-check
    disagrees, if its output differs from the item's first execution, or if
    its digest differs from a recorded golden digest."""
    import workloads

    first = {}
    checked = {}
    rows = []
    for idx, out, err in results:
        item = items[idx]
        if err is not None:
            rows.append((err, None))
            continue
        try:
            sha = workloads.digest(workloads.render(fl, item, out))
            if idx not in checked:
                checked[idx] = workloads.cross_check(fl, item, out)
        except Exception as exc:  # noqa: BLE001 - a failure is counted
            rows.append((f"check raised {type(exc).__name__}: {exc}", None))
            continue
        want = golden.get(item.key)
        if checked[idx] is not None:
            reason = checked[idx]
        elif first.setdefault(idx, sha) != sha:
            reason = "output differs between passes"
        elif want is not None and want != sha:
            reason = "digest differs from golden"
        else:
            reason = None
        rows.append((reason, sha))
    return rows


def tail_rank(batch_size):
    """Highest of p50, p90, p99 and p99.9 with at least 10 items of one
    pass above it; fixed by the batch size, so it does not move with the
    number of passes."""
    return max(p for p in (50, 90, 99, 99.9)
               if batch_size * (1 - p / 100) >= 10)


def percentile(values, pct):
    vals = sorted(values)
    pos = (len(vals) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def uses_dp(item):
    return item.kind == "zhat" and "-" in item.braid.split(";")[1]


def dp_split(fl, items):
    """Seconds of the DP main run (cap = order) and of the stabilization
    rerun (cap = order + 2), summed over the items that use the DP."""
    main_s = rerun_s = 0.0
    for item in filter(uses_dp, items):
        word = fl.parse_braid(item.braid)
        t0 = time.perf_counter()
        fl.phi_homogeneous(word, item.order, stabilize=False)
        t1 = time.perf_counter()
        fl.phi_homogeneous(word, item.order, cap=item.order + 2,
                           stabilize=False)
        main_s += t1 - t0
        rerun_s += time.perf_counter() - t1
    return main_s, rerun_s


def traced_batch(items):
    return [it for i, it in enumerate(items)
            if it.origin in ("corpus", "suite") or i % 4 == 0]


def traced_run(fl, items, tracer_mod):
    """One pass with the wrappers installed.  The suite item runs as one
    `run_suite` call per suite, so each suite is timed apart."""
    import workloads

    suite_s = dict.fromkeys(
        (name for name in fl.suite_names() if name != "all"), 0.0)

    def run_item(fl_, item):
        if item.kind != "suite":
            return workloads.run_item(fl_, item)
        out = []
        for name in fl_.suite_names():
            if name != "all":
                t0 = time.perf_counter()
                out += fl_.run_suite(name)
                suite_s[name] += time.perf_counter() - t0
        return out

    tracer = tracer_mod.Tracer().install()
    run = Run()
    try:
        run.serve(fl, items, run_item)
    finally:
        tracer.uninstall()
    return tracer, run, suite_s


# per-layer metric name -> (target, field)
LAYER_FIELDS = {
    f"{target}.{field}": (target, field)
    for target, fields in (
        ("ring.mul_term", ("calls", "madds", "self_s")),
        ("ring.addsub", ("calls", "self_s")),
        ("ring.xs_mul", ("calls", "madds", "self_s")),
        ("ring.ql_mul", ("calls", "self_s")),
        ("ring.qtrinom", ("calls", "distinct")),
        ("ring.qbinom", ("calls", "distinct")),
        ("zhat.phi_homogeneous", ("calls", "self_s")),
        ("zhat.phi_positive", ("self_s",)),
        ("zhat.transitions", ("calls", "built")),
        ("lawrence.graded_trace", ("self_s",)),
        ("lawrence.rep_matrix", ("calls", "self_s")),
        ("lawrence.after", ("calls", "self_s")),
        ("lawrence.generator_matrix", ("calls", "distinct")),
        ("template.build", ("self_s",)),
        ("template.enumerate_orbits", ("self_s",)),
        ("template.zeta", ("self_s",)),
        ("braid.alexander", ("self_s",)),
        ("braid.analyze", ("calls",)),
        ("parallel.map", ("calls", "items")),
    )
    for field in fields
}
LAYER_FIELDS.update({
    "template.orbits": ("template.enumerate_orbits", "orbits"),
    "braid.alexander_burau_s": ("braid.alexander_burau", "total_s"),
    "braid.alexander_weight_rep_s": ("braid.alexander_weight_rep",
                                     "total_s"),
})


def layer_metrics(tracer, suite_s, item_s):
    """Per-layer values by metric name; absent targets are left out."""
    out = {}
    for name, (target, field) in LAYER_FIELDS.items():
        stat = tracer.stats.get(target)
        if stat is None:
            continue
        if field in ("calls", "self_s", "total_s"):
            out[name] = getattr(stat, field)
        elif target in tracer.broken:
            continue
        elif field == "distinct":
            out[name] = len(stat.seen)
        else:
            out[name] = stat.extra.get(field, 0)
    mul = tracer.stats.get("ring.mul_term")
    if mul is not None and "ring.mul_term" not in tracer.broken:
        out["ring.mul_term.useful_frac"] = (
            mul.extra.get("useful", 0) / mul.calls if mul.calls else 0.0
        )
    for name, secs in suite_s.items():
        out[f"verify.{name}.s"] = secs
    shares = tracer.layer_self_s()
    for layer, secs in shares.items():
        out[f"layer.{layer}.share"] = secs / item_s
    out["layer.other.share"] = 1.0 - sum(shares.values()) / item_s
    return out


def end_to_end(run, batch_size):
    """The end-to-end metrics of an untraced run, plus their raw wall-time
    readings for the report."""
    norm = run.normalized_s()
    wall = run.latency_s
    rank = tail_rank(batch_size)
    metrics = {
        "items_per_s": len(norm) / sum(norm),
        "latency_p50_ms": 1000 * percentile(norm, 50),
        "latency_tail_ms": 1000 * percentile(norm, rank),
        "cost_norm": run.cost_norm(),
    }
    raw = {
        "items_per_s": len(wall) / sum(wall),
        "latency_p50_ms": 1000 * percentile(wall, 50),
        "latency_tail_ms": 1000 * percentile(wall, rank),
    }
    return metrics, raw, rank


def main(argv=None):
    fl, setup_s = setup()
    # imported only now, so that set-up times flowloop alone
    import argparse
    import json
    import platform

    setup_probe = statistics.mean(probe() for _ in range(3))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--golden", help="JSON file of golden digests")
    args = ap.parse_args(argv)

    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    if not os.path.abspath(fl.__file__).startswith(src + os.sep):
        raise SystemExit(f"flowloop imported from {fl.__file__}, not {src}")
    report = {
        "setup_s": setup_s * REFERENCE_PROBE_S / setup_probe,
        "setup_wall_s": setup_s,
    }
    if args.setup_only:
        print(json.dumps(report))
        return 0

    import workloads

    missing = [n for n in workloads.PUBLIC_NAMES if n not in fl.__all__]
    if missing:
        raise SystemExit(f"not in flowloop.__all__: {missing}")
    golden = {}
    if args.golden:
        with open(args.golden) as fh:
            golden = json.load(fh)["digests"]
    items = workloads.batch(args.workload, args.seed)
    report.update({
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "batch": len(items),
    })

    if not args.trace:
        run, passes = measure(fl, items, args.seconds)
        report["peak_rss_mb"] = peak_rss_mb()
        metrics, raw, rank = end_to_end(run, len(items))
        report.update({
            "passes": passes,
            "metrics": metrics,
            "wall": raw,
            "tail_rank": rank,
            "samples": len(run.latency_s),
            "latency_s": run.latency_s,
            "probe_s": run.probe_s,
        })
        results = run.results
    else:
        import tracer as tracer_mod

        items = traced_batch(items)
        report["batch"] = len(items)
        tracer, traced, suite_s = traced_run(fl, items, tracer_mod)
        plain = Run()
        plain.serve(fl, items, workloads.run_item)
        main_s, rerun_s = dp_split(fl, items)
        traced_s = sum(traced.latency_s)
        per_layer = layer_metrics(tracer, suite_s, traced_s)
        per_layer.update({
            "zhat.dp_main_s": main_s,
            "zhat.dp_rerun_s": rerun_s,
            "host.probe_s": statistics.median(
                plain.probe_s + traced.probe_s),
            "trace.overhead_frac": traced.cost_norm() / plain.cost_norm() - 1,
        })
        report.update({
            "passes": 2,
            "metrics": per_layer,
            "absent": tracer.missing + sorted(tracer.broken),
            "samples": len(plain.latency_s) + len(traced.latency_s),
        })
        results = traced.results + plain.results

    rows = check(fl, items, results, golden)
    report["attempted"] = len(rows)
    report["failed"] = sum(1 for reason, _ in rows if reason is not None)
    report["failures"] = sorted({
        f"{items[idx].key}: {reason}"
        for (idx, _, _), (reason, _) in zip(results, rows)
        if reason is not None
    })
    report["items"] = [
        {"key": it.key, "origin": it.origin, "replay": it.replay()}
        for it in items
    ]
    report["digests"] = {
        items[idx].key: sha
        for (idx, _, _), (reason, sha) in zip(results, rows)
        if reason is None
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
