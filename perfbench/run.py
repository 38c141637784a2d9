#!/usr/bin/env python3
"""The flowloop benchmark: one workload, end to end or per layer.

    python3 perfbench/run.py --workload mixed-dp --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every process starts from the source in
`src/`, with FLOWLOOP_THREADS and FLOWLOOP_KERNEL removed so every commit
runs its defaults.  With `--trace 0` it times the set-up in seven fresh
processes and then serves the workload in one more; with `--trace 1` it
reports the per-layer numbers of a traced run instead.  Human-readable
lines come first; the last line of stdout is the JSON result
`{"correct", "attempted", "failed", "metrics"}`.  See perfbench/README.md.

`--record-golden` rewrites perfbench/golden.json from the default seed of
every workload; do it only on a commit whose outputs are known good.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
GOLDEN = os.path.join(HERE, "golden.json")
REMOVED_ENV = ("FLOWLOOP_THREADS", "FLOWLOOP_KERNEL")
SETUP_PROCESSES = 7
BUDGET_S = 170  # the whole run must end within this many seconds

sys.path.insert(0, HERE)
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "cost_norm": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def pinned_env():
    env = {k: v for k, v in os.environ.items() if k not in REMOVED_ENV}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def source_digest():
    """sha256 over src/flowloop/*.py, a commit id that needs no git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "flowloop")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip()


def worker(args, deadline):
    """Run worker.py in a fresh process; its report (last stdout line)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER] + args, env=pinned_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} exceeded the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload, seed, seconds, trace):
    deadline = time.monotonic() + BUDGET_S
    if not os.path.isfile(os.path.join(SRC, "flowloop", "__init__.py")):
        raise BenchError(f"no flowloop source under {SRC}")
    if workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
    setups = []
    if not trace:
        worker(["--setup-only"], deadline)  # writes the bytecode caches
        setups = [worker(["--setup-only"], deadline)
                  for _ in range(SETUP_PROCESSES)]
    cmd = ["--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if os.path.isfile(GOLDEN):
        cmd += ["--golden", GOLDEN]
    report = worker(cmd, deadline)
    metrics = dict(report["metrics"])
    if trace:
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        metrics["peak_rss_mb"] = report["peak_rss_mb"]
        units = END_TO_END
    return report, setups, metrics, units


def layer_unit(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith((".share", "_frac")):
        return "ratio"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


def describe(workload, seed, seconds, trace, report, setups, metrics, units):
    spec = workloads.WORKLOADS[workload]
    print(f"workload {workload}: {spec.why}")
    print(f"seed {seed} (default {workloads.DEFAULT_SEED}), seconds "
          f"{seconds}, trace {trace}; closed loop, 1 caller, serial")
    print(f"env: python {report['python']}, nproc {report['nproc']}, "
          f"{report['platform']}, commit {git_commit()}, "
          f"source {source_digest()}, removed {', '.join(REMOVED_ENV)}, "
          f"PYTHONHASHSEED=0")
    for it in report["items"]:
        print(f"item {it['origin']:>9} {it['replay']}")
    print(f"batch {report['batch']} items, passes {report['passes']}, "
          f"samples {report['samples']}")
    notes = {}
    if not trace:
        n = report["samples"]
        walls = ", ".join(f"{s['setup_wall_s']:.4f}" for s in setups)
        notes["setup_s"] = f"median of {len(setups)} fresh processes; " \
            f"wall {walls}"
        notes["cost_norm"] = f"{n} samples"
        for name, value in report["wall"].items():
            notes[name] = f"{n} samples, wall {value:.6g}"
        notes["latency_tail_ms"] = f"p{report['tail_rank']}, " \
            + notes["latency_tail_ms"]
    for name in sorted(metrics):
        note = notes.get(name, "")
        print(f"metric {name} = {metrics[name]:.6g} {units.get(name, '')}"
              + (f"  ({note})" if note else ""))
    if report.get("absent"):
        print(f"absent: {', '.join(report['absent'])}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"fail_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    for line in report["failures"][:20]:
        print(f"failure {line}")


def record_golden():
    digests = {}
    deadline = time.monotonic() + 600
    for name in workloads.WORKLOADS:
        rep = worker(["--workload", name, "--seed",
                      str(workloads.DEFAULT_SEED), "--seconds", "0"],
                     deadline)
        if rep["failed"]:
            raise BenchError(f"{name}: {rep['failures']}")
        digests.update(rep["digests"])
    with open(GOLDEN, "w") as fh:
        json.dump({"default_seed": workloads.DEFAULT_SEED,
                   "source": source_digest(),
                   "digests": dict(sorted(digests.items()))}, fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(digests)} digests in {GOLDEN}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.record_golden:
            record_golden()
            return 0
        report, setups, metrics, units = run(
            args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    describe(args.workload, args.seed, args.seconds, args.trace, report,
             setups, metrics, units)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": units.get(name, "")}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
