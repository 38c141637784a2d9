"""Serial map over independent work items, in input order.

No flowloop module calls it any more: a thread pool was slower here
because every item holds the interpreter lock.  It stays only because the
per-layer benchmark tracer (perfbench/tracer.py) names it as a target.
"""


def parallel_map(fn, items):
    return [fn(it) for it in items]
