"""Serial map over independent work items, in input order.

A thread pool was slower here because every item holds the interpreter
lock.  The module stays as the one place the per-layer benchmark tracer
hooks to attribute mapped work to its caller.
"""


def parallel_map(fn, items):
    return [fn(it) for it in items]
