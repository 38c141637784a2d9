import os
import sys

import pytest

from flowloop import QLaurent, XSeries

# the standing corpus: every braid word the suite must handle end to end
CORPUS = ("1", "1 1 1", "1 -2 1 -2", "1 1 1 2", "n=4; 1 -2 1 -3 -2")
# two >= 5-crossing knots beyond the corpus (a torus knot, a genus-2 knot)
EXTRA_KNOTS = ("1 1 1 1 1", "1 1 1 -2 1 -2")
# the all-positive words of both, the ones the graded-trace route takes
POSITIVE_KNOTS = tuple(w for w in CORPUS + EXTRA_KNOTS if "-" not in w)


def benchmark_batch(name, seed):
    """The items of one pass of the benchmark workload `name` for `seed`,
    as perfbench/workloads.py draws them."""
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                    "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads.batch(name, seed)


def ql(terms):
    """QLaurent from {half_exponent: coeff}."""
    return QLaurent(terms)


def xs(terms, trunc=None):
    """XSeries from {x_half: {q_half: coeff}}."""
    return XSeries({x: QLaurent(q) for x, q in terms.items()}, trunc)


@pytest.fixture
def announce(request):
    """Write a line through the terminal reporter so it survives capture."""
    reporter = request.config.pluginmanager.getplugin("terminalreporter")

    def _announce(line):
        if reporter is not None:
            reporter.write_line(line)
        else:  # pragma: no cover - plain python fallback
            print(line)

    return _announce
