import pytest

from flowloop import QLaurent, XSeries

# the standing corpus: every braid word the suite must handle end to end
CORPUS = ("1", "1 1 1", "1 -2 1 -2", "1 1 1 2", "n=4; 1 -2 1 -3 -2")
# two >= 5-crossing knots beyond the corpus (a torus knot, a genus-2 knot)
EXTRA_KNOTS = ("1 1 1 1 1", "1 1 1 -2 1 -2")


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
