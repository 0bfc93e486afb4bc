"""Exact rational arithmetic helpers.

The public API of every module speaks fractions.Fraction, and every
computation runs on Python ints and Fractions: the simplex tableau pivots
on integer rows (see lp_feasibility.Phase1Tableau), the metric is an int
matrix over one common denominator (see graph_core.WeightedMetricInstance),
and max-flow augments over the int and Fraction capacities its callers give
it.  No floating point anywhere.

HAVE_GMPY2 only records whether gmpy2 is importable; no module uses it.
"""

from fractions import Fraction

try:
    import gmpy2  # noqa: F401

    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover
    HAVE_GMPY2 = False


def parse_rational(token):
    """Parse 'p/q' or integer text to Fraction.  Raises ValueError on junk."""
    return Fraction(token)


def format_rational(q):
    """Render an int or Fraction exactly: integers bare, otherwise p/q."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
