"""Exact rational arithmetic helpers.

The public API of every module speaks fractions.Fraction, and every
computation runs on Python ints and Fractions: the simplex tableau pivots
on integer rows (see lp_feasibility.Phase1Tableau), the metric is an int
matrix over one common denominator (see graph_core.WeightedMetricInstance),
and the LP's separation max-flow runs on ints over the master point's
common denominator (see lp_feasibility._solve_cuts).  MaxFlowNetwork itself
takes int or Fraction capacities.  No floating point anywhere.

HAVE_GMPY2 only records whether gmpy2 is importable; no module uses it.
"""

import re
from fractions import Fraction

try:
    import gmpy2  # noqa: F401

    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover
    HAVE_GMPY2 = False


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(token):
    """Parse an integer or 'p/q' token to Fraction.

    Accepts exactly [+-]?digits(/digits)? with ASCII digits and a nonzero
    denominator, so no decimal point, exponent, underscore or whitespace.
    Raises ValueError on anything else.
    """
    m = _RATIONAL.fullmatch(token)
    if m is None:
        raise ValueError(f"expected an integer or p/q, got {token!r}")
    num, den = m.groups()
    if den is None:
        return Fraction(int(num))
    den = int(den)
    if den == 0:
        raise ValueError(f"zero denominator in {token!r}")
    return Fraction(int(num), den)


def format_rational(q):
    """Render an int or Fraction exactly: integers bare, otherwise p/q."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
