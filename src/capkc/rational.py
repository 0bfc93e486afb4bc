"""Exact rational arithmetic helpers.

The public API of every module speaks fractions.Fraction, and every
computation runs on Python ints and Fractions: the simplex tableau pivots
on integer rows (see lp_feasibility.Phase1Tableau), the metric is an int
matrix over one common denominator (see graph_core.WeightedMetricInstance),
and max-flow augments over the int and Fraction capacities its callers give
it.  No floating point anywhere.

HAVE_GMPY2 only records whether gmpy2 is importable; no module uses it.
as_fraction still accepts gmpy2's mpq, so values built from either type
normalize to Fraction.
"""

from fractions import Fraction

try:
    import gmpy2  # noqa: F401

    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover
    HAVE_GMPY2 = False

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(q):
    """Normalize any exact rational (mpq, int, Fraction) to Fraction.

    Fractions built from mpq parts can carry mpz internals, which leak
    into mixed arithmetic later; rebuild those on plain ints too.
    """
    if isinstance(q, Fraction):
        if isinstance(q.numerator, int) and isinstance(q.denominator, int):
            return q
        return Fraction(int(q.numerator), int(q.denominator))
    if isinstance(q, int):
        return Fraction(q)
    return Fraction(int(q.numerator), int(q.denominator))


def parse_rational(token):
    """Parse 'p/q' or integer text to Fraction.  Raises ValueError on junk."""
    return Fraction(token)


def format_rational(q):
    """Render exactly: integers without denominator, otherwise p/q."""
    q = as_fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
