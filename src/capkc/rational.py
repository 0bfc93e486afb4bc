"""Exact rational arithmetic and the one text layer every capkc file goes through.

The public API of every module speaks fractions.Fraction, and every
computation runs on Python ints and Fractions: the simplex tableau pivots
on integer rows (see lp_feasibility.Phase1Tableau), the metric is an int
matrix over one common denominator (see graph_core.WeightedMetricInstance),
and the LP's separation max-flow runs on ints over the master point's
common denominator (see lp_feasibility.solve_feasibility), so
MaxFlowNetwork only ever sees int capacities.  No floating point anywhere.

Every capkc file is UTF-8 text that read_text reads and write_text writes,
turning an OS or decoding error into an InputError.  records() splits text
into fields for every format ('#' starts a comment, blank lines are skipped),
and parse_int and parse_rational share one strict ASCII grammar.

HAVE_GMPY2 only records whether gmpy2 is importable; no module uses it.
"""

import re
from fractions import Fraction

from .errors import InputError

try:
    import gmpy2  # noqa: F401

    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover
    HAVE_GMPY2 = False


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def read_text(path, what):
    """The UTF-8 text of a file; InputError names `what` if it cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc


def write_text(path, text):
    """Write text to path as UTF-8; InputError if the file cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def records(text):
    """Yield (lineno, fields) per non-blank line; '#' starts a comment."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.partition("#")[0].split()
        if fields:
            yield lineno, fields


def parse_int(token):
    """Parse [+-]?digits in ASCII digits to int; ValueError on anything else."""
    if token.isascii() and token.isdigit():  # the common token, unsigned
        return int(token)
    digits = token[1:] if token[:1] in ("+", "-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected an integer, got {token!r}")
    return int(token)


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
