"""The exact rational grammar every reader shares: [+-]?digits(/digits)?."""

from fractions import Fraction

import pytest

from capkc.rational import format_rational, parse_rational


@pytest.mark.parametrize(
    "token, value",
    [
        ("0", Fraction(0)),
        ("7", Fraction(7)),
        ("-7", Fraction(-7)),
        ("+7", Fraction(7)),
        ("007", Fraction(7)),
        ("3/2", Fraction(3, 2)),
        ("-6/4", Fraction(-3, 2)),
        ("+0/5", Fraction(0)),
    ],
)
def test_accepts_integers_and_p_over_q(token, value):
    q = parse_rational(token)
    assert type(q) is Fraction and q == value


@pytest.mark.parametrize(
    "token",
    [
        "", "+", "-", "/", "1/", "/2", "1/-2", "1/+2", "1//2", "1/2/3",
        "1e3", "1E3", "1.5", ".5", "1.", "1_000", "1/0", "-3/0", "0x10",
        " 1", "1 ", "\u0661", "\uff11", "inf", "nan", "1/2 ",
    ],
)
def test_rejects_everything_else_with_value_error(token):
    with pytest.raises(ValueError):
        parse_rational(token)


def test_format_round_trips():
    for q in [Fraction(0), Fraction(5), Fraction(-5, 3), Fraction(22, 7)]:
        assert parse_rational(format_rational(q)) == q
