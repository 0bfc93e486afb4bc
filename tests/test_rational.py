"""The text layer every reader shares: [+-]?digits(/digits)?, fields, files."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capkc.errors import InputError
from capkc.rational import (
    format_rational, parse_int, parse_rational, read_text, records, write_text
)


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


@pytest.mark.parametrize("token, value", [("0", 0), ("-3", -3), ("+7", 7), ("007", 7)])
def test_parse_int_accepts_signed_ascii_digits(token, value):
    got = parse_int(token)
    assert type(got) is int and got == value


@pytest.mark.parametrize(
    "token",
    ["", "+", "1_0", "\u0661", "\u0663", "\uff11", "\u00b2", "1\u00b2", "1/1", "1.0", "1e3",
     " 1", "1 ", "0x10"],
)
def test_parse_int_rejects_everything_else_with_value_error(token):
    with pytest.raises(ValueError, match="expected an integer"):
        parse_int(token)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.text(st.sampled_from("0189+-/._e \u0663\u00b2\uff11"), max_size=4))
def test_parse_int_accepts_exactly_the_signed_ascii_digits(token):
    # the unsigned fast path must refuse what the grammar refuses
    if re.fullmatch("[+-]?[0-9]+", token):
        assert parse_int(token) == int(token)
    else:
        with pytest.raises(ValueError, match="expected an integer"):
            parse_int(token)


def test_records_cut_comments_and_skip_blank_lines():
    text = "# head\n\n  a 1  # x # y\nb\t2#z\n   \n#\nc\n"
    assert list(records(text)) == [(3, ["a", "1"]), (4, ["b", "2"]), (7, ["c"])]


def test_text_files_are_utf8_and_failures_are_input_errors(tmp_path):
    path = tmp_path / "f.txt"
    write_text(path, "v 0 1  # caf\u00e9\n")
    assert path.read_bytes() == b"v 0 1  # caf\xc3\xa9\n"
    assert read_text(path, "instance") == "v 0 1  # caf\u00e9\n"
    path.write_bytes(b"v 0 1 \xff\n")
    with pytest.raises(InputError, match="cannot read instance file"):
        read_text(path, "instance")
    with pytest.raises(InputError, match="cannot read solution file"):
        read_text(tmp_path / "missing", "solution")
    with pytest.raises(InputError, match="cannot write"):
        write_text(tmp_path / "missing" / "f.txt", "")
