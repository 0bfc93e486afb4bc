from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capkc.assignment import (
    Assignment,
    dump_assignment,
    global_delta,
    parse_assignment_text,
    radius_of,
)
from capkc.errors import InputError, PipelineError
from capkc.graph_core import Graph

from helpers import Refused, assert_outcome, with_comments


def small():
    a = Assignment(3)
    a.y = [Fraction(1, 2), Fraction(1), Fraction(0)]
    a.set_x(0, 0, Fraction(1, 2))
    a.set_x(1, 0, Fraction(1, 2))
    a.set_x(1, 1, Fraction(1))
    a.set_x(1, 2, Fraction(1))
    return a


class TestAssignment:
    def test_set_x_prunes_zero(self):
        a = small()
        a.set_x(0, 0, Fraction(0))
        assert a.get_x(0, 0) == 0
        assert 0 not in a.x_row(0)

    def test_set_x_rejects_negative(self):
        with pytest.raises(PipelineError):
            small().set_x(0, 1, Fraction(-1, 3))

    def test_add_x_accumulates(self):
        a = small()
        a.add_x(0, 0, Fraction(1, 4))
        assert a.get_x(0, 0) == Fraction(3, 4)
        a.add_x(0, 0, Fraction(-3, 4))
        assert 0 not in a.x_row(0)

    def test_x_items_sorted(self):
        a = small()
        assert list(a.x_items()) == [
            (0, 0, Fraction(1, 2)),
            (1, 0, Fraction(1, 2)),
            (1, 1, Fraction(1)),
            (1, 2, Fraction(1)),
        ]

    def test_sum_y(self):
        assert small().sum_y() == Fraction(3, 2)

    def test_copy_is_deep(self):
        a = small()
        b = a.copy()
        b.y[0] = Fraction(9)
        b.set_x(0, 0, Fraction(1, 7))
        assert a.y[0] == Fraction(1, 2)
        assert a.get_x(0, 0) == Fraction(1, 2)


class TestRadius:
    def test_radius_of(self):
        g = Graph(3, [(0, 1), (1, 2)])
        a = small()
        assert radius_of(a, g, 0) == 0
        assert radius_of(a, g, 1) == 1
        assert radius_of(a, g, 2) == 0

    def test_global_delta(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert global_delta(small(), g) == 1
        b = small()
        b.set_x(0, 2, Fraction(1, 8))
        assert global_delta(b, g) == 2

    def test_radius_of_rejects_unreachable(self):
        g = Graph(3, [(0, 1)])
        a = small()
        with pytest.raises(PipelineError):
            radius_of(a, g, 1)


DUMP = """y 0 1/2
y 1 1
y 2 0
x 0 0 1/2
x 1 0 1/2
x 1 1 1
x 1 2 1
"""


class TestAssignmentIO:
    def test_dump_format(self):
        assert dump_assignment(small()) == DUMP

    def test_round_trip(self):
        a = parse_assignment_text(DUMP, 3)
        assert a.y == small().y
        assert list(a.x_items()) == list(small().x_items())

    def test_missing_y_defaults_to_zero(self):
        a = parse_assignment_text("y 1 1\nx 1 1 1\n", 3)
        assert a.y == [Fraction(0), Fraction(1), Fraction(0)]

    def test_inline_comments(self):
        a = parse_assignment_text("y 0 1  # open\nx 0 1 1 # serves 1\n", 3)
        assert a.y == [Fraction(1), Fraction(0), Fraction(0)]
        assert list(a.x_items()) == [(0, 1, Fraction(1))]

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_dump_of_parse_is_the_identity_under_comments(self, data):
        n = data.draw(st.integers(1, 6))
        values = st.fractions(min_value=0, max_value=3, max_denominator=12)
        a = Assignment(n)
        a.y = data.draw(st.lists(values, min_size=n, max_size=n))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for (u, v), q in data.draw(st.dictionaries(pairs, values.filter(bool))).items():
            a.set_x(u, v, q)
        text = dump_assignment(a)
        assert dump_assignment(parse_assignment_text(with_comments(data, text), n)) == text

    @pytest.mark.parametrize(
        "bad",
        [
            DUMP.replace("x 0 0 1/2", "x 0 0 0"),  # nonpositive x
            DUMP.replace("x 0 0 1/2", "x 0 5 1/2"),  # id out of range
            DUMP.replace("y 2 0", "y 5 0"),
            DUMP.replace("y 2 0", "y 2 cat"),
            "junk\n" + DUMP,
        ],
    )
    def test_parse_rejections(self, bad):
        with pytest.raises(InputError):
            parse_assignment_text(bad, 3)


def across(u, v):
    """An assignment over two vertices with x[u, v] = 1."""
    a = Assignment(2)
    a.set_x(u, v, Fraction(1))
    return a


class TestInputChecks:
    @pytest.mark.parametrize(
        "call, expected",
        [
            (lambda: Assignment(2, y=[1]), Refused(InputError, "y length mismatch")),
            (
                lambda: global_delta(across(0, 1), Graph(2, [])),
                Refused(PipelineError, r"x\[0,1\] > 0 across components"),
            ),
        ],
        ids=["y-length", "delta-across-components"],
    )
    def test_check(self, call, expected):
        assert_outcome(call, expected)
