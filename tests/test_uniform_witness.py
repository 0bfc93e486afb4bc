"""Uniform-capacity infeasibility witnesses and their soundness."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from capkc.errors import InputError
from capkc.graph_core import Graph
from capkc.lp_feasibility import build_lp1, solve_feasibility
from capkc.uniform_witness import (
    format_witness,
    greedy_witness_search,
    parse_witness_text,
    read_witness,
    verify_uniform_witness,
    write_witness,
)

from helpers import (
    METRIC_SETTINGS,
    Refused,
    assert_outcome,
    path_graph,
    rand_connected_graph,
    with_comments,
)


class TestVerify:
    def test_far_pair_on_path_certifies(self):
        assert verify_uniform_witness(path_graph(7), 1, 2, [0, 6])

    def test_remote_set_carries_fractional_weight(self):
        # remote = {3}; 2 + 1/3 > 2 certifies even though capacity 3
        # leaves slack in each ball.
        assert verify_uniform_witness(path_graph(7), 3, 2, [0, 6])
        assert not verify_uniform_witness(path_graph(7), 3, 3, [0, 6])

    def test_close_pair_rejected(self):
        assert not verify_uniform_witness(path_graph(7), 1, 2, [0, 2])

    def test_bound_must_clear_k_strictly(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert not verify_uniform_witness(g, 4, 1, [])

    def test_empty_core_counts_heads(self):
        assert verify_uniform_witness(path_graph(5), 1, 4, [])

    def test_disconnected_components_are_far(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert verify_uniform_witness(g, 1, 1, [0, 2])

    def test_duplicate_core_entries_collapse(self):
        assert verify_uniform_witness(path_graph(7), 1, 2, [0, 0, 6])

    def test_capacity_below_one_rejected(self):
        with pytest.raises(InputError, match="at least 1"):
            verify_uniform_witness(path_graph(3), 0, 1, [])

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(InputError, match="outside the graph"):
            verify_uniform_witness(path_graph(3), 1, 1, [5])

    def test_bound_is_exact_rational(self):
        # remote = {3}: the bound 2 + 2**-60 clears k = 2, where a float sum
        # would round it down to 2
        assert verify_uniform_witness(path_graph(7), 2**60, 2, [0, 6])


class TestGreedySearch:
    def test_finds_path_witness(self):
        w = greedy_witness_search(path_graph(7), 1, 2)
        assert w is not None
        assert verify_uniform_witness(path_graph(7), 1, 2, w)

    def test_core_comes_back_sorted(self):
        # the first core that clears k = 3 grows from seed 3 as 3, 9, 0
        assert greedy_witness_search(path_graph(10), 4, 3) == (0, 3, 9)

    def test_returns_none_on_feasible_star(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert greedy_witness_search(g, 4, 1) is None

    def test_empty_core_shortcut(self):
        assert greedy_witness_search(path_graph(5), 1, 4) == ()


class TestSoundness:
    def test_verified_witnesses_imply_lp_infeasibility(self):
        rng = random.Random(73)
        confirmed = 0
        for _ in range(60):
            n = rng.randint(3, 12)
            g = rand_connected_graph(rng, n)
            if rng.random() < 0.3:
                extra = rand_connected_graph(rng, rng.randint(2, 5))
                shift = [
                    (u + n, v + n) for u, v in extra.edges
                ]
                g = Graph(n + extra.vertex_count, list(g.edges) + shift)
            cap = rng.randint(1, 4)
            k = rng.randint(1, g.vertex_count)
            cores = [tuple(
                v for v in range(g.vertex_count) if rng.random() < 0.3
            )]
            found = greedy_witness_search(g, cap, k)
            if found is not None:
                cores.append(found)
            for core in cores:
                if not verify_uniform_witness(g, cap, k, core):
                    continue
                confirmed += 1
                caps = [cap] * g.vertex_count
                res = solve_feasibility(build_lp1(g, caps, k))
                assert not res.feasible, (core, cap, k)
        assert confirmed >= 10


class TestWitnessFormat:
    def test_round_trip(self, tmp_path):
        text = format_witness((6, 0))
        assert text == "witness\nv 0\nv 6\n"
        assert parse_witness_text(text) == (0, 6)
        target = tmp_path / "w.witness"
        write_witness((6, 0), target)
        assert read_witness(target) == (0, 6)

    @METRIC_SETTINGS
    @given(st.data())
    def test_format_of_parse_is_the_identity_under_comments(self, data):
        core = data.draw(st.sets(st.integers(0, 2047), max_size=8))
        text = format_witness(core)
        assert format_witness(parse_witness_text(with_comments(data, text))) == text

    def test_empty_core(self):
        assert parse_witness_text("witness\n") == ()

    def test_missing_header(self):
        with pytest.raises(InputError, match="missing 'witness' header"):
            parse_witness_text("# comment only\n")

    def test_vertex_before_header(self):
        with pytest.raises(InputError, match="line 1: vertex before"):
            parse_witness_text("v 0\nwitness\n")

    def test_junk_directive(self):
        with pytest.raises(InputError, match="line 2: unknown directive"):
            parse_witness_text("witness\ncore 3\n")

    def test_bad_number_reports_line(self):
        with pytest.raises(InputError, match="line 2"):
            parse_witness_text("witness\nv six\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("witness\nv 0\nwitness\n", "line 3: repeated witness header"),
            ("witness\nv 1 2\n", "line 2: expected 'v <id>'"),
        ],
    )
    def test_malformed_line_is_named(self, text, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            parse_witness_text(text)


class TestInputChecks:
    @pytest.mark.parametrize(
        "call, expected",
        [
            (
                lambda: greedy_witness_search(path_graph(3), 0, 1),
                Refused(InputError, "uniform capacity must be at least 1, got 0"),
            ),
        ],
        ids=["capacity-zero"],
    )
    def test_check(self, call, expected):
        assert_outcome(call, expected)
