"""Soft-capacity rounding: anchor selection, tree fold, relocation."""

import random
from fractions import Fraction

import pytest

from capkc import soft_solver
from capkc.assignment import Assignment
from capkc.errors import PipelineError, ValidationError
from capkc.graph_core import Graph
from capkc.lp_feasibility import build_lp1, solve_feasibility
from capkc.soft_solver import (
    _ANCHOR_REACH,
    _anchor_of,
    _fold_tree,
    ks_independent_set,
    solve_soft,
)
from capkc.x_rounding import validate_solution

from helpers import Refused, assert_outcome, path_graph, rand_connected_graph


class TestAnchorSet:
    def test_path_of_five(self):
        assert ks_independent_set(path_graph(5)) == [0, 3]

    def test_path_of_seven(self):
        assert ks_independent_set(path_graph(7)) == [0, 3, 6]

    def test_single_vertex(self):
        assert ks_independent_set(Graph(1, [])) == [0]

    def test_spider_collapses_to_center(self):
        # Three legs of length 2; every leaf is within two hops of the
        # center, so a BFS scan keeps the anchor set G^3-connected where
        # a leaf-first scan would have picked three mutually far leaves.
        g = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        assert ks_independent_set(g) == [0]

    def test_disconnected_rejected(self):
        with pytest.raises(ValidationError, match="connected"):
            ks_independent_set(Graph(4, [(0, 1), (2, 3)]))

    def test_random_sets_are_maximal_independent_and_g3_connected(self):
        rng = random.Random(41)
        for _ in range(30):
            g = rand_connected_graph(rng, rng.randint(2, 16))
            hops = g.hop_distances()
            s = ks_independent_set(g)
            for i, a in enumerate(s):
                for b in s[i + 1 :]:
                    assert hops[a][b] > 2
            for v in range(g.vertex_count):
                assert any(hops[v][a] <= 2 for a in s)
            reached = {s[0]}
            for _ in s:  # each round joins every anchor within 3 hops of one reached
                reached |= {b for b in s if any(hops[a][b] <= 3 for a in reached)}
            assert reached == set(s)


class TestAnchorOf:
    def test_every_vertex_gets_an_anchor_within_reach(self):
        # ks_independent_set is maximal in G^2, so every vertex has an anchor
        # within two hops: the one within 1 hop if any, else the lowest id
        rng = random.Random(43)
        at_two = 0
        for _ in range(200):
            g = rand_connected_graph(rng, rng.randint(1, 24))
            hops = g.hop_distances()
            anchors = ks_independent_set(g)
            for v in range(g.vertex_count):
                s = _anchor_of(hops, anchors, v)
                assert s in anchors and hops[s][v] <= _ANCHOR_REACH
                near = [a for a in anchors if hops[a][v] <= 1]
                assert s == (near[0] if near else min(a for a in anchors if hops[a][v] == 2))
                at_two += hops[s][v] == 2
        assert at_two >= 100

    def test_a_vertex_out_of_reach_fails_loudly(self):
        # not an input ks_independent_set gives; the lookup must not return None
        g = path_graph(5)
        with pytest.raises(ValueError):
            _anchor_of(g.hop_distances(), [0], 4)


class TestFoldTree:
    def test_root_is_the_smallest_anchor(self):
        # anchors 0 - 3 - 6 form a chain in G^3; both halves of the
        # remainder flow toward the root, so the root keeps the mass
        anchors = [0, 3, 6]
        u = {0: Fraction(1, 2), 3: Fraction(1), 6: Fraction(1, 2)}
        _fold_tree(path_graph(7).hop_distances(), anchors, u)
        assert u == {0: 1, 3: 1, 6: 0}

    def test_random_folds_keep_the_total_and_end_integral(self):
        rng = random.Random(43)
        for _ in range(60):
            g = rand_connected_graph(rng, rng.randint(2, 16))
            anchors = ks_independent_set(g)
            u = {s: Fraction(rng.randint(0, 12), rng.randint(1, 6)) for s in anchors}
            u[anchors[-1]] += -sum(u.values()) % 1  # an integral total
            total = sum(u.values())
            _fold_tree(g.hop_distances(), anchors, u)
            assert sum(u.values()) == total
            assert all(q.denominator == 1 and q >= 0 for q in u.values())

    def test_anchors_out_of_reach_are_rejected(self):
        u = {0: Fraction(1), 4: Fraction(1)}
        with pytest.raises(PipelineError, match="does not span"):
            _fold_tree(path_graph(5).hop_distances(), [0, 4], u)


class TestSolveSoft:
    def test_single_anchor_star(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        a = Assignment(4)
        a.y[0] = Fraction(1)
        for v in range(4):
            a.set_x(0, v, Fraction(1))
        sol = solve_soft(g, [4, 0, 0, 0], 1, a)
        assert sol.centers == {0: 1}
        assert sol.phi == (0, 0, 0, 0)
        assert sol.radius == 1

    def test_relocation_moves_centers_to_roomy_vertex(self):
        g = path_graph(3)
        a = Assignment(3)
        a.y[0], a.y[2] = Fraction(1), Fraction(1)
        a.set_x(0, 0, Fraction(1))
        a.set_x(2, 1, Fraction(1))
        a.set_x(2, 2, Fraction(1))
        sol = solve_soft(g, [1, 0, 3], 2, a)
        assert sol.centers == {2: 2}
        assert sol.phi == (2, 2, 2)
        assert sol.radius == 2

    def test_tree_fold_keeps_floor_and_pushes_remainder_up(self):
        # Anchors 0 and 3 both gather 3/2; the child keeps its floor and
        # the root absorbs the remainder, then everything relocates to
        # the lowest-id vertex of the uniform-capacity ball.
        g = path_graph(6)
        caps = [3] * 6
        a = Assignment(6)
        y = [1, Fraction(1, 2), Fraction(1, 2), 0, 1, 0]
        for v, q in enumerate(y):
            a.y[v] = Fraction(q)
        for u, v, q in [
            (0, 0, 1),
            (0, 1, Fraction(1, 2)),
            (1, 1, Fraction(1, 2)),
            (1, 2, Fraction(1, 2)),
            (2, 2, Fraction(1, 2)),
            (2, 3, Fraction(1, 2)),
            (4, 3, Fraction(1, 2)),
            (4, 4, 1),
            (4, 5, 1),
        ]:
            a.set_x(u, v, Fraction(q))
        sol = solve_soft(g, caps, 3, a)
        assert sol.centers == {0: 3}
        assert sol.phi == (0,) * 6
        assert sol.radius == 5
        validate_solution(g.hop_distances(), caps, 3, sol, soft=True)

    def test_disconnected_rejected(self):
        a = Assignment(4)
        with pytest.raises(ValidationError, match="connected"):
            solve_soft(Graph(4, [(0, 1), (2, 3)]), [2] * 4, 2, a)

    def test_infeasible_assignment_rejected(self):
        g = path_graph(3)
        a = Assignment(3)
        a.y[0] = Fraction(3)
        with pytest.raises(ValidationError, match="not feasible"):
            solve_soft(g, [1, 1, 1], 3, a)

    def test_random_lp_solutions_round_within_eleven(self, monkeypatch):
        # each vertex adds its y to one anchor, so the anchor masses total k,
        # each at least 1 (so at most k anchors), and the fold keeps the total
        folds = []
        fold = soft_solver._fold_tree

        def spy(hops, anchors, u):
            gathered = dict(u)
            fold(hops, anchors, u)
            folds.append((gathered, dict(u)))

        monkeypatch.setattr(soft_solver, "_fold_tree", spy)
        rng = random.Random(57)
        done = 0
        while done < 12:
            n = rng.randint(2, 14)
            g = rand_connected_graph(rng, n)
            caps = [rng.randint(0, 4) for _ in range(n)]
            if all(c == 0 for c in caps):
                continue
            k = rng.randint(1, max(1, n // 2))
            res = solve_feasibility(build_lp1(g, list(caps), k, soft=True))
            if not res.feasible:
                continue
            done += 1
            sol = solve_soft(g, caps, k, res.assignment)
            validate_solution(g.hop_distances(), caps, k, sol, soft=True)
            assert sol.radius <= 11
            assert sol.open_count() == k
            gathered, folded = folds[-1]
            assert len(gathered) <= k and all(q >= 1 for q in gathered.values())
            assert sum(gathered.values()) == sum(folded.values()) == k
            assert all(q.denominator == 1 for q in folded.values())


class TestInputChecks:
    @pytest.mark.parametrize(
        "call, expected",
        [
            (
                lambda: ks_independent_set(Graph(0, [])),
                Refused(ValidationError, "anchor selection needs a non-empty graph"),
            ),
        ],
        ids=["empty-graph"],
    )
    def test_check(self, call, expected):
        assert_outcome(call, expected)
