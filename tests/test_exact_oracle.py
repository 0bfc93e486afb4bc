"""Brute-force oracle: golden answers, enumeration order, refusal guard."""

from fractions import Fraction

import pytest

from capkc.errors import InputError
from capkc.exact_oracle import ENUMERATION_LIMIT, exact_opt, feasible_at
from capkc.graph_core import HARD, SOFT, WeightedMetricInstance, candidate_radii
from capkc.instances import gen_fig1, gen_random_connected
from capkc.x_rounding import validate_solution

from helpers import exact_metric


def line_instance(caps, k, mode=HARD):
    n = len(caps)
    edges = [(i, i + 1, 1) for i in range(n - 1)]
    return WeightedMetricInstance.from_weighted_edges(n, edges, caps, k, mode)


class TestFeasibleAt:
    def test_middle_of_path_works_at_one(self):
        inst = line_instance([3, 3, 3], 1)
        assert feasible_at(inst, 0) is None
        sol = feasible_at(inst, 1)
        assert sol.centers == {1: 1}
        assert sol.phi == (1, 1, 1)
        validate_solution(inst.scaled, inst.capacities, 1, sol, scale=inst.scale)

    def test_lexicographic_first_set_wins(self):
        # both {0} and {1} serve a 2-path at radius 1; 0 comes first
        inst = line_instance([2, 2], 1)
        assert feasible_at(inst, 1).centers == {0: 1}

    def test_padding_tops_up_to_k(self):
        inst = line_instance([5, 5, 0, 0], 3)
        sol = feasible_at(inst, 2)
        assert sol.centers == {0: 1, 1: 1, 2: 1}
        assert sol.loads()[2] == 0
        validate_solution(inst.scaled, inst.capacities, 3, sol, scale=inst.scale)

    def test_soft_multiset(self):
        inst = line_instance([2, 1, 1], 2, mode=SOFT)
        sol = feasible_at(inst, 1)
        assert sol.centers == {0: 1, 1: 1}
        validate_solution(inst.scaled, inst.capacities, 2, sol, soft=True, scale=inst.scale)

    def test_k_beyond_vertex_count_hard(self):
        inst = line_instance([9, 9], 3)
        assert feasible_at(inst, 5) is None

    def test_refuses_huge_enumerations(self):
        inst = gen_random_connected(40, 0.5, (1, 3), 8, seed=5)
        with pytest.raises(InputError, match="refusing beyond"):
            feasible_at(inst, 1)
        assert ENUMERATION_LIMIT == 10**7


class TestExactOpt:
    def test_path_of_three(self):
        assert exact_opt(line_instance([3, 3, 3], 1))[0] == 1

    def test_single_vertex(self):
        inst = WeightedMetricInstance.from_weighted_edges(
            1, [], [1], 1, HARD
        )
        radius, sol = exact_opt(inst)
        assert radius == 0
        assert sol.centers == {0: 1}

    def test_gap_instance_has_no_integral_solution(self):
        inst, _ = gen_fig1()
        assert exact_opt(inst) is None
        for r in candidate_radii(inst):
            assert feasible_at(inst, r) is None

    def test_hard_padding_versus_soft_stacking(self):
        hard = line_instance([3, 0, 0], 2)
        radius, sol = exact_opt(hard)
        assert (radius, sol.centers) == (2, {0: 1, 1: 1})
        soft = line_instance([3, 0, 0], 2, mode=SOFT)
        radius, sol = exact_opt(soft)
        assert (radius, sol.centers) == (2, {0: 2})

    def test_mode_override(self):
        inst = line_instance([3, 0, 0], 2)
        assert exact_opt(inst, mode=SOFT)[1].centers == {0: 2}

    def test_no_capacity_anywhere(self):
        inst = line_instance([0, 0], 1)
        assert exact_opt(inst) is None
        assert exact_opt(inst, mode=SOFT) is None

    def test_fractional_metric_radius(self):
        dist = [[0, Fraction(3, 2)], [Fraction(3, 2), 0]]
        inst = WeightedMetricInstance.from_distance_matrix(dist, [2, 2], 1, HARD)
        radius, sol = exact_opt(inst)
        assert radius == Fraction(3, 2)
        assert sol.centers == {0: 1}
        assert exact_metric(inst) == dist
        assert sol.radius == max(exact_metric(inst)[u][v] for v, u in enumerate(sol.phi))
        validate_solution(inst.scaled, inst.capacities, 1, sol, scale=inst.scale)

    def test_matches_linear_scan(self):
        for seed in range(6):
            inst = gen_random_connected(9, 0.4, (1, 3), 2, seed=seed)
            radii = [Fraction(0)] + candidate_radii(inst)
            answers = [feasible_at(inst, r) is not None for r in radii]
            # monotone: once feasible, stays feasible
            assert answers == sorted(answers)
            found = exact_opt(inst)
            if found is None:
                assert not any(answers)
            else:
                assert found[0] == radii[answers.index(True)]
                validate_solution(
                    inst.scaled, inst.capacities, inst.k, found[1], scale=inst.scale
                )
