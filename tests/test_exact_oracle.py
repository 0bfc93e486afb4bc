"""Brute-force oracle: golden answers, enumeration order, refusal guard, set filter."""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, groupby
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from capkc import exact_oracle
from capkc.errors import InputError
from capkc.exact_oracle import ENUMERATION_LIMIT, _covering_sets, exact_opt, feasible_at
from capkc.graph_core import HARD, SOFT, WeightedMetricInstance, candidate_radii
from capkc.instances import gen_fig1, gen_random_connected
from capkc.x_rounding import Solution, format_solution, seat_flow, validate_solution

from helpers import METRIC_SETTINGS, exact_metric, radii_and_midpoints, weighted_graphs


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


def unfiltered_feasible_at(inst, d, mode):
    """feasible_at as plain enumeration: every center set gets its seat flow."""
    n, k = inst.vertex_count, inst.k
    candidates = [v for v in range(n) if inst.capacities[v] > 0]
    cutoff = inst.cutoff(d)
    if mode == HARD:
        if k > n:
            return None
        size = min(k, len(candidates))
        center_sets = combinations(candidates, size)
    else:
        if not candidates:
            return None
        size = k
        center_sets = combinations_with_replacement(candidates, k)
    for chosen in center_sets:
        opened = [(u, len(list(copies))) for u, copies in groupby(chosen)]
        offers = [(u, inst.capacities[u] * mult) for u, mult in opened]
        _, phi = seat_flow(inst.scaled, cutoff, offers)
        if phi is None:
            continue
        centers = dict(opened)
        spare = [v for v in range(n) if v not in centers][: k - size]
        centers.update((v, 1) for v in spare)
        return Solution(k=k, radius=inst.reach(phi), centers=centers, phi=phi)
    return None


@st.composite
def oracle_cases(draw):
    """(instance, mode, radii): p/q weights, capacity-0 vertices, k up to n + 1."""
    n, edges = draw(weighted_graphs(connected=True) | weighted_graphs())
    caps = draw(st.lists(st.sampled_from((0, 0, 1, 2, 3, 5)), min_size=n, max_size=n))
    mode = draw(st.sampled_from((HARD, SOFT)))
    k = draw(st.integers(1, n + 1 if mode == HARD else min(n, 4)))
    inst = WeightedMetricInstance.from_weighted_edges(n, edges, caps, k, mode)
    radii = radii_and_midpoints(candidate_radii(inst))
    return inst, mode, draw(st.lists(st.sampled_from(radii), min_size=1, max_size=4))


class TestFilterAndPruneAreExact:
    """Coverage, seats and the prefix prune only skip sets that cannot be feasible."""

    @METRIC_SETTINGS
    @given(oracle_cases())
    def test_same_solution_as_plain_enumeration(self, case):
        inst, mode, radii = case
        n = inst.vertex_count

        def spy(dist, bound, offers):
            assert sum(seats for _, seats in offers) >= n
            for v in range(n):
                assert any(dist[u][v] <= bound for u, _ in offers), v
            return seat_flow(dist, bound, offers)

        with mock.patch.object(exact_oracle, "seat_flow", spy):
            for r in radii:
                got = feasible_at(inst, r, mode)
                want = unfiltered_feasible_at(inst, r, mode)
                assert got == want, r
                if got is not None:
                    assert list(got.centers.items()) == list(want.centers.items())
                    assert format_solution(got) == format_solution(want)

    @METRIC_SETTINGS
    @given(st.data())
    def test_walk_enters_exactly_the_prefixes_that_can_still_cover(self, data):
        clients = data.draw(st.integers(0, 5))
        m = data.draw(st.integers(0, 6))
        masks = data.draw(st.lists(st.integers(0, 2**clients - 1), min_size=m, max_size=m))
        seats = data.draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
        step = data.draw(st.sampled_from((0, 1)))
        size = data.draw(st.integers(0, m if step else 4))
        need = data.draw(st.integers(0, 8))
        full = 2**clients - 1

        def union(indices):
            cover = 0
            for i in indices:
                cover |= masks[i]
            return cover

        draws = combinations_with_replacement if step == 0 else combinations
        want = [
            c for c in draws(range(m), size)
            if union(c) == full and sum(seats[i] for i in c) >= need
        ]
        # the walk reads masks[i] once per index while building the suffix
        # ORs, then once per prefix it enters
        entered = sum(
            1
            for length in range(1, size + 1)
            for p in draws(range(m), length)
            if (not step or p[-1] <= m - 1 - (size - length))
            and all(union(p[:j]) | union(range(p[j], m)) == full for j in range(length))
        )
        reads = []

        class CountedMasks(list):
            def __getitem__(self, i):
                reads.append(i)
                return super().__getitem__(i)

        got = list(_covering_sets(CountedMasks(masks), seats, size, step, full, need))
        assert got == want
        assert len(reads) == m + entered
