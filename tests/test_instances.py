"""Generators: shape, determinism, and witness feasibility at distance 1."""

from fractions import Fraction

import pytest

from capkc.errors import InputError
from capkc.graph_core import (
    SOFT,
    format_instance,
    threshold_graph,
)
from capkc.instances import (
    gap_layout,
    gen_fig1,
    gen_gap_construction,
    gen_random_connected,
    gen_x3c,
    x3c_layout,
)
from capkc.lp_feasibility import verify_assignment_feasible


class TestFig1:
    def test_shape(self):
        inst, _ = gen_fig1()
        assert inst.vertex_count == 12
        assert len(inst.edges) == 18
        assert inst.capacities == [4] * 12
        assert inst.k == 3

    def test_witness_opens_three_quarters_per_hub(self):
        _, w = gen_fig1()
        assert [w.y[v] for v in (0, 1, 6, 7)] == [Fraction(3, 4)] * 4
        assert w.sum_y() == 3

    def test_witness_feasible_at_one(self):
        inst, w = gen_fig1()
        g = threshold_graph(inst, 1)
        assert verify_assignment_feasible(g, inst.capacities, 3, w, 1)

    def test_components_are_six_apart(self):
        inst, _ = gen_fig1()
        hops = threshold_graph(inst, 1).hop_distances()
        assert hops[0][6] == float("inf")
        assert max(hops[0][v] for v in range(6)) <= 2


class TestGapConstruction:
    def test_vertex_count_for_24(self):
        inst, _ = gen_gap_construction(24)
        assert inst.vertex_count == 523
        assert inst.k == 24

    def test_layout_blocks_are_contiguous(self):
        lay = gap_layout(24)
        assert lay.root == 0
        assert lay.rays == tuple(range(1, 19))
        assert lay.connectors == tuple(range(19, 37))
        assert lay.hubs[0] == (37, 38)
        assert lay.middles[0] == tuple(range(39, 64))
        assert len(lay.middles[0]) == 25  # cap + 2
        assert lay.hubs[1] == (64, 65)
        assert lay.middles[17][-1] == 522

    def test_uniform_capacities(self):
        inst, _ = gen_gap_construction(24)
        assert set(inst.capacities) == {23}

    def test_nonuniform_zeroes_all_but_root_and_hubs(self):
        inst, _ = gen_gap_construction(24, nonuniform=True)
        lay = gap_layout(24)
        keep = {lay.root} | {v for pair in lay.hubs for v in pair}
        for v in range(inst.vertex_count):
            assert inst.capacities[v] == (23 if v in keep else 0)

    def test_witness_total_is_exactly_k(self):
        # for every k that gap_layout takes (24..46) the padding's deficit
        # fits the hubs' headroom, so the witness totals k with every y in [0, 1]
        for k in range(24, 47):
            _, w = gen_gap_construction(k)
            assert w.sum_y() == k
            assert all(0 <= q <= 1 for q in w.y)

    def test_witness_padding_fills_in_id_order(self):
        _, w = gen_gap_construction(24)
        lay = gap_layout(24)
        share = Fraction(14, 23)  # (cap + 5) / (2 cap) before padding
        assert w.y[lay.root] == 1
        # deficit 25/23 lands on the first three hubs in id order
        assert w.y[lay.hubs[0][0]] == 1
        assert w.y[lay.hubs[0][1]] == 1
        assert w.y[lay.hubs[1][0]] == Fraction(21, 23)
        assert w.y[lay.hubs[1][1]] == share
        for a, b in lay.hubs[2:]:
            assert w.y[a] == share
            assert w.y[b] == share

    @pytest.mark.parametrize("nonuniform", [False, True])
    def test_witness_feasible_at_one(self, nonuniform):
        inst, w = gen_gap_construction(24, nonuniform=nonuniform)
        g = threshold_graph(inst, 1)
        assert verify_assignment_feasible(g, inst.capacities, 24, w, 1)

    def test_middles_reach_exactly_gadget_connector_ray_root(self):
        inst, _ = gen_gap_construction(24)
        lay = gap_layout(24)
        hops = threshold_graph(inst, 1).hop_distances()
        for i in (0, 9, 17):
            ball = set()
            for w in lay.middles[i]:
                ball |= {
                    v
                    for v in range(inst.vertex_count)
                    if hops[w][v] != float("inf") and hops[w][v] <= 4
                }
            gadget = set(lay.hubs[i]) | set(lay.middles[i])
            expected = gadget | {
                lay.connectors[i],
                lay.rays[i],
                lay.root,
            }
            assert ball == expected

    def test_small_k_rejected(self):
        with pytest.raises(InputError, match="k >= 24"):
            gen_gap_construction(23)


class TestX3C:
    def test_single_set_shape(self):
        inst = gen_x3c([("a", "b", "c")], ["a", "b", "c"])
        assert inst.vertex_count == 12  # 6 copies + set + guard + 4 pendants
        assert inst.k == 2
        lay = x3c_layout(1, 3)
        assert lay.copies == ((0, 1, 2), (3, 4, 5))
        assert lay.set_vertices == (6,)
        assert lay.guarded == (7,)
        assert lay.pendants == ((8, 9, 10, 11),)
        assert inst.capacities[6] == 6 and inst.capacities[7] == 6
        assert sum(inst.capacities) == 12

    def test_capacity_identity(self):
        universe = list("abcdef")
        sets = [("a", "b", "c"), ("b", "c", "d"), ("d", "e", "f")]
        inst = gen_x3c(sets, universe)
        f, u = len(sets), len(universe)
        assert inst.vertex_count == (3 * f + 3) * (u // 3 + f)
        # any k centers offer exactly |V| seats, so radius-1 covers are tight
        assert inst.k * (3 * f + 3) == inst.vertex_count
        assert inst.k == f + u // 3

    def test_set_vertex_adjacent_to_every_copy(self):
        universe = list("abcdef")
        inst = gen_x3c([("a", "c", "e"), ("b", "d", "f")], universe)
        lay = x3c_layout(2, 6)
        g = threshold_graph(inst, 1)
        hops = g.hop_distances()
        for c in range(3):
            for e in (0, 2, 4):
                assert hops[lay.set_vertices[0]][lay.copies[c][e]] == 1
            for e in (1, 3, 5):
                assert hops[lay.set_vertices[1]][lay.copies[c][e]] == 1

    def test_universe_not_multiple_of_three_rejected(self):
        with pytest.raises(InputError, match="multiple of 3"):
            gen_x3c([], ["a", "b", "c", "d"])

    def test_unknown_label_rejected(self):
        with pytest.raises(InputError, match="set 0"):
            gen_x3c([("a", "b", "z")], ["a", "b", "c"])

    def test_undersized_set_rejected(self):
        with pytest.raises(InputError, match="set 1"):
            gen_x3c([("a", "b", "c"), ("a", "a", "b")], ["a", "b", "c"])

    def test_repeated_universe_label_rejected(self):
        with pytest.raises(InputError, match="labels repeat"):
            gen_x3c([], ["a", "b", "a"])


class TestRandomConnected:
    def test_deterministic_per_seed(self):
        a = gen_random_connected(15, 0.8, (1, 5), 4, seed=99)
        b = gen_random_connected(15, 0.8, (1, 5), 4, seed=99)
        assert format_instance(a) == format_instance(b)

    def test_seed_changes_instance(self):
        a = gen_random_connected(15, 0.8, (1, 5), 4, seed=99)
        b = gen_random_connected(15, 0.8, (1, 5), 4, seed=100)
        assert format_instance(a) != format_instance(b)

    def test_connected_and_in_range(self):
        for seed in range(6):
            inst = gen_random_connected(12, 0.5, (2, 4), 3, seed=seed)
            assert threshold_graph(inst, 1).is_connected()
            assert all(2 <= c <= 4 for c in inst.capacities)
            assert inst.k == 3

    def test_soft_mode_carried(self):
        inst = gen_random_connected(6, 0.0, (1, 2), 2, seed=1, mode=SOFT)
        assert inst.mode == SOFT

    def test_bad_arguments(self):
        with pytest.raises(InputError, match="n must be"):
            gen_random_connected(0, 0.5, (1, 2), 1, seed=0)
        with pytest.raises(InputError, match="bad capacity range"):
            gen_random_connected(4, 0.5, (3, 2), 1, seed=0)
