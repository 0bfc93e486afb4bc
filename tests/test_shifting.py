import random
from fractions import Fraction

import pytest

from capkc.assignment import Assignment, global_delta
from capkc.errors import PipelineError, ValidationError
from capkc.graph_core import Graph
from capkc.lp_feasibility import verify_assignment_feasible
from capkc.shifting import (
    RoundingContext,
    TraceLog,
    chain_shift,
    group_shift,
    replay_trace,
    shift,
    validate_yflow,
)

from helpers import path_graph, rand_chain_case


F = Fraction


# ---------------------------------------------------------------------------
# a frozen seven-vertex path scenario used across the chain-shift tests:
# two fractional donors feed three fractional receivers through two full
# vertices, with every tightness (outflow, inflow, through-flow) hit at least
# once.

CHAIN_CAPS = (2, 1, 3, 3, 2, 2, 4)
CHAIN_Y0 = (F(2, 5), F(1), F(1), F(1), F(0), F(4, 5), F(1, 10))
CHAIN_X0 = {
    (0, 0): F(2, 5),
    (1, 1): F(1),
    (2, 2): F(1),
    (2, 0): F(3, 5),
    (3, 3): F(1),
    (3, 4): F(1),
    (3, 5): F(1, 5),
    (3, 6): F(1, 10),
    (5, 5): F(4, 5),
    (5, 6): F(4, 5),
    (6, 6): F(1, 10),
}
CHAIN_PATHS = [
    (F(1, 5), (0, 2, 3, 6)),
    (F(3, 5), (1, 2, 3, 4)),
    (F(1, 5), (1, 2, 3, 5)),
]
CHAIN_Y1 = (F(1, 5), F(1, 5), F(1), F(1), F(3, 5), F(1), F(3, 10))
CHAIN_X1 = {
    0: {0: F(1, 5)},
    1: {1: F(1, 5)},
    2: {2: F(3, 5), 0: F(14, 25), 1: F(4, 5)},
    3: {3: F(3, 5), 4: F(3, 5), 5: F(3, 25), 6: F(3, 50), 2: F(2, 5), 0: F(6, 25)},
    4: {3: F(1, 5), 4: F(1, 5), 5: F(1, 25), 6: F(1, 50)},
    5: {3: F(1, 15), 4: F(1, 15), 5: F(4, 5) + F(1, 75), 6: F(4, 5) + F(1, 150)},
    6: {3: F(2, 15), 4: F(2, 15), 5: F(2, 75), 6: F(1, 10) + F(1, 75)},
}


def chain_scenario():
    graph = path_graph(7)
    a = Assignment(7, y=CHAIN_Y0)
    for (u, v), q in CHAIN_X0.items():
        a.set_x(u, v, q)
    ctx = RoundingContext(graph, CHAIN_CAPS)
    return ctx, a


class TestShift:
    def setup_method(self):
        self.graph = path_graph(2)
        self.ctx = RoundingContext(self.graph, (1, 2))

    def fresh(self):
        a = Assignment(2, y=[F(3, 4), F(1, 4)])
        a.set_x(0, 0, F(3, 4))
        a.set_x(1, 1, F(1, 4))
        return a

    def test_moves_proportional_share(self):
        a = self.fresh()
        shift(self.ctx, a, 0, 1, F(1, 2))
        assert a.y == [F(1, 4), F(3, 4)]
        assert a.get_x(0, 0) == F(1, 4)
        assert a.x_row(1) == {0: F(1, 2), 1: F(1, 4)}

    def test_full_shift_empties_source(self):
        a = self.fresh()
        shift(self.ctx, a, 0, 1, F(3, 4))
        assert a.y[0] == 0
        assert 0 not in a.x
        assert a.x_row(1) == {0: F(3, 4), 1: F(1, 4)}

    def test_rejects_same_endpoints(self):
        with pytest.raises(ValidationError):
            shift(self.ctx, self.fresh(), 0, 0, F(1, 4))

    def test_rejects_capacity_decrease(self):
        a = self.fresh()
        with pytest.raises(ValidationError):
            shift(self.ctx, a, 1, 0, F(1, 8))

    def test_rejects_overdraw(self):
        with pytest.raises(ValidationError):
            shift(self.ctx, self.fresh(), 0, 1, F(7, 8))

    def test_rejects_overfill_hard(self):
        a = self.fresh()
        a.y[1] = F(1, 2)
        with pytest.raises(ValidationError):
            shift(self.ctx, a, 0, 1, F(3, 4))

    def test_rejects_cross_component(self):
        g = Graph(2, [])
        ctx = RoundingContext(g, (1, 2))
        with pytest.raises(ValidationError):
            shift(ctx, self.fresh(), 0, 1, F(1, 4))

    def test_random_shifts_preserve_client_totals(self):
        rng = random.Random(5)
        g = path_graph(4)
        for _ in range(80):
            caps = sorted(rng.randint(1, 5) for _ in range(4))
            ctx = RoundingContext(g, tuple(caps))
            a = Assignment(4)
            for v in range(4):
                a.y[v] = F(rng.randint(1, 7), 8)
                a.set_x(v, v, a.y[v] * F(rng.randint(0, 4), 4))
            pre = [sum(a.get_x(u, v) for u in range(4)) for v in range(4)]
            b_end = rng.randint(1, 3)
            a_end = rng.randrange(b_end)
            room = min(a.y[a_end], 1 - a.y[b_end])
            if room <= 0:
                continue
            ksum = a.sum_y()
            shift(ctx, a, a_end, b_end, room * F(rng.randint(1, 4), 4))
            assert a.sum_y() == ksum
            post = [sum(a.get_x(u, v) for u in range(4)) for v in range(4)]
            assert pre == post


class TestGroupShift:
    def test_concentrates_to_one_fractional(self):
        g = path_graph(3)
        ctx = RoundingContext(g, (1, 2, 3))
        a = Assignment(3, y=[F(1, 2), F(1, 2), F(1, 2)])
        group_shift(ctx, a, [0, 1, 2])
        assert a.y == [F(0), F(1, 2), F(1)]
        assert a.sum_y() == F(3, 2)

    def test_integral_members_untouched(self):
        g = path_graph(3)
        ctx = RoundingContext(g, (1, 2, 3))
        a = Assignment(3, y=[F(1), F(1, 3), F(2, 3)])
        group_shift(ctx, a, [0, 1, 2])
        assert a.y == [F(1), F(0), F(1)]

    def test_mass_flows_toward_larger_capacity(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)])
        ctx = RoundingContext(g, (4, 3, 2, 1))
        a = Assignment(4, y=[F(1, 4), F(1, 4), F(1, 4), F(1, 4)])
        group_shift(ctx, a, [0, 1, 2, 3])
        # order by (L, id) is 3,2,1,0: vertex 0 is the best receiver
        assert a.y == [F(1), F(0), F(0), F(0)]

    def test_rejects_empty_group(self):
        ctx = RoundingContext(path_graph(2), (1, 1))
        with pytest.raises(ValidationError):
            group_shift(ctx, Assignment(2), [])

    def test_rejects_split_group(self):
        ctx = RoundingContext(Graph(2, []), (1, 1))
        a = Assignment(2, y=[F(1, 2), F(1, 2)])
        with pytest.raises(ValidationError):
            group_shift(ctx, a, [0, 1])

    def test_random_groups_fix_total_and_leave_one(self):
        rng = random.Random(9)
        for _ in range(60):
            n = rng.randint(2, 7)
            g = path_graph(n)
            caps = tuple(rng.randint(1, 6) for _ in range(n))
            ctx = RoundingContext(g, caps)
            a = Assignment(n, y=[F(rng.randint(0, 8), 8) for _ in range(n)])
            total = a.sum_y()
            group_shift(ctx, a, list(range(n)))
            assert a.sum_y() == total
            assert sum(1 for q in a.y if 0 < q < 1) <= 1


class TestYFlowValidation:
    def setup_method(self):
        self.ctx, self.a = chain_scenario()

    def ok(self, paths):
        validate_yflow(self.ctx, self.a, paths)

    def bad(self, paths, needle):
        with pytest.raises(ValidationError) as err:
            self.ok(paths)
        assert needle in str(err.value)

    def test_frozen_flow_is_valid(self):
        self.ok(CHAIN_PATHS)

    def test_source_sink_overlap(self):
        self.bad([(F(1, 10), (0, 2, 3, 5)), (F(1, 100), (5, 4, 3, 2, 0))], "overlap")

    def test_nonpositive_weight(self):
        self.bad([(F(0), (0, 2, 3, 6))], "positive")

    def test_short_path(self):
        # checked first: a lone vertex would be both a source and a sink
        self.bad([(F(1, 10), (0,))], "two vertices")
        self.bad([(F(1, 10), (0, 2, 3, 6)), (F(1, 10), ())], "two vertices")

    def test_revisit(self):
        self.bad([(F(1, 10), (0, 2, 3, 2, 0, 6))], "revisits")

    def test_capacity_decrease_source_to_sink(self):
        # L(5) = 2 > L(6)... L(6)=4 fine; use donor 2->sink... need y<1 ends
        ctx = RoundingContext(path_graph(3), (3, 3, 1))
        a = Assignment(3, y=[F(1, 2), F(1), F(1, 4)])
        with pytest.raises(ValidationError) as err:
            validate_yflow(ctx, a, [(F(1, 4), (0, 1, 2))])
        assert "capacity decreases" in str(err.value)

    def test_internal_in_source_set(self):
        self.bad(
            [(F(1, 10), (0, 2, 3, 6)), (F(1, 10), (1, 0, 2, 3, 4))],
            "lies in S or T",
        )

    def test_internal_not_full(self):
        self.bad([(F(1, 20), (0, 5, 6))], "must have y = 1")

    def test_internal_capacity_below_source(self):
        ctx = RoundingContext(path_graph(3), (2, 1, 4))
        a = Assignment(3, y=[F(1, 2), F(1), F(1, 4)])
        with pytest.raises(ValidationError) as err:
            validate_yflow(ctx, a, [(F(1, 4), (0, 1, 2))])
        assert "capacity below source" in str(err.value)

    def test_outflow_exceeds_y(self):
        self.bad([(F(1, 2), (0, 2, 3, 6))], "outflow")

    def test_inflow_exceeds_headroom(self):
        self.bad([(F(1, 4), (1, 2, 3, 5))], "inflow")

    def test_through_flow_exceeds_one(self):
        paths = [
            (F(2, 5), (0, 2, 3, 6)),
            (F(3, 5), (1, 2, 3, 4)),
            (F(1, 10), (1, 2, 3, 5)),
        ]
        self.bad(paths, "through-flow")


class TestFlowGraph:
    def test_frozen_aggregation(self):
        ctx, a = chain_scenario()
        arcs, out_at, in_at = validate_yflow(ctx, a, CHAIN_PATHS)
        assert arcs[(2, 3)][0] == 1
        assert arcs[(1, 2)][0] == F(4, 5)
        expect_fl = {
            (0, 2): F(2, 5),
            (1, 2): F(4, 5),
            (2, 3): F(6, 5),
            (3, 4): F(3, 5),
            (3, 5): F(1, 5),
            (3, 6): F(2, 5),
        }
        assert {arc: cell[1] for arc, cell in arcs.items()} == expect_fl
        assert out_at == {0: F(1, 5), 1: F(4, 5)}
        assert in_at == {4: F(3, 5), 5: F(1, 5), 6: F(1, 5)}

    def test_rejects_cycle(self):
        # 0 and 1 are full interior vertices that the two paths cross in
        # opposite directions; every per-path clause holds
        paths = [(F(1, 10), (7, 0, 1, 8)), (F(1, 10), (7, 1, 0, 8))]
        ctx = RoundingContext(path_graph(9), (1,) * 9)
        a = Assignment(9, y=[F(1), F(1)] + [F(0)] * 5 + [F(1, 2), F(0)])
        with pytest.raises(ValidationError, match="cycle"):
            validate_yflow(ctx, a, paths)

    def test_rejects_capacity_weighted_overflow(self):
        # arc (1,2) would carry fl = 5 from the source but L(1) = 1: the
        # interior capacity clause, which implies the capacity-weighted
        # bound on every arc, rejects the flow before it is applied
        ctx = RoundingContext(path_graph(3), (5, 1, 9))
        a = Assignment(3, y=[F(1), F(1), F(0)])
        flow = [(F(1), (0, 1, 2))]
        with pytest.raises(ValidationError, match="capacity below source"):
            validate_yflow(ctx, a, flow)
        with pytest.raises(ValidationError, match="capacity below source"):
            chain_shift(ctx, a, flow)
        assert a.y == [F(1), F(1), F(0)]


class TestChainShift:
    def test_frozen_scenario_exact(self):
        ctx, a = chain_scenario()
        chain_shift(ctx, a, CHAIN_PATHS)
        assert tuple(a.y) == CHAIN_Y1
        for u in range(7):
            assert a.x_row(u) == CHAIN_X1[u], f"row {u}"

    def test_empty_flow_is_noop(self):
        ctx, a = chain_scenario()
        before = a.copy()
        chain_shift(ctx, a, [])
        assert a.y == before.y and a.x == before.x

    def test_delta_respects_arc_distance_law(self):
        ctx, a = chain_scenario()
        pre = global_delta(a, ctx.graph)
        chain_shift(ctx, a, CHAIN_PATHS)
        d_max = 3  # longest arc is (3, 6)
        assert global_delta(a, ctx.graph) <= pre + d_max

    def test_invalid_flow_leaves_state_untouched(self):
        ctx, a = chain_scenario()
        before = a.copy()
        with pytest.raises(ValidationError):
            chain_shift(ctx, a, [(F(1, 2), (0, 2, 3, 6))])
        assert a.y == before.y and a.x == before.x

    def test_random_flows_keep_lp_constraints(self):
        rng = random.Random(23)
        ran = 0
        for _ in range(400):
            case = rand_chain_case(rng)
            if case is None:
                continue
            graph, caps, a, paths = case
            ctx = RoundingContext(graph, caps)
            k = a.sum_y()
            pre = global_delta(a, graph)
            d_max = max(
                max(graph.hop_distances()[p[i]][p[i + 1]] for i in range(len(p) - 1))
                for _, p in paths
            )
            chain_shift(ctx, a, paths)
            assert a.sum_y() == k
            assert verify_assignment_feasible(graph, caps, k, a, pre + d_max)
            ran += 1
        assert ran >= 200


class TestTraceReplay:
    def test_round_trip(self):
        ctx, a = chain_scenario()
        ctx.trace = TraceLog()
        start = a.copy()
        chain_shift(ctx, a, CHAIN_PATHS)
        shift(ctx, a, 0, 4, F(1, 10))
        text = ctx.trace.to_text()
        assert text.splitlines()[0].startswith("chain 3 delta ")
        replayed = replay_trace(ctx, start, text)
        assert replayed.y == a.y
        assert replayed.x == a.x
        assert start.y[0] == F(2, 5)  # replay works on a copy

    def test_divergent_delta_detected(self):
        ctx, a = chain_scenario()
        ctx.trace = TraceLog()
        start = a.copy()
        chain_shift(ctx, a, CHAIN_PATHS)
        lines = ctx.trace.to_text().splitlines()
        lines[0] = "chain 3 delta 0"
        with pytest.raises(ValidationError):
            replay_trace(ctx, start, "\n".join(lines) + "\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("chain 2 delta 1\npath 1/2 0 1\n", 1),  # one path line short
            ("chain 1 delta 1\nshift 0 1 1/2 delta 1\n", 2),  # not a path line
            ("chain 1 delta 1\npath 1/x 0 1\n", 2),
            ("chain x delta 1\n", 1),
            ("chain -1 delta 1\n", 1),
            ("shift 0 1 1/2\n", 1),  # no recorded delta
            ("shift 0 1 1/2 radius 1\n", 1),
            ("group 2 0\n", 1),
            ("group x 0 1 delta 0\n", 1),
            ("group 3 0 1 delta 0\n", 1),
            ("# component 0 1\n\nswap 0 1\n", 3),
            ("shift 0 9 1/2 delta 0\n", 1),  # vertex ids outside 0..n-1
            ("shift 0 2 1/2 delta 0\n", 1),
            ("shift -1 0 1/2 delta 0\n", 1),
            ("group 2 0 7 delta 0\n", 1),
            ("group 2 -1 0 delta 0\n", 1),
            ("chain 1 delta 0\npath 1/2 0 9\n", 2),
            ("chain 1 delta 0\npath 1/2 -1 0\n", 2),
            ("chain 1 delta 0\npath 1/2\n", 2),  # fewer than two vertices
            ("chain 1 delta 0\npath 1/2 0\n", 2),
            ("shift 0 0 1/2 delta 0\n", 1),  # well formed, refused by shift
            ("shift 0 1 5 delta 0\n", 1),
            ("shift 0 1 1/4 delta 0\nshift 0 1 1/4 delta 2\n", 2),  # delta diverges
            ("chain 1 delta 0\npath 1/2 0 0\n", 1),  # refused: the chain's first line
            ("chain 1 delta 0\npath 1/2 1 0\n", 1),  # x is empty, so the LP check refuses
        ],
    )
    def test_malformed_line_is_named(self, text, line):
        ctx = RoundingContext(path_graph(2), (1, 1))
        a = Assignment(2, y=[F(1, 2), F(1, 2)])
        with pytest.raises(ValidationError, match=f"^trace replay: line {line}: "):
            replay_trace(ctx, a, text)

    def test_group_line_round_trip(self):
        g = path_graph(3)
        ctx = RoundingContext(g, (1, 2, 3), trace=TraceLog())
        a = Assignment(3, y=[F(1, 2), F(1, 2), F(1, 2)])
        start = a.copy()
        group_shift(ctx, a, [0, 1, 2])
        replayed = replay_trace(ctx, start, ctx.trace.to_text())
        assert replayed.y == a.y
