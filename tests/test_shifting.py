import random
from collections import Counter
from fractions import Fraction

import pytest

from capkc.assignment import Assignment, global_delta
from capkc.errors import PipelineError, ValidationError
from capkc.graph_core import Graph
from capkc.lp_feasibility import verify_assignment_feasible
from capkc import shifting
from capkc.shifting import (
    RoundingContext,
    _move_x,
    chain_shift,
    group_shift,
    replay_trace,
    shift,
    validate_yflow,
)

from helpers import (
    Refused,
    assert_outcome,
    path_graph,
    rand_chain_case,
    seeded_lp_points,
    trace_text,
)


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
        expect_fl = {
            (0, 2): F(2, 5),
            (1, 2): F(4, 5),
            (2, 3): F(6, 5),
            (3, 4): F(3, 5),
            (3, 5): F(1, 5),
            (3, 6): F(2, 5),
        }
        assert arcs == expect_fl
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

    def test_every_loaded_arc_tail_serves(self):
        # chain_shift divides each arc's flow fl > 0 by L(u) * y_u of its tail
        # u: the source (y at least its outflow) or an interior vertex (y = 1,
        # L at least the source's), so with fl > 0 that product is positive
        rng = random.Random(29)
        loaded = 0
        for _ in range(400):
            case = rand_chain_case(rng)
            if case is None:
                continue
            graph, caps, a, paths = case
            arcs, _, _ = validate_yflow(RoundingContext(graph, caps), a, paths)
            for (u, _), fl in arcs.items():
                assert fl >= 0
                if fl:
                    assert caps[u] * a.y[u] > 0
                    loaded += 1
        assert loaded >= 400

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


def fraction_move_x(assignment, moves):
    """_move_x in plain Fraction arithmetic: net every amount, then apply in insertion order."""
    net = {}
    for u, w, share in moves:
        for v, q in assignment.x_row(u).items():
            amt = share * q
            net[(u, v)] = net.get((u, v), 0) - amt
            net[(w, v)] = net.get((w, v), 0) + amt
    for (p, v), dq in net.items():
        if dq != 0:
            assignment.set_x(p, v, assignment.get_x(p, v) + dq)


def rand_shares(rng, whole):
    """Shares over mixed denominators; they total exactly 1 when whole, else less."""
    weights = [F(rng.randint(1, 5), rng.randint(1, 7)) for _ in range(rng.randint(1, 3))]
    scale = sum(weights) if whole else sum(weights) + F(rng.randint(1, 4), rng.randint(1, 5))
    return [q / scale for q in weights]


def rand_moves_case(rng):
    """An x state and a move list for _move_x, every source giving up at most its row.

    Entries are ints and Fractions; some vertices have no row, so moves land
    on fresh rows and entries; targets repeat; a whole source row moved out
    cancels to exactly 0 over several denominators and the row empties.
    """
    n = rng.randint(3, 8)
    a = Assignment(n)
    for u in rng.sample(range(n), rng.randint(1, n)):
        for v in rng.sample(range(n), rng.randint(1, n)):
            a.set_x(u, v, 1 if rng.random() < 0.3 else F(rng.randint(1, 9), rng.randint(1, 12)))
    moves = []
    for u in range(n):
        if rng.random() < 0.5:
            continue
        targets = [w for w in range(n) if w != u]
        for share in rand_shares(rng, whole=rng.random() < 0.5):
            moves.append((u, rng.choice(targets[:2] if rng.random() < 0.5 else targets), share))
    rng.shuffle(moves)
    return a, moves


def x_state(a):
    """x with its row and entry order and each value's type: all that _move_x may set."""
    return [(u, [(v, type(q), q) for v, q in row.items()]) for u, row in a.x.items()]


class TestIntMoves:
    def test_random_moves_match_fraction_arithmetic(self):
        rng = random.Random(61)
        seen = Counter()
        for _ in range(600):
            a, moves = rand_moves_case(rng)
            ref = a.copy()
            rows_before = set(a.x)
            entries_before = {(u, v) for u, row in a.x.items() for v in row}
            seen["int entry"] += any(type(q) is int for row in a.x.values() for q in row.values())
            seen["repeated target"] += len({w for _, w, _ in moves}) < len(moves)
            seen["fresh row"] += any(w not in rows_before for _, w, _ in moves)
            _move_x(a, moves)
            fraction_move_x(ref, moves)
            assert x_state(a) == x_state(ref)
            seen["emptied row"] += bool(rows_before - set(a.x))
            seen["cancelled entry"] += any(v not in a.x_row(u) for u, v in entries_before)
        assert len(seen) == 5 and min(seen.values()) >= 50, seen

    def test_overdrawn_rows_fail_alike(self):
        # shares doubled: a source row moved out whole now goes negative, and
        # set_x refuses it at the same entry, after the same earlier changes
        rng = random.Random(67)
        refused = 0
        for _ in range(300):
            a, moves = rand_moves_case(rng)
            moves = [(u, w, 2 * share) for u, w, share in moves]
            ref = a.copy()
            outcomes = []
            for move, state in ((_move_x, a), (fraction_move_x, ref)):
                try:
                    move(state, moves)
                    outcomes.append(None)
                except PipelineError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            assert x_state(a) == x_state(ref)
            refused += outcomes[0] is not None
        assert refused >= 100

    def test_one_fraction_per_changed_entry(self, monkeypatch):
        built = []

        def counting_fraction(*args):
            built.append(args)
            return F(*args)

        monkeypatch.setattr(shifting, "Fraction", counting_fraction)
        rng = random.Random(71)
        for _ in range(200):
            a, moves = rand_moves_case(rng)
            before = {(u, v): q for u, row in a.x.items() for v, q in row.items()}
            built.clear()
            _move_x(a, moves)
            after = {(u, v): q for u, row in a.x.items() for v, q in row.items()}
            changed = [e for e in before.keys() | after.keys() if before.get(e) != after.get(e)]
            assert len(built) == len(changed)


class TestOneTransfer:
    def test_shift_is_a_one_arc_chain_shift(self):
        # x follows y through the same transfer in both primitives
        rng = random.Random(41)
        compared = 0
        for g, caps, _, point in seeded_lp_points(seed=3, count=20):
            ctx = RoundingContext(g, caps)
            fractional = [v for v, q in enumerate(point.y) if q.denominator != 1]
            pairs = [(a, b) for a in fractional for b in fractional
                     if a != b and caps[a] <= caps[b]]
            for a, b in rng.sample(pairs, min(4, len(pairs))):
                alpha = min(point.y[a], 1 - point.y[b])
                by_shift, by_chain = point.copy(), point.copy()
                shift(ctx, by_shift, a, b, alpha)
                chain_shift(ctx, by_chain, [(alpha, (a, b))])
                assert by_shift.y == by_chain.y
                assert by_shift.x == by_chain.x
                compared += 1
        assert compared >= 40


class TestTraceReplay:
    def test_trail_is_a_list_of_lines(self):
        ctx, a = chain_scenario()
        ctx.trace = trail = []
        chain_shift(ctx, a, CHAIN_PATHS)
        group_shift(ctx, a, [0, 4])  # both fractional: one inner shift, 0 -> 4
        assert a.y[0] == 0 and a.y[4] == F(4, 5)
        assert trail == [
            "chain 3 delta 3",
            "path 1/5 0 2 3 6",
            "path 3/5 1 2 3 4",
            "path 1/5 1 2 3 5",
            "group 2 0 4 delta 4",
        ]

    def test_round_trip(self):
        ctx, a = chain_scenario()
        ctx.trace = []
        start = a.copy()
        chain_shift(ctx, a, CHAIN_PATHS)
        shift(ctx, a, 0, 4, F(1, 10))
        text = trace_text(ctx.trace)
        assert text.splitlines()[0].startswith("chain 3 delta ")
        replayed = replay_trace(ctx, start, text)
        assert replayed.y == a.y
        assert replayed.x == a.x
        assert start.y[0] == F(2, 5)  # replay works on a copy

    def test_divergent_delta_detected(self):
        ctx, a = chain_scenario()
        ctx.trace = []
        start = a.copy()
        chain_shift(ctx, a, CHAIN_PATHS)
        lines = list(ctx.trace)
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
        ctx = RoundingContext(g, (1, 2, 3), trace=[])
        a = Assignment(3, y=[F(1, 2), F(1, 2), F(1, 2)])
        start = a.copy()
        group_shift(ctx, a, [0, 1, 2])
        replayed = replay_trace(ctx, start, trace_text(ctx.trace))
        assert replayed.y == a.y


def two_apart():
    """Two isolated vertices with y = (1/2, 0); vertex 0 serves half of itself."""
    a = Assignment(2, y=[F(1, 2), F(0)])
    a.set_x(0, 0, F(1, 2))
    return RoundingContext(Graph(2, []), [1, 1]), a


class TestInputChecks:
    @pytest.mark.parametrize(
        "call, expected",
        [
            (
                lambda: RoundingContext(path_graph(2), [1]),
                Refused(ValidationError, "capacity list length mismatch"),
            ),
            (
                lambda: shift(*two_apart(), 1, 0, F(1, 2)),
                Refused(ValidationError, "shift source 1 has no y mass"),
            ),
            (
                lambda: chain_shift(*two_apart(), [(F(1, 2), (0, 1))]),
                Refused(ValidationError, r"y-flow arc \(0,1\) spans components"),
            ),
        ],
        ids=["capacity-count", "empty-shift-source", "arc-across-components"],
    )
    def test_check(self, call, expected):
        assert_outcome(call, expected)
