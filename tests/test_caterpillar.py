import hashlib
import inspect
import random
import sys
from fractions import Fraction
from itertools import islice

import pytest

import capkc.caterpillar as caterpillar
from capkc.assignment import Assignment, dump_assignment, global_delta, radius_of
from capkc.caterpillar import (
    Caterpillar,
    build_caterpillar,
    build_rounding_flow,
    gamma,
    is_safe,
    make_safe,
    round_y,
    separability_witness,
    separate,
    validate_caterpillar,
)
from capkc.errors import PipelineError, ValidationError
from capkc.graph_core import Graph
from capkc.lp_feasibility import build_lp1, solve_feasibility, verify_assignment_feasible
from capkc.shifting import RoundingContext, chain_shift, replay_trace

from helpers import (
    Refused,
    assert_outcome,
    path_graph,
    rand_connected_graph,
    seeded_lp_points,
    trace_text,
    two_hub_gadget,
    two_hub_witness,
)
from rounding_scenarios import SCENARIOS, scenario


F = Fraction


def star_assignment(n, spine, leaf_y, x_pairs=None):
    """y = 1 on `spine`, `leaf_y` maps vertex -> fraction, x from pairs."""
    a = Assignment(n)
    for v in spine:
        a.y[v] = F(1)
    for v, q in leaf_y.items():
        a.y[v] = q
    for (u, v), q in (x_pairs or {}).items():
        a.set_x(u, v, q)
    return a


def self_serving_x(a, spine, leaf_anchor):
    """Spine vertices serve themselves; each leaf splits between itself and its anchor."""
    for v in spine:
        a.set_x(v, v, F(1))
    for u, s in leaf_anchor.items():
        a.set_x(u, u, a.y[u])
        a.set_x(s, u, 1 - a.y[u])


# ---------------------------------------------------------------------------
# frozen seven-spine scenarios
#
# "wide": a separable structure; spine capacities (2,1,5,5,3,5,5), six leaves.
# "narrow": a dangerous but non-separable structure; every side of every
# low spine vertex is short on headroom.

WIDE_SPINE_CAPS = (2, 1, 5, 5, 3, 5, 5)
WIDE_LEAF = {7: F(1, 2), 8: F(4, 5), 9: F(1, 2), 10: F(9, 10), 11: F(3, 5), 12: F(7, 10)}
WIDE_LEAF_CAPS = {7: 4, 8: 2, 9: 1, 10: 4, 11: 4, 12: 4}
WIDE_ANCHOR = {7: 0, 8: 0, 9: 2, 10: 3, 11: 5, 12: 6}


def wide_case():
    edges = [(i, i + 1) for i in range(6)] + sorted(
        (min(u, s), max(u, s)) for u, s in WIDE_ANCHOR.items()
    )
    g = Graph(13, edges)
    caps = list(WIDE_SPINE_CAPS) + [WIDE_LEAF_CAPS[u] for u in range(7, 13)]
    a = star_assignment(13, range(7), WIDE_LEAF)
    self_serving_x(a, range(7), WIDE_ANCHOR)
    cat = Caterpillar(1, tuple(range(7)), (7, 8, None, 9, 10, None, 11, 12, None))
    return RoundingContext(g, caps), a, cat


NARROW_SPINE_CAPS = (9, 9, 2, 9, 2, 9, 9)
NARROW_LEAF = {
    7: F(2, 5), 8: F(7, 10), 9: F(4, 5), 10: F(1, 5), 11: F(4, 5), 12: F(3, 5), 13: F(1, 2)
}
NARROW_LEAF_CAPS = {7: 5, 8: 1, 9: 1, 10: 1, 11: 1, 12: 1, 13: 5}
NARROW_ANCHOR = {7: 0, 8: 0, 9: 2, 10: 3, 11: 4, 12: 5, 13: 6}


def narrow_case():
    edges = [(i, i + 1) for i in range(6)] + sorted(
        (min(u, s), max(u, s)) for u, s in NARROW_ANCHOR.items()
    )
    g = Graph(14, edges)
    caps = list(NARROW_SPINE_CAPS) + [NARROW_LEAF_CAPS[u] for u in range(7, 14)]
    a = star_assignment(14, range(7), NARROW_LEAF)
    self_serving_x(a, range(7), NARROW_ANCHOR)
    cat = Caterpillar(1, tuple(range(7)), (7, 8, None, 9, 10, 11, 12, 13, None))
    return RoundingContext(g, caps), a, cat


# ---------------------------------------------------------------------------
# the structure type and its validator


class TestCaterpillarType:
    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="spine length plus two"):
            Caterpillar(1, (0, 1), (None, None))

    def test_delta_positive(self):
        with pytest.raises(ValidationError, match="delta"):
            Caterpillar(0, (0,), (None, None, None))

    def test_reverse_involution(self):
        cat = Caterpillar(3, (0, 1, 2), (5, None, 6, None, 7))
        assert cat.reverse().reverse() == cat
        assert cat.reverse().spine == (2, 1, 0)
        assert cat.reverse().leaves == (7, None, 6, None, 5)

    def test_anchors_clamp_to_spine_ends(self):
        cat = Caterpillar(1, (4, 5, 6), (0, 1, 2, 3, 9))
        assert [cat.anchor(j) for j in range(5)] == [4, 4, 5, 6, 6]


class TestValidate:
    def ok(self):
        # path 0-1-2 with leaves 3,4 on the ends
        g = Graph(5, [(0, 1), (1, 2), (0, 3), (2, 4)])
        caps = [3, 3, 3, 2, 2]
        a = star_assignment(5, (0, 1, 2), {3: F(1, 2), 4: F(1, 2)})
        return RoundingContext(g, caps), a, Caterpillar(1, (0, 1, 2), (3, None, None, None, 4))

    def test_valid(self):
        ctx, a, cat = self.ok()
        validate_caterpillar(ctx, a, cat)

    def test_out_of_range(self):
        ctx, a, _ = self.ok()
        with pytest.raises(ValidationError, match="out of range"):
            validate_caterpillar(ctx, a, Caterpillar(1, (0, 9), (None, None, None, None)))

    def test_spine_repeat(self):
        ctx, a, _ = self.ok()
        with pytest.raises(ValidationError, match="spine vertex repeats"):
            validate_caterpillar(ctx, a, Caterpillar(1, (0, 0), (None, None, None, None)))

    def test_spine_needs_full_y(self):
        ctx, a, cat = self.ok()
        a.y[1] = F(1, 2)
        with pytest.raises(ValidationError, match="must have y = 1"):
            validate_caterpillar(ctx, a, cat)

    def test_spine_gap(self):
        ctx, a, _ = self.ok()
        with pytest.raises(ValidationError, match="spine gap"):
            validate_caterpillar(ctx, a, Caterpillar(1, (0, 2), (None, None, None, None)))

    def test_leaf_on_spine(self):
        ctx, a, _ = self.ok()
        with pytest.raises(ValidationError, match="lies on the spine"):
            validate_caterpillar(ctx, a, Caterpillar(1, (0, 1, 2), (None, 2, None, None, None)))

    def test_leaf_needs_fractional_y(self):
        ctx, a, cat = self.ok()
        a.y[3] = F(1)
        with pytest.raises(ValidationError, match="fractional"):
            validate_caterpillar(ctx, a, cat)

    def test_leaf_distance(self):
        ctx, a, _ = self.ok()
        # leaf 4 hangs off vertex 2, far from anchor 0
        cat = Caterpillar(1, (0, 1, 2), (4, None, None, None, 3))
        with pytest.raises(ValidationError, match="too far"):
            validate_caterpillar(ctx, a, cat)

    def test_middle_leaf_capacity(self):
        g = Graph(3, [(0, 1), (0, 2)])
        ctx = RoundingContext(g, [1, 3, 3])
        a = star_assignment(3, (0,), {1: F(1, 2), 2: F(1, 2)})
        with pytest.raises(ValidationError, match="outgrows"):
            validate_caterpillar(ctx, a, Caterpillar(1, (0,), (None, 1, 2)))

    def test_end_leaf_capacity_free(self):
        # end slots carry no capacity constraint
        g = Graph(3, [(0, 1), (0, 2)])
        ctx = RoundingContext(g, [1, 3, 3])
        a = star_assignment(3, (0,), {1: F(1, 2), 2: F(1, 2)})
        validate_caterpillar(ctx, a, Caterpillar(1, (0,), (1, None, 2)))

    def test_leaf_repeats(self):
        g = Graph(3, [(0, 1), (1, 2)])
        ctx = RoundingContext(g, [3, 3, 3])
        a = star_assignment(3, (1,), {0: F(1, 2)})
        with pytest.raises(ValidationError, match="leaf repeats"):
            validate_caterpillar(ctx, a, Caterpillar(1, (1,), (0, None, 0)))

    def test_leaf_total_integral(self):
        ctx, a, cat = self.ok()
        a.y[4] = F(1, 3)
        with pytest.raises(ValidationError, match="total an integer"):
            validate_caterpillar(ctx, a, cat)

    def test_empty_spine_carries_nothing(self):
        ctx, a, _ = self.ok()
        with pytest.raises(ValidationError, match="empty spine"):
            validate_caterpillar(ctx, a, Caterpillar(1, (), (3, None)))
        validate_caterpillar(ctx, a, Caterpillar(1, (), (None, None)))


# ---------------------------------------------------------------------------
# endangered vertices and witnesses


class TestGammaAndWitness:
    def test_wide_gamma(self):
        ctx, a, cat = wide_case()
        assert gamma(cat, ctx.capacities) == {0, 1, 4}
        assert not is_safe(cat, ctx.capacities)

    def test_wide_witness_prefers_right(self):
        # both sides of the minimum-capacity vertex qualify; right wins
        ctx, a, cat = wide_case()
        w = separability_witness(cat, a, ctx.capacities)
        assert w == (2, "right", F(4, 5), F(27, 10))
        rw = separability_witness(cat.reverse(), a, ctx.capacities)
        assert rw == (6, "right", F(7, 10), F(13, 10))

    def test_narrow_gamma(self):
        ctx, a, cat = narrow_case()
        assert gamma(cat, ctx.capacities) == {2, 4}

    def test_narrow_has_no_witness(self):
        ctx, a, cat = narrow_case()
        assert separability_witness(cat, a, ctx.capacities) is None

    def test_empty_structure_is_safe(self):
        cat = Caterpillar(1, (), (None, None))
        assert gamma(cat, [5]) == frozenset()
        assert is_safe(cat, [5])
        assert separability_witness(cat, Assignment(1), [5]) is None

    def test_leafless_structure_is_safe(self):
        cat = Caterpillar(1, (0, 1), (None, None, None, None))
        assert gamma(cat, [2, 2]) == frozenset()


# ---------------------------------------------------------------------------
# construction


class TestBuildCaterpillar:
    def test_trivial_path_spine_keeps_the_open_vertex(self):
        g = path_graph(3)
        ctx = RoundingContext(g, [3, 3, 3])
        a = Assignment(3)
        a.y[1] = F(1)
        for v in range(3):
            a.set_x(1, v, F(1))
        cat = build_caterpillar(ctx, a)
        assert cat == Caterpillar(21, (1,), (None, None, None))
        assert a.y == [F(0), F(1), F(0)]

    def test_rejects_disconnected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        ctx = RoundingContext(g, [2, 2, 2, 2])
        with pytest.raises(ValidationError, match="connected"):
            build_caterpillar(ctx, Assignment(4))

    def test_rejects_fractional_total(self):
        g = path_graph(2)
        ctx = RoundingContext(g, [2, 2])
        a = Assignment(2)
        a.y[0] = F(1, 2)
        with pytest.raises(ValidationError, match="integer"):
            build_caterpillar(ctx, a)

    def test_rejects_infeasible_assignment(self):
        g = path_graph(3)
        ctx = RoundingContext(g, [3, 1, 3])
        a = Assignment(3)
        a.y[1] = F(1)
        for v in range(3):
            a.set_x(1, v, F(1))
        with pytest.raises(ValidationError, match="not feasible"):
            build_caterpillar(ctx, a)

    def test_hub_pair_collapses_to_one_anchor(self):
        g = Graph(6, two_hub_gadget())
        ctx = RoundingContext(g, [4] * 6)
        a = Assignment(6)
        two_hub_witness(a)
        a.y[2] = F(1, 2)
        cat = build_caterpillar(ctx, a)
        assert cat == Caterpillar(21, (0,), (None, None, None))
        assert a.y == [F(1), F(0), F(1), F(0), F(0), F(0)]

    def test_donor_key_needs_no_negation(self):
        # the sweep's donor: most capacity, then most y, then the least id;
        # max over (caps, y, -u) picks what min over (-caps, -y, u) did
        rng = random.Random(25)
        by_id = 0
        for _ in range(3000):
            n = rng.randint(1, 10)
            caps = [rng.choice([0, 2, 2, 5]) for _ in range(n)]
            y = [rng.choice([0, F(1, 2), F(1, 2), F(2, 3), 1]) for _ in range(n)]
            ball = rng.sample(range(n), rng.randint(1, n))
            old = min(ball, key=lambda u: (-caps[u], -y[u], u))
            assert max(ball, key=lambda u: (caps[u], y[u], -u)) == old
            by_id += sum((caps[u], y[u]) == (caps[old], y[old]) for u in ball) > 1
        assert by_id >= 250


# ---------------------------------------------------------------------------
# separation


class TestSeparate:
    def test_non_separable_is_untouched(self):
        ctx, a, cat = narrow_case()
        y0 = list(a.y)
        out = separate(ctx, a, cat)
        assert out == [cat]
        assert a.y == y0

    def test_integral_side_splits_without_shifting(self):
        # spine (0,1), capacities (1,9); the right side's leaf mass is already 1
        g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
        ctx = RoundingContext(g, [1, 9, 3, 1, 3, 3])
        a = star_assignment(
            6, (0, 1), {2: F(3, 10), 3: F(7, 10), 4: F(9, 20), 5: F(11, 20)}
        )
        cat = Caterpillar(1, (0, 1), (2, 3, 4, 5))
        w = separability_witness(cat, a, ctx.capacities)
        assert w == (1, "right", F(1), F(1))
        y0 = list(a.y)
        out = separate(ctx, a, cat)
        assert out == [
            Caterpillar(1, (0,), (2, 3, None)),
            Caterpillar(1, (1,), (None, 4, 5)),
        ]
        assert a.y == y0

    def test_wide_case_full_split(self):
        ctx, a, cat = wide_case()
        trace = []
        ctx = RoundingContext(ctx.graph, ctx.capacities, trace=trace)
        out = separate(ctx, a, cat)
        # the witness at spine vertex 1 pushes 3/10 into the bigger right leaves
        assert a.y[1] == F(7, 10)
        assert a.y[10] == F(1)
        assert a.y[11] == F(4, 5)
        assert out == [
            Caterpillar(1, (2, 3, 4, 5, 6), (None, 9, None, None, 11, 12, None)),
            Caterpillar(1, (0,), (7, 8, 1)),
        ]
        assert "path 1/10 1 2 3 10" in trace
        assert "path 1/5 1 2 3 4 5 11" in trace
        for c in out:
            assert separability_witness(c, a, ctx.capacities) is None
        # vertex 10 was filled and dropped
        assert verify_assignment_feasible(ctx.graph, ctx.capacities, 11, a, 5)

    def test_left_witness_runs_mirrored(self):
        # right side lacks headroom at the weak vertex; left side certifies
        g = Graph(7, [(0, 1), (1, 2), (0, 3), (0, 4), (2, 5), (2, 6)])
        ctx = RoundingContext(g, [9, 1, 9, 3, 2, 1, 3])
        a = star_assignment(
            7, (0, 1, 2), {3: F(1, 2), 4: F(1, 4), 5: F(1, 2), 6: F(3, 4)}
        )
        self_serving_x(a, (0, 1, 2), {3: 0, 4: 0, 5: 2, 6: 2})
        cat = Caterpillar(1, (0, 1, 2), (3, 4, None, 5, 6))
        w = separability_witness(cat, a, ctx.capacities)
        assert w == (2, "left", F(5, 4), F(3, 4))
        out = separate(ctx, a, cat)
        assert a.y == [F(1), F(3, 4), F(1), F(1, 2), F(1, 2), F(1, 2), F(3, 4)]
        assert out == [
            Caterpillar(1, (0,), (3, 4, None)),
            Caterpillar(1, (2,), (1, 5, 6)),
        ]

    def test_left_witness_off_centre_runs_mirrored(self):
        # as above with spine vertex 7 put in front: the witness sits at
        # position 3 of 4, which mirrors to position 2
        g = Graph(8, [(0, 1), (1, 2), (0, 3), (0, 4), (2, 5), (2, 6), (7, 0), (7, 3)])
        ctx = RoundingContext(g, [9, 1, 9, 3, 2, 1, 3, 9])
        a = star_assignment(
            8, (7, 0, 1, 2), {3: F(1, 2), 4: F(1, 4), 5: F(1, 2), 6: F(3, 4)}
        )
        self_serving_x(a, (7, 0, 1, 2), {3: 7, 4: 0, 5: 2, 6: 2})
        cat = Caterpillar(1, (7, 0, 1, 2), (3, None, 4, None, 5, 6))
        assert separability_witness(cat, a, ctx.capacities) == (3, "left", F(5, 4), F(3, 4))
        out = separate(ctx, a, cat)
        assert a.y == [F(1), F(3, 4), F(1), F(1, 2), F(1, 2), F(1, 2), F(3, 4), F(1)]
        assert out == [
            Caterpillar(1, (7, 0), (3, None, 4, None)),
            Caterpillar(1, (2,), (1, 5, 6)),
        ]

    def test_head_split_regroups_everything_away(self):
        # single spine vertex between two big leaves: the flow fills the right
        # leaf, the regroup empties the spine vertex into the left leaf
        g = Graph(3, [(0, 1), (1, 2)])
        ctx = RoundingContext(g, [5, 3, 5])
        a = star_assignment(3, (1,), {0: F(1, 2), 2: F(1, 2)})
        a.set_x(1, 1, F(1))
        a.set_x(0, 0, F(1, 2))
        a.set_x(1, 0, F(1, 2))
        a.set_x(2, 2, F(1, 2))
        a.set_x(1, 2, F(1, 2))
        cat = Caterpillar(1, (1,), (0, None, 2))
        out = separate(ctx, a, cat)
        assert out == []
        assert a.y == [F(1), F(0), F(1)]

    def test_rejects_invalid_structure(self):
        ctx, a, cat = wide_case()
        a.y[0] = F(1, 2)
        with pytest.raises(ValidationError, match="y = 1"):
            separate(ctx, a, cat)


# ---------------------------------------------------------------------------
# defusing


class TestMakeSafe:
    def test_safe_inputs_come_back_as_is(self):
        ctx, a, cat = wide_case()
        parts = separate(ctx, a, cat)
        assert make_safe(ctx, a, parts) == parts

    def test_rejects_separable_input(self):
        ctx, a, cat = wide_case()
        with pytest.raises(ValidationError, match="non-separable"):
            make_safe(ctx, a, [cat])

    def test_narrow_case_single_pass(self):
        ctx, a, cat = narrow_case()
        trace = []
        ctx = RoundingContext(ctx.graph, ctx.capacities, trace=trace)
        out = make_safe(ctx, a, [cat])
        # vertex 2 drains 3/5 into leaf 7 and 2/5 into leaf 13, then leaves
        # the spine; its leaf 9 takes the vacated slot
        assert "path 3/5 2 1 0 7" in trace
        assert "path 2/5 2 3 4 5 6 13" in trace
        assert a.y[2] == F(0)
        assert a.y[7] == F(1)
        assert a.y[13] == F(9, 10)
        assert out == [
            Caterpillar(2, (0, 1, 3, 4, 5, 6), (None, 8, 9, 10, 11, 12, 13, None))
        ]
        assert is_safe(out[0], ctx.capacities)
        assert verify_assignment_feasible(ctx.graph, ctx.capacities, 11, a, 3)

    def test_narrow_case_drains_fully(self):
        ctx, a, cat = narrow_case()
        (safe,) = make_safe(ctx, a, [cat])
        flow = build_rounding_flow(safe, a, ctx.capacities)
        chain_shift(ctx, a, flow)
        assert all(a.y[v] in (F(0), F(1)) for v in safe.vertices())
        assert a.sum_y() == 11
        assert verify_assignment_feasible(
            ctx.graph, ctx.capacities, 11, a, global_delta(a, ctx.graph)
        )


# ---------------------------------------------------------------------------
# rounding flows


class TestRoundingFlow:
    def test_leafless_structure_gives_empty_flow(self):
        g = path_graph(3)
        a = star_assignment(3, (1,), {})
        flow = build_rounding_flow(Caterpillar(1, (1,), (None, None, None)), a, [3, 3, 3])
        assert flow == []

    def test_two_leaves_single_drain_path(self):
        g = Graph(3, [(0, 1), (0, 2)])
        a = star_assignment(3, (0,), {1: F(3, 10), 2: F(7, 10)})
        cat = Caterpillar(1, (0,), (1, 2, None))
        flow = build_rounding_flow(cat, a, [5, 1, 2])
        assert flow == [(F(3, 10), (1, 0, 2))]
        assert {path[0] for _, path in flow} == {1}
        assert {path[-1] for _, path in flow} == {2}
        a.set_x(0, 0, F(1))
        a.set_x(1, 1, F(3, 10))
        a.set_x(0, 1, F(7, 10))
        a.set_x(2, 2, F(7, 10))
        a.set_x(0, 2, F(3, 10))
        ctx = RoundingContext(g, [5, 1, 2])
        chain_shift(ctx, a, flow)
        assert a.y == [F(1), F(0), F(1)]

    def test_rejects_unsafe_structure(self):
        ctx, a, cat = narrow_case()
        with pytest.raises(ValidationError, match="safe"):
            build_rounding_flow(cat, a, ctx.capacities)

    def test_rejects_fractional_leaf_total(self):
        g = Graph(2, [(0, 1)])
        a = star_assignment(2, (0,), {1: F(1, 2)})
        with pytest.raises(ValidationError, match="integral leaf total"):
            build_rounding_flow(Caterpillar(1, (0,), (None, 1, None)), a, [2, 2])

    def test_assignment_is_not_touched(self):
        ctx, a, cat = narrow_case()
        (safe,) = make_safe(ctx, a, [cat])
        y0 = list(a.y)
        build_rounding_flow(safe, a, ctx.capacities)
        assert a.y == y0


def slot_structure(spine_caps, leaf_caps, leaf_y):
    """A structure on spine 0..p-1 whose live leaf slots (capacity not None) follow it."""
    p = len(spine_caps)
    caps = list(spine_caps)
    y = [F(1)] * p
    leaves = []
    for c, q in zip(leaf_caps, leaf_y):
        leaves.append(None if c is None else len(caps))
        if c is not None:
            caps.append(c)
            y.append(q)
    return Caterpillar(1, tuple(range(p)), tuple(leaves)), Assignment(len(caps), y=y), caps


def rflow_line(before, line):
    """Number of the line of _rflow reading `line` right after one reading `before`."""
    src, first = inspect.getsourcelines(caterpillar._rflow)
    src = [text.strip() for text in src]
    (hit,) = [first + t for t in range(1, len(src)) if src[t - 1] == before and src[t] == line]
    return hit


def rflow_lines_run(run):
    """run() and, for each _rflow call, the set of its line numbers executed."""
    code = caterpillar._rflow.__code__
    calls = []

    def on_call(frame, event, arg):
        if frame.f_code is not code:
            return None
        seen = set()
        calls.append(seen)

        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return on_line

        return on_line

    outer = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(outer)
    return result, calls


class TestRoundingFlowBranches:
    # stand-in branches that the pipeline tests never reach: a path the
    # drained or filled stand-in leaf passes on untouched, and a real leaf's
    # budget running out while the stand-in's outflow is re-sourced
    @pytest.mark.parametrize(
        "spine_caps, leaf_caps, leaf_y, before, line, paths",
        [
            (
                (5, 7, 5),
                (2, 4, 4, 5, 3),
                (F(1, 2), F(4, 5), F(7, 10), F(1, 2), F(1, 2)),
                "if path[0] != ua:",
                "out.append((w, path))",
                [(F(1, 2), (7, 2, 6)), (F(3, 10), (3, 0, 1, 5)), (F(1, 5), (3, 0, 4))],
            ),
            (
                (1, 1, 4, 6),
                (None, 1, 1, 2, 1, 2),
                (None, F(3, 10), F(3, 10), F(9, 10), F(1, 5), F(3, 10)),
                "while bi < len(budgets) and budgets[bi][1] == 0:",
                "bi += 1",
                [
                    (F(1, 5), (7, 3, 8)),
                    (F(3, 10), (4, 0, 1, 2, 3, 8)),
                    (F(1, 5), (5, 1, 2, 3, 8)),
                    (F(1, 10), (5, 1, 2, 6)),
                ],
            ),
            (
                (5, 9, 1, 1),
                (4, 5, 3, 1, 1, None),
                (F(1, 2), F(4, 5), F(7, 10), F(7, 10), F(3, 10), None),
                "if path[-1] != ua:",
                "out.append((w, path))",
                [(F(3, 10), (8, 3, 2, 7)), (F(1, 5), (6, 1, 0, 5)), (F(1, 2), (6, 1, 0, 4))],
            ),
        ],
        ids=[
            "drained-stand-in-passes-a-path",
            "budget-exhausted",
            "filled-stand-in-passes-a-path",
        ],
    )
    def test_branch_runs_and_paths_are_pinned(
        self, spine_caps, leaf_caps, leaf_y, before, line, paths
    ):
        cat, a, caps = slot_structure(spine_caps, leaf_caps, leaf_y)
        assert is_safe(cat, caps)
        flow, calls = rflow_lines_run(lambda: build_rounding_flow(cat, a, caps))
        # one call both stands in for its crossing leaf and runs the branch
        stand_in = rflow_line("else:", "ua = next(fresh)")
        assert any({stand_in, rflow_line(before, line)} <= seen for seen in calls)
        assert flow == paths


def random_slot_structures(rng):
    """Endless slot_structure inputs: p in 1..7, capacities in 1..6, tenths of y.

    Each slot is live with probability 3/4, a middle leaf no bigger than its
    anchor; the last live leaf's y makes the leaf total an integer.
    """
    while True:
        p = rng.randint(1, 7)
        spine_caps = tuple(rng.randint(1, 6) for _ in range(p))
        leaf_caps = tuple(
            rng.randint(1, spine_caps[j - 1] if 1 <= j <= p else 6)
            if rng.random() < 0.75
            else None
            for j in range(p + 2)
        )
        live = [j for j, c in enumerate(leaf_caps) if c is not None]
        leaf_y = [None if c is None else F(rng.randint(1, 9), 10) for c in leaf_caps]
        if not live:
            continue
        leaf_y[live[-1]] = -sum(leaf_y[j] for j in live[:-1]) % 1
        if leaf_y[live[-1]] == 0:
            continue
        yield spine_caps, leaf_caps, tuple(leaf_y)


def random_safe_slot_structures(rng, count):
    """The first `count` safe structures of random_slot_structures(rng)."""
    out = []
    for spine_caps, leaf_caps, leaf_y in random_slot_structures(rng):
        cat, _, caps = slot_structure(spine_caps, leaf_caps, leaf_y)
        if is_safe(cat, caps):
            out.append((spine_caps, leaf_caps, leaf_y))
            if len(out) == count:
                return out


def hub_served(cat, a, caps):
    """The slot structure's context, with one more vertex, a hub that serves what leaves lack.

    The spine is a path, each leaf hangs from its anchor and the hub (y = 1,
    capacity n) is adjacent to every vertex: spine vertices serve
    themselves, a leaf u serves y_u of itself and the hub the rest, so the
    assignment is feasible at distance 1.
    """
    n = len(caps)
    edges = [(v, v + 1) for v in range(cat.p - 1)] + [(v, n) for v in range(n)]
    edges += [(u, cat.anchor(j)) for j, u in enumerate(cat.leaves) if u is not None]
    hubbed = Assignment(n + 1, y=[*a.y, F(1)])
    hubbed.set_x(n, n, F(1))
    for v in cat.spine:
        hubbed.set_x(v, v, F(1))
    for u in cat.leaves:
        if u is not None:
            hubbed.set_x(u, u, a.y[u])
            hubbed.set_x(n, u, 1 - a.y[u])
    return RoundingContext(Graph(n + 1, edges), [*caps, n]), hubbed


# sha256 over (spine_caps, leaf_caps, leaf_y, flow) of build_rounding_flow on
# random_safe_slot_structures(random.Random(20), 3000); must not move.
ROUNDING_FLOW_SHA256 = "944e1d97ca3e94b2c3e452a59fa907ae2bd1353d510867edf76c30395d5851f5"


class TestPinnedRoundingFlow:
    def test_flows_are_unchanged(self, monkeypatch):
        # spy: an overshoot recursion's slot 1 holds the crossing leaf at less
        # than its y (carry) or a synthetic leaf (stand-in), which the
        # recursion below either drains or fills
        seen = {
            ("carry", "drained"): 0,
            ("carry", "filled"): 0,
            ("stand-in", "drained"): 0,
            ("stand-in", "filled"): 0,
        }
        rflow = caterpillar._rflow
        y = []

        def spy_rflow(spine, slots, fresh, budget):
            sub = rflow(spine, slots, fresh, budget)
            if slots[1] is not None:
                u, w, _ = slots[1]
                case = "stand-in" if u >= len(y) else "carry" if w < y[u] else None
                if case:
                    seen[case, "drained"] += any(path[0] == u for _, path in sub)
                    seen[case, "filled"] += any(path[-1] == u for _, path in sub)
            return sub

        monkeypatch.setattr(caterpillar, "_rflow", spy_rflow)
        digest = hashlib.sha256()
        for spine_caps, leaf_caps, leaf_y in random_safe_slot_structures(
            random.Random(20), 3000
        ):
            cat, a, caps = slot_structure(spine_caps, leaf_caps, leaf_y)
            y = a.y
            flow = build_rounding_flow(cat, a, caps)
            digest.update(f"{(spine_caps, leaf_caps, leaf_y, flow)!r}\n".encode())
        assert all(seen.values()), seen
        assert digest.hexdigest() == ROUNDING_FLOW_SHA256


# ---------------------------------------------------------------------------
# facts the rounding moves rely on


def rounding_inputs():
    """(graph, capacities, k, assignment): the seeded LP points, the rare scenarios, wide."""
    yield from seeded_lp_points()
    for name in SCENARIOS:
        yield scenario(name)
    ctx, a, _ = wide_case()
    yield ctx.graph, list(ctx.capacities), 11, a


def rounded_under(monkeypatch, name, spy):
    """Round with caterpillar.<name> wrapped by spy(inner, *args).

    round_y runs on every rounding input, make_safe on narrow_case, and
    separate then make_safe on 3,000 random slot structures, hub-served.
    """
    inner = getattr(caterpillar, name)
    monkeypatch.setattr(caterpillar, name, lambda *args: spy(inner, *args))
    for g, caps, k, a in rounding_inputs():
        round_y(RoundingContext(g, caps), a, k)
    ctx, a, cat = narrow_case()
    make_safe(ctx, a, [cat])
    for structure in islice(random_slot_structures(random.Random(5)), 3000):
        cat, a, caps = slot_structure(*structure)
        ctx, a = hub_served(cat, a, caps)
        make_safe(ctx, a, separate(ctx, a, cat))


class TestRoundingMoveFacts:
    # facts that the rounding moves rely on without re-checking them

    def test_anchors_saturate_from_disjoint_neighbourhoods(self, monkeypatch):
        # each pick claims its 2-ball, so two picks are 3 or more hops apart:
        # every anchor fills from its own pick's closed neighbourhood (its
        # donors lie within 2 hops of it and of each other), and no vertex
        # serves two anchors
        fills = {}  # anchor -> itself and its donors
        shift = caterpillar.shift

        def spy(ctx, assignment, u, f, alpha):
            fills.setdefault(f, {f}).add(u)
            shift(ctx, assignment, u, f, alpha)

        monkeypatch.setattr(caterpillar, "shift", spy)
        filled = 0
        for g, caps, _, a in rounding_inputs():
            fills.clear()
            cat = build_caterpillar(RoundingContext(g, caps), a)
            hops = g.hop_distances()
            assert len(set(cat.spine)) == cat.p and set(fills) <= set(cat.spine)
            assert all(a.y[f] == 1 for f in cat.spine)
            balls = list(fills.values())
            for i, ball in enumerate(balls):
                assert all(hops[u][v] <= 2 for u in ball for v in ball)
                assert all(not ball & other for other in balls[i + 1 :])
            filled += len(balls)
        assert filled >= 100

    def test_pushes_fit_the_headroom_of_the_leaves_they_walk(self, monkeypatch):
        # _split_at pushes ceil(s2) - s2 <= s1 (the witness clause) into the
        # leaves right of v_i, _defuse min(1, headroom) into all of them
        pushes = {"split": [], "defuse": []}

        def spy(inner, ctx, assignment, cat, i, slots, amount):
            cap = ctx.capacities[cat.vertex(i)]
            live = [cat.leaves[j] for j in slots if cat.leaves[j] is not None]
            room = sum((1 - assignment.y[u] for u in live if ctx.capacities[u] > cap), F(0))
            caller = "defuse" if slots == range(cat.p + 2) else "split"
            pushes[caller].append((amount, room))
            return inner(ctx, assignment, cat, i, slots, amount)

        rounded_under(monkeypatch, "_push_to_leaves", spy)
        assert len(pushes["split"]) >= 1000 and len(pushes["defuse"]) >= 20
        for amount, room in pushes["split"] + pushes["defuse"]:
            assert 0 < amount <= room

    def test_regroups_take_distinct_vertices_and_leave_one_fractional(self, monkeypatch):
        groups = []

        def spy(inner, ctx, assignment, group):
            members = [u for u in group if u is not None]
            left = inner(ctx, assignment, group)
            frac = [u for u in members if 0 < assignment.y[u] < 1]
            groups.append((members, frac, left))
            return left

        rounded_under(monkeypatch, "_regroup", spy)
        assert len(groups) >= 100
        for members, frac, left in groups:
            assert len(set(members)) == len(members)
            assert frac == ([] if left is None else [left])


# ---------------------------------------------------------------------------
# the full pipeline on the frozen wide scenario


class TestWidePipeline:
    def test_stage_by_stage(self):
        ctx, a, cat = wide_case()
        parts = separate(ctx, a, cat)
        safe = make_safe(ctx, a, parts)
        assert safe == parts

        right, left = safe
        rflow = build_rounding_flow(right, a, ctx.capacities)
        assert set(rflow) == {
            (F(3, 10), (9, 2, 3, 4, 5, 6, 12)),
            (F(1, 5), (9, 2, 3, 4, 5, 11)),
        }
        chain_shift(ctx, a, rflow)
        lflow = build_rounding_flow(left, a, ctx.capacities)
        assert set(lflow) == {
            (F(1, 5), (1, 0, 8)),
            (F(1, 2), (1, 0, 7)),
        }
        chain_shift(ctx, a, lflow)

        ones = [v for v in range(13) if a.y[v] == 1]
        assert a.y == [
            F(1), F(0), F(1), F(1), F(1), F(1), F(1),
            F(1), F(1), F(0), F(1), F(1), F(1),
        ]
        assert len(ones) == 11
        assert verify_assignment_feasible(
            ctx.graph, ctx.capacities, 11, a, global_delta(a, ctx.graph)
        )


# ---------------------------------------------------------------------------
# round_y


class TestRoundY:
    def test_total_must_match_k(self):
        ctx = RoundingContext(path_graph(2), [2, 2])
        a = Assignment(2)
        a.y[0] = F(1)
        with pytest.raises(ValidationError, match="different total"):
            round_y(ctx, a, 2)

    def test_integral_input_short_circuits(self):
        g = path_graph(3)
        ctx = RoundingContext(g, [3, 3, 3], trace=[])
        a = Assignment(3)
        a.y[1] = F(1)
        for v in range(3):
            a.set_x(1, v, F(1))
        assert round_y(ctx, a, 1) == 1
        assert a.y == [F(0), F(1), F(0)]
        assert ctx.trace == []

    def test_hub_gadget_rounds_to_two_centers(self):
        g = Graph(6, two_hub_gadget())
        ctx = RoundingContext(g, [4] * 6)
        a = Assignment(6)
        two_hub_witness(a)
        a.y[2] = F(1, 2)
        delta = round_y(ctx, a, 2)
        assert a.y == [F(1), F(0), F(1), F(0), F(0), F(0)]
        assert delta == 2

    def test_wide_instance_end_to_end_with_replay(self):
        ctx, a, _ = wide_case()
        trace = []
        ctx = RoundingContext(ctx.graph, ctx.capacities, trace=trace)
        before = a.copy()
        delta = round_y(ctx, a, 11)
        assert all(q in (F(0), F(1)) for q in a.y)
        assert a.sum_y() == 11
        assert delta <= 68
        assert verify_assignment_feasible(ctx.graph, ctx.capacities, 11, a, delta)
        replayed = replay_trace(ctx, before, trace_text(trace))
        assert replayed.y == a.y
        assert sorted(replayed.x_items()) == sorted(a.x_items())


# ---------------------------------------------------------------------------
# randomized pipeline soundness


def random_feasible_case(rng, n_lo=6, n_hi=16):
    while True:
        n = rng.randint(n_lo, n_hi)
        g = rand_connected_graph(rng, n)
        caps = [rng.randint(1, 6) for _ in range(n)]
        k = rng.randint(2, max(2, n // 2))
        res = solve_feasibility(build_lp1(g, list(caps), k))
        if res.feasible:
            return g, caps, k, res.assignment


class TestRandomizedPipeline:
    def test_stage_invariants_hold(self):
        rng = random.Random(20260815)
        for _ in range(12):
            g, caps, k, a = random_feasible_case(rng)
            ctx = RoundingContext(g, caps)
            cat = build_caterpillar(ctx, a)
            assert cat.delta == 21
            validate_caterpillar(ctx, a, cat)
            members = set(cat.vertices())
            assert all(
                a.y[v].denominator == 1 for v in range(g.vertex_count) if v not in members
            )
            assert verify_assignment_feasible(g, caps, k, a, 5)

            parts = separate(ctx, a, cat)
            assert verify_assignment_feasible(g, caps, k, a, 68)
            seen = set()
            for c in parts:
                assert separability_witness(c, a, caps) is None
                vs = set(c.vertices())
                assert not vs & seen
                seen |= vs
                for v in vs:
                    assert radius_of(a, g, v) <= 47

            for c in make_safe(ctx, a, parts):
                assert is_safe(c, caps)
                flow = build_rounding_flow(c, a, caps)
                if flow:
                    chain_shift(ctx, a, flow)
                assert all(a.y[v].denominator == 1 for v in c.vertices())

            assert all(q in (F(0), F(1)) for q in a.y)
            assert a.sum_y() == k

    def test_round_y_with_replay(self):
        rng = random.Random(97)
        for _ in range(10):
            g, caps, k, a = random_feasible_case(rng)
            trace = []
            ctx = RoundingContext(g, caps, trace=trace)
            before = a.copy()
            delta = round_y(ctx, a, k)
            assert all(q in (F(0), F(1)) for q in a.y)
            assert a.sum_y() == k
            assert 0 <= delta <= 700
            assert verify_assignment_feasible(g, caps, k, a, delta)
            replayed = replay_trace(ctx, before, trace_text(trace))
            assert replayed.y == a.y
            assert sorted(replayed.x_items()) == sorted(a.x_items())


# ---------------------------------------------------------------------------
# pinned outputs of the rounding paths that the benchmark corpus never runs

# sha256 over (stretch, certificate, dump_assignment) of round_y on
# seeded_lp_points(), and of make_safe's certificate on narrow_case; both
# taken before the text layer was unified and must not move.  The first
# was re-recorded when hard mode's y <= 1 became column bounds of the LP
# tableau, which moves the seeded LP points themselves.
ROUND_Y_SHA256 = "50fe3483f8d43401364874aaead4998f086fdc6cd2087f8222eb93ea4bc71fa4"
NARROW_MAKE_SAFE_SHA256 = "c837ca0850ec55124d329e66f7d744ec46ca1acefd7fd7ee008a333baddd88cb"


class TestPinnedRounding:
    def test_round_y_outputs_are_unchanged(self, monkeypatch):
        # spies: the seeds must still reach _split_at's chain shift and both
        # the drained and the filled case of _rflow's stand-in leaf
        seen = {"split_chain": 0, "drained": 0, "filled": 0}
        split_at, rflow = caterpillar._split_at, caterpillar._rflow

        def spy_split_at(ctx, assignment, cat, i, s2, *rest):
            seen["split_chain"] += s2.denominator != 1
            return split_at(ctx, assignment, cat, i, s2, *rest)

        n = 0  # vertex count of the graph being rounded; synthetic ids start there

        def spy_rflow(spine, slots, fresh, budget):
            sub = rflow(spine, slots, fresh, budget)
            if slots[1] is not None and slots[1][0] >= n:  # a stand-in leaf
                ua = slots[1][0]
                seen["drained"] += any(path[0] == ua for _, path in sub)
                seen["filled"] += any(path[-1] == ua for _, path in sub)
            return sub

        monkeypatch.setattr(caterpillar, "_split_at", spy_split_at)
        monkeypatch.setattr(caterpillar, "_rflow", spy_rflow)
        digest = hashlib.sha256()
        for g, caps, k, a in seeded_lp_points():
            n = g.vertex_count
            trace = []
            stretch = round_y(RoundingContext(g, caps, trace=trace), a, k)
            digest.update(f"{stretch}\n{trace_text(trace)}{dump_assignment(a)}\n".encode())
        assert all(seen.values()), seen
        assert digest.hexdigest() == ROUND_Y_SHA256

    def test_x_insertion_order_reaches_no_output(self):
        # shifts apply their net x changes in insertion order; x's rows and
        # every row's entries, taken in reverse, must round the same way
        def rounded(g, caps, k, a):
            trace = []
            stretch = round_y(RoundingContext(g, caps, trace=trace), a, k)
            return stretch, trace_text(trace), dump_assignment(a)

        for g, caps, k, a in seeded_lp_points():
            flipped = a.copy()
            flipped.x = {u: dict(reversed(row.items())) for u, row in reversed(a.x.items())}
            assert rounded(g, caps, k, flipped) == rounded(g, caps, k, a)

    def test_narrow_make_safe_certificate_is_unchanged(self):
        ctx, a, cat = narrow_case()
        trace = []
        ctx = RoundingContext(ctx.graph, ctx.capacities, trace=trace)
        out = make_safe(ctx, a, [cat])
        text = f"{out!r}\n{trace_text(trace)}{dump_assignment(a)}"
        assert hashlib.sha256(text.encode()).hexdigest() == NARROW_MAKE_SAFE_SHA256


# ---------------------------------------------------------------------------
# checks on caller input


def integral_unserved():
    """A two-vertex path with y = (1, 0) and no x: the total is 1, yet nobody is served."""
    a = Assignment(2)
    a.y[0] = F(1)
    return RoundingContext(path_graph(2), [1, 1]), a


class TestInputChecks:
    @pytest.mark.parametrize(
        "call, expected",
        [
            (lambda: separate(*integral_unserved(), Caterpillar(1, (), (None, None))), []),
            (
                lambda: round_y(RoundingContext(path_graph(2), [1, 1]), Assignment(2), 0),
                Refused(ValidationError, "k must be at least 1"),
            ),
            (
                # integral y: without the check round_y would return at once
                lambda: round_y(*integral_unserved(), 1),
                Refused(ValidationError, "not feasible at distance 1"),
            ),
        ],
        ids=["separate-spineless", "round-y-k-below-one", "round-y-infeasible-at-one"],
    )
    def test_check(self, call, expected):
        assert_outcome(call, expected)
