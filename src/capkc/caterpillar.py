"""Caterpillar structures: where all fractional y-mass lives during rounding.

A caterpillar is a spine of fully-open vertices (y = 1) with at most one
fractional leaf per spine vertex plus one optional leaf at each end.  The
pipeline herds every fractional vertex of an assignment into one such
structure, splits it until no piece can be split further, defuses the pieces
that could trap mass behind a low-capacity spine vertex, and finally drains
each piece with a single flow.  After that every y-value is 0 or 1.

Slot convention: a spine (v_1..v_p) carries leaf slots 0..p+1.  Slot j is
anchored at spine position min(max(j, 1), p); middle slots additionally bound
the leaf's capacity by the anchor's.  None marks an empty slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import ceil

from .assignment import global_delta, radius_of
from .errors import PipelineError, ValidationError
from .graph_core import anchor_tree, hamiltonian_path_in_cube
from .lp_feasibility import verify_assignment_feasible
from .shifting import chain_shift, group_shift, shift

__all__ = [
    "Caterpillar",
    "validate_caterpillar",
    "gamma",
    "is_safe",
    "build_caterpillar",
    "separability_witness",
    "separate",
    "make_safe",
    "build_rounding_flow",
    "round_y",
]

# Anchor vertices of the greedy sweep are pairwise within 7 hops of a
# neighbour anchor: every vertex lies within 2 hops of the pick that claimed
# it and each anchor within 1 hop of its pick, so the anchors of two regions
# joined by an edge are at most 1 + 2 + 1 + 2 + 1 = 7 hops apart, and on a
# connected graph the reach-7 anchor tree spans every anchor.  Walking the
# tree's cube costs 3 such edges per spine step; _revalidate's spine-gap
# clause checks that bound.
_ANCHOR_HOPS = 7
_SPINE_DELTA = 3 * _ANCHOR_HOPS
_BUILD_DELTA = 5
_KEEP_RADIUS = 47
_SEPARATE_DELTA = 68


@dataclass(frozen=True)
class Caterpillar:
    """Spine P = (v_1..v_p) plus leaf row P' = (v'_0..v'_{p+1})."""

    delta: int
    spine: tuple
    leaves: tuple

    def __post_init__(self):
        object.__setattr__(self, "spine", tuple(self.spine))
        object.__setattr__(self, "leaves", tuple(self.leaves))
        if self.delta < 1:
            raise ValidationError("caterpillar: delta must be at least 1")
        if len(self.leaves) != len(self.spine) + 2:
            raise ValidationError(
                "caterpillar: leaf row length must be spine length plus two"
            )

    @property
    def p(self):
        return len(self.spine)

    def vertex(self, i):
        """Spine vertex at 1-based position i."""
        return self.spine[i - 1]

    def anchor(self, slot):
        return self.vertex(_anchor_index(self.p, slot))

    def live_slots(self):
        return [j for j, u in enumerate(self.leaves) if u is not None]

    def vertices(self):
        return tuple(self.spine) + tuple(u for u in self.leaves if u is not None)

    def reverse(self):
        return Caterpillar(self.delta, self.spine[::-1], self.leaves[::-1])


def _anchor_index(p, slot):
    """Spine position that leaf slot `slot` hangs from, on a spine of length p."""
    return min(max(slot, 1), p)


def _walk(spine, a, b):
    """Spine vertices from 1-based position a to b, inclusive, in walking order."""
    step = 1 if b >= a else -1
    return tuple(spine[t - 1] for t in range(a, b + step, step))


def _regroup(ctx, assignment, group):
    """Group-shift the group (None entries dropped) if two or more members are fractional.

    Returns the one member left fractional (group_shift leaves at most
    one), or None.
    """
    y = assignment.y
    group = [u for u in group if u is not None]
    if sum(1 for u in group if 0 < y[u] < 1) >= 2:
        group_shift(ctx, assignment, group)
    return next((u for u in group if 0 < y[u] < 1), None)


def validate_caterpillar(ctx, assignment, cat):
    """Check every structural condition; raises ValidationError naming the clause."""
    y = assignment.y
    n = ctx.graph.vertex_count
    for v in cat.vertices():
        if not 0 <= v < n:
            raise ValidationError(f"caterpillar: vertex {v} out of range")
    p = cat.p
    if p == 0:
        if any(u is not None for u in cat.leaves):
            raise ValidationError("caterpillar: empty spine cannot carry leaves")
        return
    if len(set(cat.spine)) != p:
        raise ValidationError("caterpillar: spine vertex repeats")
    for v in cat.spine:
        if y[v] != 1:
            raise ValidationError(f"caterpillar: spine vertex {v} must have y = 1")
    for a, b in zip(cat.spine, cat.spine[1:]):
        if ctx.dist(a, b) > cat.delta:
            raise ValidationError(
                f"caterpillar: spine gap {a}-{b} exceeds delta {cat.delta}"
            )
    spine_set = set(cat.spine)
    live = [(j, u) for j, u in enumerate(cat.leaves) if u is not None]
    for j, u in live:
        if u in spine_set:
            raise ValidationError(f"caterpillar: leaf {u} lies on the spine")
        if not 0 < y[u] < 1:
            raise ValidationError(f"caterpillar: leaf {u} must have fractional y")
        anchor = cat.anchor(j)
        if ctx.dist(u, anchor) > cat.delta:
            raise ValidationError(
                f"caterpillar: leaf {u} too far from its anchor {anchor}"
            )
        if 1 <= j <= p and ctx.L(u) > ctx.L(cat.vertex(j)):
            raise ValidationError(
                f"caterpillar: leaf {u} outgrows its anchor {anchor}"
            )
    if len({u for _, u in live}) != len(live):
        raise ValidationError("caterpillar: leaf repeats")
    total = sum((y[u] for _, u in live), Fraction(0))
    if total.denominator != 1:
        raise ValidationError("caterpillar: leaf y values must total an integer")


def _revalidate(ctx, assignment, cat, stage):
    # internal structures are re-checked defensively; a failure is our bug
    try:
        validate_caterpillar(ctx, assignment, cat)
    except ValidationError as exc:
        raise PipelineError(f"{stage} built an invalid structure: {exc}") from exc


# ---------------------------------------------------------------------------
# endangered spine vertices


def _gamma_indices(cat, capacities):
    """1-based spine positions with a strictly bigger leaf strictly on each side."""
    p = cat.p
    if p == 0:
        return []
    lcap = [capacities[u] if u is not None else -1 for u in cat.leaves]
    best_left = [-1] * (p + 2)
    run = -1
    for j in range(p + 2):
        run = max(run, lcap[j])
        best_left[j] = run
    best_right = [-1] * (p + 2)
    run = -1
    for j in range(p + 1, -1, -1):
        run = max(run, lcap[j])
        best_right[j] = run
    out = []
    for i in range(1, p + 1):
        cap = capacities[cat.vertex(i)]
        if best_left[i - 1] > cap and best_right[i + 1] > cap:
            out.append(i)
    return out


def gamma(cat, capacities):
    """Spine vertices whose capacity a leaf on each side strictly exceeds."""
    return frozenset(cat.vertex(i) for i in _gamma_indices(cat, capacities))


def is_safe(cat, capacities):
    return not _gamma_indices(cat, capacities)


# ---------------------------------------------------------------------------
# separability


def _side_sums(cat, assignment, capacities, i, side):
    y = assignment.y
    cap = capacities[cat.vertex(i)]
    slots = range(i + 1, cat.p + 2) if side == "right" else range(i)
    s1 = Fraction(0)
    s2 = Fraction(0)
    for j in slots:
        u = cat.leaves[j]
        if u is None:
            continue
        s2 += y[u]
        if capacities[u] > cap:
            s1 += 1 - y[u]
    return s1, s2


def separability_witness(cat, assignment, capacities):
    """First minimum-capacity endangered position whose side slack covers the gap.

    A side certifies when the headroom S1 of its strictly-bigger leaves reaches
    ceil(S2) - S2, the amount needed to push the side's leaf mass S2 up to an
    integer.  Positions are scanned in spine order, right side before left.
    Returns (index, side, s1, s2), side "right" or "left", or None when no
    position certifies.
    """
    idxs = _gamma_indices(cat, capacities)
    if not idxs:
        return None
    lmin = min(capacities[cat.vertex(i)] for i in idxs)
    for i in idxs:
        if capacities[cat.vertex(i)] != lmin:
            continue
        for side in ("right", "left"):
            s1, s2 = _side_sums(cat, assignment, capacities, i, side)
            if s1 >= ceil(s2) - s2:
                return i, side, s1, s2
    return None


# ---------------------------------------------------------------------------
# construction


def build_caterpillar(ctx, assignment):
    """Gather all fractional y-mass into one 21-caterpillar, mutating the assignment.

    Greedy sweep: repeatedly take the highest-capacity unclaimed vertex v,
    elect the strongest vertex of N[v] as an anchor, and claim everything
    within two hops of v.  Each anchor is saturated to y = 1 by shifts inside
    N[v]; the anchors are strung into a spine along a Hamiltonian path in the
    cube of their anchor tree (graph_core.anchor_tree over pairs at most 7
    hops apart, the tree the soft rounding folds over at 3 hops); each
    claimed region is then regrouped so at most one fractional vertex
    survives and becomes the anchor's leaf.

    On exit the assignment is 5-feasible, the returned structure is a valid
    21-caterpillar with nil end slots, and every vertex outside it has
    integral y.
    """
    graph = ctx.graph
    if not graph.is_connected():
        raise ValidationError("caterpillar construction needs a connected graph")
    total = assignment.sum_y()
    if total.denominator != 1:
        raise ValidationError("total y-mass must be an integer")
    k = int(total)
    if not verify_assignment_feasible(graph, ctx.capacities, k, assignment, 1):
        raise ValidationError("assignment is not feasible at distance 1")

    n = graph.vertex_count
    y = assignment.y
    caps = ctx.capacities
    unclaimed = set(range(n))
    picks = []  # sweep vertices, in order
    anchors = []  # their elected anchors, same order
    anchor_of = {}
    phi = [None] * n
    while unclaimed:
        v = min(unclaimed, key=lambda u: (-caps[u], u))
        ball = graph.closed_neighborhood(v)
        f = max(ball, key=lambda u: (caps[u], y[u], -u))
        two_ball = set()
        for u in ball:
            two_ball.update(graph.closed_neighborhood(u))
        claimed = two_ball & unclaimed
        for u in claimed:
            phi[u] = f
        unclaimed -= claimed
        picks.append(v)
        anchors.append(f)
        anchor_of[v] = f

    # each pick claims its 2-ball, so picks are at least 3 hops apart and
    # their closed neighbourhoods, each holding an anchor and (feasible at
    # distance 1) a unit of y, are disjoint: saturating one anchor from its
    # own neighbourhood leaves every other neighbourhood's unit in place
    for v in picks:
        f = anchor_of[v]
        while y[f] < 1:
            u = min(u for u in graph.closed_neighborhood(v) if u != f and y[u] > 0)
            shift(ctx, assignment, u, f, min(y[u], 1 - y[f]))

    order, parent = anchor_tree(graph.hop_distances(), sorted(anchors), _ANCHOR_HOPS)
    spine = tuple(hamiltonian_path_in_cube(order, parent))

    anchor_set = set(anchors)
    region = {f: [] for f in anchors}
    for u in range(n):
        if phi[u] in region and u not in anchor_set:
            region[phi[u]].append(u)
    # regroup in sweep order: each certificate line records the delta so far
    leaf = {anchor_of[v]: _regroup(ctx, assignment, region[anchor_of[v]]) for v in picks}
    cat = Caterpillar(_SPINE_DELTA, spine, (None, *(leaf[s] for s in spine), None))

    _revalidate(ctx, assignment, cat, "construction")
    members = set(cat.vertices())
    for u in range(n):
        if u not in members and y[u].denominator != 1:
            raise PipelineError(f"vertex {u} left outside the structure with fractional y")
    if not verify_assignment_feasible(graph, caps, k, assignment, _BUILD_DELTA):
        raise PipelineError(f"construction broke the {_BUILD_DELTA}-distance guarantee")
    return cat


# ---------------------------------------------------------------------------
# separation


def _push_to_leaves(ctx, assignment, cat, i, slots, amount):
    """Move `amount` of y from spine position i into the leaves at `slots` that outgrow v_i.

    Leaves fill to y = 1 in slot order, each along the spine walk from v_i to
    its anchor; the whole move is one chain shift.  Every caller's amount is
    at most those leaves' headroom: _split_at's is the witness clause
    ceil(s2) - s2 <= s1, and _defuse's is capped by the headroom itself.
    """
    y = assignment.y
    caps = ctx.capacities
    vi = cat.vertex(i)
    paths = []
    for j in slots:
        u = cat.leaves[j]
        if amount == 0:
            break
        if u is None or caps[u] <= caps[vi]:
            continue
        take = min(1 - y[u], amount)
        paths.append((take, _walk(cat.spine, i, _anchor_index(cat.p, j)) + (u,)))
        amount -= take
    chain_shift(ctx, assignment, paths)


def _live(assignment, u):
    return u if u is not None and 0 < assignment.y[u] < 1 else None


def separate(ctx, assignment, cat):
    """Split a structure into non-separable pieces, shifting mass as needed.

    Every piece of the result is a valid caterpillar over the ambient
    assignment, no two pieces share a vertex, and any input vertex that
    appears in no piece ends with integral y.  A non-separable input comes
    back as a singleton with the assignment untouched.
    """
    validate_caterpillar(ctx, assignment, cat)
    out = _separate(ctx, assignment, cat, None, 0)
    seen = set()
    caps = ctx.capacities
    for c in out:
        _revalidate(ctx, assignment, c, "separation")
        if separability_witness(c, assignment, caps) is not None:
            raise PipelineError("separation left a separable structure")
        vs = set(c.vertices())
        if vs & seen:
            raise PipelineError("separated structures share a vertex")
        seen |= vs
    for v in cat.vertices():
        if v not in seen and assignment.y[v].denominator != 1:
            raise PipelineError(f"vertex {v} dropped with fractional y")
    return out


def _separate(ctx, assignment, cat, parent_gamma, depth):
    if depth > 8 * ctx.graph.vertex_count + 64:
        raise PipelineError("separation recursion ran away")
    if cat.p == 0:
        return []
    if depth:
        _revalidate(ctx, assignment, cat, "separation")
    caps = ctx.capacities
    gset = gamma(cat, caps)
    if parent_gamma is not None and not gset <= parent_gamma:
        raise PipelineError("separation enlarged the endangered set")
    w = separability_witness(cat, assignment, caps)
    if w is None:
        return [cat]
    i, side, _, s2 = w
    if side == "left":
        # mirror the structure so the witness sits on the right, then mirror back
        pieces = _split_at(ctx, assignment, cat.reverse(), cat.p + 1 - i, s2, gset, depth)
        return [c.reverse() for c in pieces]
    return _split_at(ctx, assignment, cat, i, s2, gset, depth)


def _split_at(ctx, assignment, cat, i, s2, gset, depth):
    """One round of splitting at spine position i, whose right side's leaf mass is s2."""
    p = cat.p
    y = assignment.y

    if s2.denominator == 1:
        left = Caterpillar(cat.delta, cat.spine[:i], cat.leaves[: i + 1] + (None,))
        right = Caterpillar(cat.delta, cat.spine[i:], (None,) + cat.leaves[i + 1 :])
        return _separate(ctx, assignment, left, gset, depth + 1) + _separate(
            ctx, assignment, right, gset, depth + 1
        )

    # push the right side's leaf mass up to the next integer, drawing on v_i
    _push_to_leaves(ctx, assignment, cat, i, range(i + 1, p + 2), ceil(s2) - s2)

    out = []
    if i < p:
        right = Caterpillar(
            cat.delta,
            cat.spine[i:],
            (None,) + tuple(_live(assignment, u) for u in cat.leaves[i + 1 :]),
        )
        out += _separate(ctx, assignment, right, gset, depth + 1)

    if i == 1:
        if _regroup(ctx, assignment, (cat.leaves[0], cat.spine[0], cat.leaves[1])) is not None:
            raise PipelineError("regrouping at the spine head left fractional mass")
        return out

    vi = cat.vertex(i)
    li = cat.leaves[i]
    if li is not None:
        shift(ctx, assignment, li, vi, min(y[li], 1 - y[vi]))
    if y[vi] == 1:
        u = li if li is not None and y[li] > 0 else None
        left = Caterpillar(cat.delta, cat.spine[:i], cat.leaves[:i] + (u, None))
    else:
        # v_i keeps a fraction and steps down to be the end leaf
        left = Caterpillar(cat.delta, cat.spine[: i - 1], cat.leaves[:i] + (vi,))
    out += _separate(ctx, assignment, left, gset, depth + 1)
    return out


# ---------------------------------------------------------------------------
# defusing dangerous structures


def make_safe(ctx, assignment, structures):
    """Rework non-separable structures until none has an endangered vertex.

    Each pass picks the minimum-capacity endangered spine vertex, drains up to
    one unit of its mass into the strictly-bigger leaves, regroups it with the
    two adjacent leaf slots, and excises it from the spine, doubling the
    structure's delta.  Two passes always suffice; a third raises.
    """
    caps = ctx.capacities
    out = []
    seen = set()
    for cat in structures:
        validate_caterpillar(ctx, assignment, cat)
        if separability_witness(cat, assignment, caps) is not None:
            raise ValidationError("make_safe needs non-separable structures")
        rounds = 0
        while not is_safe(cat, caps):
            rounds += 1
            if rounds > 2:
                raise PipelineError("structure still dangerous after two defusing passes")
            cat = _defuse(ctx, assignment, cat)
        out.append(cat)
        vs = set(cat.vertices())
        if vs & seen:
            raise PipelineError("safe structures share a vertex")
        seen |= vs
    return out


def _defuse(ctx, assignment, cat):
    caps = ctx.capacities
    y = assignment.y
    p = cat.p
    idxs = _gamma_indices(cat, caps)
    a_idx = min(idxs, key=lambda i: (caps[cat.vertex(i)], cat.vertex(i)))
    va = cat.vertex(a_idx)

    headroom = sum(
        (1 - y[u] for u in cat.leaves if u is not None and caps[u] > caps[va]), Fraction(0)
    )
    _push_to_leaves(ctx, assignment, cat, a_idx, range(p + 2), min(Fraction(1), headroom))
    merged = _regroup(ctx, assignment, (va, cat.leaves[a_idx], cat.leaves[a_idx - 1]))

    spine = cat.spine[: a_idx - 1] + cat.spine[a_idx:]
    leaves = (
        tuple(_live(assignment, u) for u in cat.leaves[: a_idx - 1])
        + (merged,)
        + tuple(_live(assignment, u) for u in cat.leaves[a_idx + 1 :])
    )
    new = Caterpillar(2 * cat.delta, spine, leaves)
    _revalidate(ctx, assignment, new, "defusing")
    return new


# ---------------------------------------------------------------------------
# rounding flow


def build_rounding_flow(cat, assignment, capacities):
    """One flow that empties or fills every leaf of a safe structure.

    Recursive construction: scan slots left to right until the leaf mass first
    reaches one, pick the biggest-capacity leaf of that prefix as the basin,
    drain the rest of the prefix into it, and recurse on the remainder.  When
    the prefix mass overshoots one, the overshoot goes into the recursion as
    one leaf hung from the crossing leaf's anchor: the crossing leaf itself
    at reduced weight, or, when it is the basin, a synthetic stand-in whose
    paths are rewritten onto real leaves before returning.  The recursion
    sees each leaf slot as (vertex, weight, capacity), or None, so the
    overshoot leaf is just a new slot.

    Does not touch the assignment; returns the (alpha, path) list, to feed
    to chain_shift.  Raises PipelineError naming the source/inner/sink
    triple if any path would route through a spine vertex weaker than its
    source, which cannot happen when the structure is safe.
    """
    if not is_safe(cat, capacities):
        raise ValidationError("rounding flow needs a safe structure")
    live = cat.live_slots()
    if not live:
        return []
    y = assignment.y
    total = sum((y[cat.leaves[j]] for j in live), Fraction(0))
    if total.denominator != 1:
        raise ValidationError("rounding flow needs an integral leaf total")

    n = len(y)
    slots = tuple(None if u is None else (u, y[u], capacities[u]) for u in cat.leaves)
    paths = _rflow(cat.spine, slots, count(n), 4 * len(cat.leaves) + 16)

    spine_set = set(cat.spine)
    leaf_set = {cat.leaves[j] for j in live}
    out_sum = {}
    in_sum = {}
    for w, path in paths:
        if w <= 0 or len(path) < 2:
            raise PipelineError("rounding flow produced a degenerate path")
        if any(v >= n for v in path):
            raise PipelineError("scratch vertex leaked into the final flow")
        src, snk = path[0], path[-1]
        if src not in leaf_set or snk not in leaf_set:
            raise PipelineError("rounding flow must run leaf to leaf")
        for v in path[1:-1]:
            if v not in spine_set:
                raise PipelineError("rounding flow left the structure")
            if capacities[v] < capacities[src]:
                raise PipelineError(
                    f"path from {src} through {v} to {snk} undercuts the source "
                    "capacity; the structure was not safe"
                )
        if capacities[src] > capacities[snk]:
            raise PipelineError(f"rounding flow from {src} to {snk} drops capacity")
        out_sum[src] = out_sum.get(src, Fraction(0)) + w
        in_sum[snk] = in_sum.get(snk, Fraction(0)) + w
    for u in leaf_set:
        drained = out_sum.get(u) == y[u] and u not in in_sum
        filled = in_sum.get(u) == 1 - y[u] and u not in out_sum
        if not (drained or filled):
            raise PipelineError(f"leaf {u} is neither fully drained nor fully filled")
    return paths


def _leaf_path(spine, slots, j, m, weight):
    """Path from the leaf at slot j to the leaf at slot m along the spine."""
    p = len(spine)
    walk = _walk(spine, _anchor_index(p, j), _anchor_index(p, m))
    return (weight, (slots[j][0],) + walk + (slots[m][0],))


def _rflow(spine, slots, fresh, budget):
    """The rounding flow's paths over `slots`, each (vertex, weight, capacity) or None.

    A prefix that overshoots one recurses once, on the spine from the
    crossing leaf's anchor v_i on, with the overshoot as the one leaf of
    slot 1.  `fresh` yields ids for stand-in leaves; `budget` is the
    recursion depth still allowed.
    """
    if budget < 0:
        raise PipelineError("rounding flow recursion ran away")
    live = [j for j, slot in enumerate(slots) if slot is not None]
    if not live:
        return []
    p = len(spine)

    acc = Fraction(0)
    i = None
    for j in live:
        acc += slots[j][1]
        if acc >= 1:
            i = j
            break
    if i is None:
        raise PipelineError("leaf total fell below one inside the recursion")
    X = [j for j in live if j <= i]
    alpha = acc
    i0 = min(X, key=lambda j: (-slots[j][2], slots[j][0]))

    if alpha == 1:
        sub = []
        if i < p + 1:
            sub = _rflow(spine[i:], (None,) + slots[i + 1 :], fresh, budget - 1)
        return sub + [_leaf_path(spine, slots, j, i0, slots[j][1]) for j in X if j != i0]

    if i == p + 1:
        raise PipelineError("prefix mass overshot one at the last slot")
    ui, z, cap_i = slots[i]
    if not alpha - 1 < z:
        raise PipelineError("prefix mass overshot by more than the crossing leaf")

    # the overshoot alpha - 1 goes on as one leaf ua hung from v_i: the
    # crossing leaf itself, or, when it is the basin, a synthetic stand-in
    # with the runner-up's capacity, the runner-up then being the basin
    if i0 != i:
        ua, basin, cap = ui, i0, cap_i
    else:
        ua = next(fresh)
        basin = min((j for j in X if j != i), key=lambda j: (-slots[j][2], slots[j][0]))
        cap = slots[basin][2]
    sub = _rflow(spine[i - 1 :], (None, (ua, alpha - 1, cap)) + slots[i + 1 :], fresh, budget - 1)
    starts = any(path[0] == ua for _, path in sub)
    ends = any(path[-1] == ua for _, path in sub)
    if starts == ends:
        raise PipelineError("overshoot leaf is neither drained nor filled below")
    if starts and ua != ui:
        # re-source the stand-in's outflow from the real prefix leaves
        budgets = [[j, slots[j][1]] for j in X if j != i]
        bi = 0
        moved = []
        out = []
        for w, path in sub:
            if path[0] != ua:
                out.append((w, path))
                continue
            if path[1] != spine[i - 1]:
                raise PipelineError("stand-in source path skipped its anchor")
            rest = path[2:]
            while w > 0:
                while bi < len(budgets) and budgets[bi][1] == 0:
                    bi += 1
                if bi >= len(budgets):
                    raise PipelineError("real leaves cannot cover the stand-in outflow")
                j, have = budgets[bi]
                take = min(w, have)
                budgets[bi][1] -= take
                w -= take
                prefix = (slots[j][0],) + _walk(spine, _anchor_index(p, j), i)
                moved.append((take, prefix + rest))
        leftovers = [
            _leaf_path(spine, slots, j, i, have) for j, have in budgets if have > 0
        ]
        if sum((w for w, _ in leftovers), Fraction(0)) != 1 - z:
            raise PipelineError("leftover budgets missed the crossing leaf's gap")
        return out + moved + leftovers
    drain = [_leaf_path(spine, slots, j, basin, slots[j][1]) for j in X if j not in (basin, i)]
    if starts:
        # the recursion drained the overshoot; send the rest of ui over
        return sub + drain + [_leaf_path(spine, slots, i, basin, z - (alpha - 1))]
    # the recursion filled ua: ui keeps 1 - z of that inflow, the rest goes
    # on from v_i to the basin
    need = 1 - z
    out = []
    tail = _walk(spine, i, _anchor_index(p, basin))[1:] + (slots[basin][0],)
    for w, path in sub:
        if path[-1] != ua:
            out.append((w, path))
            continue
        if need > 0:
            take = min(w, need)
            out.append((take, path[:-1] + (ui,)))
            need -= take
            w -= take
        if w > 0:
            out.append((w, path[:-1] + tail))
    if need != 0:
        raise PipelineError("nested fill fell short of the crossing leaf's gap")
    return out + drain


# ---------------------------------------------------------------------------
# the full y-rounding pipeline


def round_y(ctx, assignment, k):
    """Drive every y-value to 0 or 1, preserving feasibility at a tracked stretch.

    Mutates the assignment in place (recording each move on the context's
    trace) and returns the achieved stretch: the maximum per-vertex radius of
    the rounded assignment.  The center total stays exactly k.
    """
    graph = ctx.graph
    caps = ctx.capacities
    if k < 1:
        raise ValidationError("k must be at least 1")
    if assignment.sum_y() != k:
        raise ValidationError("assignment places a different total than k")
    if not verify_assignment_feasible(graph, caps, k, assignment, 1):
        raise ValidationError("assignment is not feasible at distance 1")
    y = assignment.y
    if all(q.denominator == 1 for q in y):
        return global_delta(assignment, graph)

    cat = build_caterpillar(ctx, assignment)
    parts = separate(ctx, assignment, cat)
    if not verify_assignment_feasible(graph, caps, k, assignment, _SEPARATE_DELTA):
        raise PipelineError(f"separation broke the {_SEPARATE_DELTA}-distance guarantee")
    for c in parts:
        for v in c.vertices():
            if radius_of(assignment, graph, v) > _KEEP_RADIUS:
                raise PipelineError(
                    f"vertex {v} kept after separation with radius above {_KEEP_RADIUS}"
                )
    for c in make_safe(ctx, assignment, parts):
        chain_shift(ctx, assignment, build_rounding_flow(c, assignment, caps))
        for v in c.vertices():
            if y[v].denominator != 1:
                raise PipelineError(f"vertex {v} still fractional after its structure drained")

    if any(q != 0 and q != 1 for q in y):
        raise PipelineError("rounding finished with a fractional y-value")
    if assignment.sum_y() != k:
        raise PipelineError("rounding changed the center total")
    delta = global_delta(assignment, graph)
    if not verify_assignment_feasible(graph, caps, k, assignment, delta):
        raise PipelineError("rounded assignment fails its own radius bound")
    return delta
