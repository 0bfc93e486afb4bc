"""Rounding for the soft-capacity variant on connected graphs.

Soft capacities allow stacking several centers on one vertex, which buys
a much shorter pipeline than the hard-capacity rounding: pick a set S of
well-separated anchor vertices, gather the fractional opening mass onto
the anchors, fold the fractional remainders along a tree so every anchor
holds an integral amount, then serve all clients by one max-flow and
finally slide each anchor's centers onto the roomiest vertex nearby.
Every hop budget along the way is a small constant and the end-to-end
client distance never exceeds 11.

All mass bookkeeping is exact rational arithmetic; the two flow
computations are integral.
"""

from fractions import Fraction

from .errors import PipelineError, ValidationError
from .graph_core import anchor_tree, bfs
from .lp_feasibility import verify_assignment_feasible
from .x_rounding import Solution, seat_flow, validate_solution

__all__ = ["ks_independent_set", "solve_soft"]

# Hop budgets: anchors sit within _ANCHOR_REACH of every vertex, clients
# are served within _SERVE_REACH of their anchor, and centers relocate
# within _RELOCATE_REACH.  Served distance is at most the last two added.
_ANCHOR_REACH = 2
_SERVE_REACH = 5
_RELOCATE_REACH = 6
_SOFT_RADIUS = _SERVE_REACH + _RELOCATE_REACH


def ks_independent_set(graph):
    """Anchor set: maximal independent in G^2, connected in G^3.

    Vertices are scanned in BFS order from vertex 0, which is what makes
    the second property hold: when a vertex is taken, its BFS parent was
    already within two hops of an earlier pick, so every pick lands
    within three hops of a previous one; in solve_soft, _fold_tree's
    anchor tree at reach 3 checks that it spans the set.  Returns the
    set sorted by id.  Distances are read as
    hops[s][v] from anchor s (the table is symmetric), so only the anchors'
    hop rows are ever built.
    """
    if graph.vertex_count == 0:
        raise ValidationError("anchor selection needs a non-empty graph")
    if not graph.is_connected():
        raise ValidationError("anchor selection needs a connected graph")
    hops = graph.hop_distances()
    chosen = []
    for v in bfs(graph.adjacency, 0)[0]:
        if all(hops[s][v] > 2 for s in chosen):
            chosen.append(v)
    return sorted(chosen)


def _anchor_of(hops, anchors, v):
    # Within 1 hop the anchor is unique (anchors are G^2-independent);
    # at exactly 2 hops take the lowest id.  ks_independent_set is maximal
    # in G^2, so some anchor is within 2 hops; min raises ValueError if not.
    for s in anchors:
        if hops[s][v] <= 1:
            return s
    return min(s for s in anchors if hops[s][v] <= _ANCHOR_REACH)


def _fold_tree(hops, anchors, u):
    """Make every u(s) integral by pushing remainders up a BFS tree.

    The tree is graph_core.anchor_tree at reach 3: it spans the anchors
    with edges between pairs at most three hops apart (the hard pipeline
    strings its spine along the same tree at reach 7).  Each anchor keeps
    the floor of its mass and hands the fractional part to its parent.
    Totals are preserved exactly and no anchor ever goes negative.
    anchors must be ascending.
    """
    order, parent = anchor_tree(hops, anchors, 3)
    if len(order) != len(anchors):
        raise PipelineError("anchor tree does not span the anchor set")
    for s in reversed(order[1:]):
        spare = u[s] % 1
        if spare:
            u[s] -= spare
            u[parent[s]] += spare
    root = order[0]
    if u[root].denominator != 1:
        raise PipelineError("fractional mass survived the tree fold")


def solve_soft(graph, capacities, k, assignment):
    """Round a fractional soft-capacity LP solution on a connected graph.

    Needs the assignment feasible at distance 1.  Returns a Solution
    whose centers may carry multiplicity; every client is served within
    11 hops and each center's load fits capacity times multiplicity.
    """
    n = graph.vertex_count
    if not graph.is_connected():
        raise ValidationError("soft rounding needs a connected graph")
    if not verify_assignment_feasible(
        graph, capacities, k, assignment, 1, soft=True
    ):
        raise ValidationError("assignment is not feasible at distance 1")

    hops = graph.hop_distances()
    anchors = ks_independent_set(graph)

    # every vertex adds its y to one anchor, so the masses total k; each is
    # at least 1, so there are at most k anchors
    u = {s: Fraction(0) for s in anchors}
    anchor_of = [_anchor_of(hops, anchors, v) for v in range(n)]
    for v in range(n):
        u[anchor_of[v]] += assignment.y[v]
    for s in anchors:
        if u[s] < 1:
            raise PipelineError(f"anchor {s} gathered only {u[s]} opening mass")

    # the fold keeps the total k and leaves every anchor integral
    _fold_tree(hops, anchors, u)
    opened = {s: int(u[s]) for s in anchors if u[s] > 0}

    # Relocation target: the roomiest vertex within reach, lowest id on ties.
    new_home = {}
    for s in opened:
        best = min(
            (v for v in range(n) if hops[s][v] <= _RELOCATE_REACH),
            key=lambda v: (-capacities[v], v),
        )
        new_home[s] = best

    # One flow serves every client within _SERVE_REACH of its anchor,
    # against the capacity the anchor will have after relocation.
    holders = sorted(opened)
    seated, phi = seat_flow(
        hops,
        _SERVE_REACH,
        [(s, opened[s] * capacities[new_home[s]]) for s in holders],
    )
    if phi is None:
        raise PipelineError(
            f"the distance-{_SERVE_REACH} assignment flow placed {seated}"
            f" of {n} clients"
        )
    phi = [new_home[s] for s in phi]
    centers = {}
    for s in holders:
        centers[new_home[s]] = centers.get(new_home[s], 0) + opened[s]

    radius = max(hops[phi[v]][v] for v in range(n))
    if radius > _SOFT_RADIUS:
        raise PipelineError(
            f"soft assignment reached {radius} hops,"
            f" beyond the promised {_SOFT_RADIUS}"
        )
    solution = Solution(k=k, radius=radius, centers=centers, phi=tuple(phi))
    validate_solution(hops, capacities, k, solution, soft=True)
    return solution
