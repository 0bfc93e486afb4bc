"""Test fixtures: random graphs, LP points, chain shifts, gadgets, and the dense
references for LP1, for the metric scans and for the seat flow."""

import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from capkc.assignment import Assignment
from capkc.flownet import bipartite_flow
from capkc.graph_core import INF, Graph
from capkc.lp_feasibility import (
    FeasibilityResult,
    Phase1Tableau,
    _finish,
    _lp1_rows,
    build_lp1,
    solve_feasibility,
)


def trace_text(trace):
    """A rounding trace's lines as certificate text, one line each."""
    return "".join(f"{line}\n" for line in trace)


def exact_metric(inst):
    """An instance's metric as Fractions, rebuilt from its scaled int rows."""
    return [[d if d == INF else Fraction(d, inst.scale) for d in row] for row in inst.scaled]


def dense_radii(inst):
    """candidate_radii read off every vertex row: the reference for the class scan."""
    vals = set()
    for u, row in enumerate(inst.scaled):
        vals.update(row[u:])
    vals.discard(INF)
    return [Fraction(d, inst.scale) for d in sorted(vals)]


def dense_threshold_graph(inst, r):
    """threshold_graph tested on every vertex pair: the reference for the class scan."""
    cutoff = inst.cutoff(r)
    n = inst.vertex_count
    return Graph(n, [
        (u, v) for u, row in enumerate(inst.scaled) for v in range(u + 1, n) if row[v] <= cutoff
    ])


def client_seat_flow(dist, bound, offers):
    """x_rounding.seat_flow with one node per client: the reference for the class flow."""
    n = len(dist)
    seated, flows, _ = bipartite_flow(n, [
        (seats, [v for v, d in enumerate(dist[u]) if d <= bound], 1)
        for u, seats in offers
    ], 1)
    if flows is None:
        return seated, None
    phi = [-1] * n
    for (u, _), pairs in zip(offers, flows):
        for v, _ in pairs:
            phi[v] = u
    return seated, phi


# A comment may hold anything but a line break: str.splitlines also breaks
# on control characters and on the Unicode line and paragraph separators.
COMMENTS = st.text(st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp")), max_size=8)


def with_comments(data, text):
    """text with a drawn '#' comment at the end of some of its lines."""
    out = []
    for line in text.splitlines():
        comment = data.draw(st.none() | COMMENTS)
        if comment is not None:
            line += data.draw(st.sampled_from(["", " ", "\t"])) + "#" + comment
        out.append(line)
    return "\n".join(out) + "\n"


# p/q weights with q <= 6; p = 0 gives zero-weight edges
pq_weights = st.builds(Fraction, st.integers(0, 12), st.integers(1, 6))


@st.composite
def weighted_graphs(draw, connected=False):
    """(n, edges): p/q weights, sometimes all equal; unless connected, often in several parts."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = set(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else set()
    if connected:
        chosen |= {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    else:
        split = draw(st.integers(0, n))  # drop every edge across the split
        chosen = {(u, v) for u, v in chosen if (u < split) == (v < split)}
    uniform = draw(st.none() | pq_weights)
    edges = [
        (u, v, uniform if uniform is not None else draw(pq_weights)) for u, v in sorted(chosen)
    ]
    return n, edges


def radii_and_midpoints(radii):
    return radii + [(a + b) / 2 for a, b in zip(radii, radii[1:])]


METRIC_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def path_graph(n):
    """The path 0 - 1 - ... - n-1."""
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def rand_connected_graph(rng, n, extra=None):
    """Random tree plus `extra` random chords; always connected."""
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    if extra is None:
        extra = rng.randrange(0, max(1, n))
    for _ in range(extra):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, edges)


def seeded_lp_points(seed=1, count=100):
    """Fractional LP1 points on random connected graphs, capacities in {0..8}.

    Solved once per (seed, count); every call gets its own copies of the
    capacity lists and assignments, so a caller may round them in place.
    """
    return [(g, list(caps), k, a.copy()) for g, caps, k, a in _lp_points(seed, count)]


@functools.lru_cache(maxsize=None)
def _lp_points(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(6, 28)
        g = rand_connected_graph(rng, n)
        caps = [rng.choice((0, 1, 2, 3, 5, 8)) for _ in range(n)]
        k = rng.randint(2, max(2, n // 2))
        res = solve_feasibility(build_lp1(g, list(caps), k))
        if res.feasible and any(q.denominator != 1 for q in res.assignment.y):
            out.append((g, tuple(caps), k, res.assignment))
    return tuple(out)


def phase1_feasible(num_vars, rows):
    """Decide feasibility of {x >= 0} + rows; rows are (coefs, sense, rhs).

    coefs maps column -> rational, sense is one of '<=', '>=', '=='.
    Returns per-column values (Fractions) or None if infeasible.
    """
    tab = Phase1Tableau(num_vars)
    for coefs, sense, b in rows:
        tab.add_row(coefs, sense, b)
    if not tab.solve():
        return None
    return tab.values()


def _solve_dense(model):
    """LP1 decided in one phase-1 simplex over the full (x, y) variable space.

    The differential reference for the cut loop: quadratic blowup, so
    small instances only.  A feasible point is verified as the cut loop's is.
    """
    n = model.graph.vertex_count
    rows, pair_col = _lp1_rows(model)
    vals = phase1_feasible(n + len(pair_col), [(c, s, b) for c, s, b, _ in rows])
    if vals is None:
        return FeasibilityResult(None)
    a = Assignment(n)
    for u in range(n):
        a.y[u] = vals[u]
    for (u, v), c in pair_col.items():
        if vals[c] > 0:
            a.set_x(u, v, vals[c])
    return _finish(model, a)


def two_hub_gadget(offset=0):
    """Two adjacent hubs plus four shared clients; 6 vertices, 9 edges."""
    a, b = offset, offset + 1
    clients = [offset + i for i in range(2, 6)]
    edges = [(a, b)]
    for c in clients:
        edges.append((a, c))
        edges.append((b, c))
    return edges


def two_hub_witness(assignment, offset=0):
    """The fractional point: hubs at y=3/4, each serving half of everyone."""
    a, b = offset, offset + 1
    assignment.y[a] = Fraction(3, 4)
    assignment.y[b] = Fraction(3, 4)
    for v in range(offset, offset + 6):
        assignment.set_x(a, v, Fraction(1, 2))
        assignment.set_x(b, v, Fraction(1, 2))


def rand_chain_case(rng):
    """A random valid (graph, capacities, assignment, paths) chain-shift input.

    Spider shape: fractional source 0, internal chain 1..m with y=1, and
    fractional sinks hanging off random chain positions.  Paths share their
    chain prefix, which exercises the per-arc aggregation.
    """
    m = rng.randint(1, 5)
    r = rng.randint(1, 3)
    n = 1 + m + r
    edges = [(0, 1)] + [(i, i + 1) for i in range(1, m)]
    pos = sorted(rng.randint(1, m) for _ in range(r))
    for j in range(r):
        edges.append((pos[j], 1 + m + j))
    graph = Graph(n, edges)

    ls = rng.randint(0, 3)
    y_s = Fraction(rng.randint(1, 9), 10)
    a = Assignment(n)
    a.y[0] = y_s
    if ls > 0:
        a.set_x(0, 0, y_s)
        a.add_x(1, 0, 1 - y_s)
    else:
        a.add_x(1, 0, Fraction(1))
    for i in range(1, m + 1):
        a.y[i] = Fraction(1)
        a.add_x(i, i, Fraction(1))
    sinks = []
    for j in range(r):
        t = 1 + m + j
        y_t = Fraction(rng.randint(0, 9), 10)
        a.y[t] = y_t
        if y_t > 0:
            a.set_x(t, t, y_t)
        a.add_x(pos[j], t, 1 - y_t)
        sinks.append((t, y_t))

    # capacities assigned after x so every load fits: internal loads can pile
    # up when several sinks share a chain position
    caps = [0] * n
    caps[0] = ls
    for i in range(1, m + 1):
        load = sum(a.x_row(i).values(), Fraction(0))
        caps[i] = max(2, ls, math.ceil(load)) + rng.randint(0, 2)
    for j, (t, _yt) in enumerate(sinks):
        caps[t] = max(ls, 1) + rng.randint(0, 3)

    budget = min(y_s, Fraction(1))
    paths = []
    for j, (t, y_t) in enumerate(sinks):
        room = min(budget, 1 - y_t)
        if room <= 0:
            continue
        alpha = room * Fraction(rng.randint(1, 4), 4)
        if alpha <= 0:
            continue
        budget -= alpha
        paths.append((alpha, tuple(range(pos[j] + 1)) + (t,)))
    if not paths:
        return None
    return graph, caps, a, paths


class Refused:
    """An input-check case's expected outcome: `error` with a message matching `match`."""

    def __init__(self, error, match):
        self.error = error
        self.match = match


def assert_outcome(call, expected):
    """call() raises as a Refused expects, or returns `expected` (a False or [] result)."""
    if isinstance(expected, Refused):
        with pytest.raises(expected.error, match=expected.match):
            call()
    else:
        assert call() == expected
