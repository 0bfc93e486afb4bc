"""Instance generators: gap demonstrations, reductions, random inputs.

Every generator is deterministic and lays vertices out in contiguous,
documented id blocks so tests and downstream tools can address parts of
the construction without re-deriving them.  Generators that come with a
fractional opening plan return it as a ready Assignment that is feasible
at distance exactly 1; callers can hand it straight to the rounding
pipeline or to the LP verifier.
"""

import random
from collections import namedtuple
from fractions import Fraction

from .assignment import Assignment
from .errors import InputError
from .graph_core import HARD, WeightedMetricInstance, check_vertex_count

__all__ = [
    "gen_fig1",
    "gen_gap_construction",
    "gap_layout",
    "GapLayout",
    "gen_x3c",
    "x3c_layout",
    "X3CLayout",
    "gen_random_connected",
]


def _hub_gadget_edges(base):
    """Two adjacent hubs sharing four private clients; 9 edges."""
    a, b = base, base + 1
    edges = [(a, b)]
    for c in range(base + 2, base + 6):
        edges.append((a, c))
        edges.append((b, c))
    return edges


def gen_fig1():
    """Two disjoint hub gadgets where the LP opens 3 but no 3 vertices work.

    Vertices 0..5 form the first gadget (hubs 0 and 1), 6..11 the second
    (hubs 6 and 7).  Uniform capacity 4, k = 3, unit edge weights.
    Returns (instance, witness): the witness opens 3/4 at each hub and
    splits every client between its two hubs, which is feasible at
    distance 1, yet no integral placement of 3 centers serves all 12
    vertices at any radius because each 6-vertex component needs 2.
    """
    edges = _hub_gadget_edges(0) + _hub_gadget_edges(6)
    inst = WeightedMetricInstance.from_weighted_edges(
        12, [(u, v, 1) for u, v in edges], [4] * 12, 3, HARD
    )
    witness = Assignment(12)
    for base in (0, 6):
        for hub in (base, base + 1):
            witness.y[hub] = Fraction(3, 4)
        for v in range(base, base + 6):
            witness.set_x(base, v, Fraction(1, 2))
            witness.set_x(base + 1, v, Fraction(1, 2))
    return inst, witness


GapLayout = namedtuple("GapLayout", "k root rays connectors hubs middles")
GapLayout.__doc__ = """Id blocks of the gap construction for parameter k.

root is the star center; rays[i] is the i-th star leaf; connectors[i]
bridges rays[i] to the i-th gadget; gadget i is hubs[i] = (a, b) plus
middles[i], the a/b-shared clients.
"""


def gap_layout(k):
    if k < 24:
        raise InputError(f"gap construction needs k >= 24, got {k}")
    # n grows as k^2: refuse an oversized k before laying anything out
    check_vertex_count(1 + (k - 6) * (k + 5))
    cap = k - 1
    gadgets = k - 6
    rays = tuple(range(1, 1 + gadgets))
    connectors = tuple(range(1 + gadgets, 1 + 2 * gadgets))
    hubs = []
    middles = []
    base = 1 + 2 * gadgets
    for _ in range(gadgets):
        hubs.append((base, base + 1))
        middles.append(tuple(range(base + 2, base + cap + 4)))
        base += cap + 4
    return GapLayout(
        k=k,
        root=0,
        rays=rays,
        connectors=connectors,
        hubs=tuple(hubs),
        middles=tuple(middles),
    )


def gen_gap_construction(k, nonuniform=False):
    """A k-center instance whose LP needs radius 1 but integral needs 3.

    k - 6 hub gadgets hang off a star: the root reaches each gadget only
    through a ray vertex and a connector vertex.  Capacity is k - 1,
    either everywhere (uniform) or only on the root and the hubs.
    Returns (instance, witness); the witness opens the root fully, puts
    (cap + 5) / (2 cap) on every hub, and tops hubs up in id order so
    the total is exactly k.  It is feasible at distance 1.
    """
    layout = gap_layout(k)
    cap = k - 1
    gadgets = k - 6

    edges = []
    for i in range(gadgets):
        a, b = layout.hubs[i]
        x = layout.connectors[i]
        edges.append((layout.root, layout.rays[i]))
        edges.append((x, layout.rays[i]))
        edges.append((x, a))
        edges.append((x, b))
        edges.append((a, b))
        for w in layout.middles[i]:
            edges.append((a, w))
            edges.append((b, w))
    n = 1 + 2 * gadgets + gadgets * (cap + 4)

    if nonuniform:
        capacities = [0] * n
        capacities[layout.root] = cap
        for a, b in layout.hubs:
            capacities[a] = cap
            capacities[b] = cap
    else:
        capacities = [cap] * n

    inst = WeightedMetricInstance.from_weighted_edges(
        n, [(u, v, 1) for u, v in edges], capacities, k, HARD
    )

    witness = Assignment(n)
    witness.y[layout.root] = Fraction(1)
    share = Fraction(cap + 5, 2 * cap)
    hub_ids = sorted(v for pair in layout.hubs for v in pair)
    for v in hub_ids:
        witness.y[v] = share
    # top up in id order: for every k that gap_layout accepts (24..46),
    # 0 <= deficit <= the hubs' headroom (1.09 of 14.1 at k = 24, 0.56 of
    # 35.6 at k = 46), so the total reaches exactly k
    deficit = k - witness.sum_y()
    for v in hub_ids:
        if deficit == 0:
            break
        bump = min(1 - witness.y[v], deficit)
        witness.y[v] += bump
        deficit -= bump

    witness.set_x(layout.root, layout.root, Fraction(1))
    for i in range(gadgets):
        witness.set_x(layout.root, layout.rays[i], Fraction(1))
        a, b = layout.hubs[i]
        witness.set_x(a, layout.connectors[i], Fraction(1, 2))
        witness.set_x(b, layout.connectors[i], Fraction(1, 2))
        ya, yb = witness.y[a], witness.y[b]
        for c in (a, b) + layout.middles[i]:
            witness.set_x(a, c, ya / (ya + yb))
            witness.set_x(b, c, yb / (ya + yb))
    return inst, witness


X3CLayout = namedtuple("X3CLayout", "copies set_vertices guarded pendants")
X3CLayout.__doc__ = """Id blocks of the exact-cover reduction.

copies[c][e] is copy c of universe element e (f + 1 copies each);
set_vertices[j] carries set j, guarded[j] is its private connector,
pendants[j] the connector's 3f + 1 private leaves.
"""


def x3c_layout(set_count, universe_size):
    copies = tuple(
        tuple(c * universe_size + e for e in range(universe_size))
        for c in range(set_count + 1)
    )
    base = (set_count + 1) * universe_size
    block = 3 * set_count + 3
    set_vertices = []
    guarded = []
    pendants = []
    for j in range(set_count):
        start = base + j * block
        set_vertices.append(start)
        guarded.append(start + 1)
        pendants.append(tuple(range(start + 2, start + block)))
    return X3CLayout(
        copies=copies,
        set_vertices=tuple(set_vertices),
        guarded=tuple(guarded),
        pendants=tuple(pendants),
    )


def gen_x3c(sets, universe):
    """Reduce an exact-cover-by-3-sets question to hard k-center.

    universe is a sequence of distinct labels with size divisible by 3;
    sets is a sequence of 3-element subsets of it.  Each element appears
    as len(sets) + 1 identical copies; each set vertex is adjacent to
    every copy of its members and guards a pendant bundle that exactly
    fills its connector's capacity.  Only set vertices and connectors
    have capacity (3 len(sets) + 3); k = len(sets) + len(universe) / 3.
    A radius-1 solution exists iff the cover instance is solvable.
    """
    universe = list(universe)
    if len(set(universe)) != len(universe):
        raise InputError("universe labels repeat")
    if len(universe) % 3 != 0 or not universe:
        raise InputError(
            f"universe size must be a positive multiple of 3, got {len(universe)}"
        )
    index = {label: e for e, label in enumerate(universe)}
    members = []
    for j, s in enumerate(sets):
        chosen = sorted(index.get(label, -1) for label in set(s))
        if len(chosen) != 3 or chosen[0] < 0:
            raise InputError(
                f"set {j} must contain exactly 3 distinct universe labels"
            )
        members.append(chosen)
    f = len(members)
    n = (f + 1) * len(universe) + f * (3 * f + 3)
    check_vertex_count(n)
    layout = x3c_layout(f, len(universe))

    edges = []
    for j, chosen in enumerate(members):
        sv = layout.set_vertices[j]
        for c in range(f + 1):
            for e in chosen:
                edges.append((sv, layout.copies[c][e]))
        edges.append((sv, layout.guarded[j]))
        for p in layout.pendants[j]:
            edges.append((layout.guarded[j], p))

    room = 3 * f + 3
    capacities = [0] * n
    for j in range(f):
        capacities[layout.set_vertices[j]] = room
        capacities[layout.guarded[j]] = room
    k = f + len(universe) // 3
    return WeightedMetricInstance.from_weighted_edges(
        n, [(u, v, 1) for u, v in edges], capacities, k, HARD
    )


def gen_random_connected(n, edge_density, capacity_range, k, seed, mode=HARD):
    """Seeded connected instance: a random tree plus extra chords.

    edge_density scales the number of chord attempts (density times n),
    so it must be finite and in [0, n]: at most n^2 draws.  Capacities
    are drawn uniformly from capacity_range inclusive.  Unit edge
    weights.  The same arguments always produce the same instance.
    """
    check_vertex_count(n)
    lo, hi = capacity_range
    if lo > hi or lo < 0:
        raise InputError(f"bad capacity range [{lo}, {hi}]")
    if not 0 <= edge_density <= n:
        raise InputError(f"edge density must be in [0, {n}], got {edge_density}")
    rng = random.Random(seed)
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    for _ in range(int(edge_density * n)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        edges.add((min(u, v), max(u, v)))
    capacities = [rng.randint(lo, hi) for _ in range(n)]
    return WeightedMetricInstance.from_weighted_edges(
        n, [(u, v, 1) for u, v in sorted(edges)], capacities, k, mode
    )
