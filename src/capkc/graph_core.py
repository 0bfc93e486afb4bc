"""Unweighted graphs, hop metrics, thresholding, instance I/O.

Everything downstream works on hop distances of a thresholded graph, so this
module is the single place that touches weighted input.  The metric is one
table: an int matrix over one positive int scale, the lcm of the input's
denominators, so every threshold test is one int comparison and a Fraction
is built only where a distance is reported.  Unreachable pairs are
represented by the INF sentinel, which only ever participates in
comparisons, never in arithmetic.  The table is dense, so an instance may
have at most MAX_VERTICES vertices; a larger one, or one without vertices,
is refused with an InputError (exit 3) before any row is built.

Twins, vertices with equal (neighbour, weight) lists, share one search:
a twin's row is its class leader's row with their two entries swapped,
since every path from either of them leaves through the same edges.
Where the classes at least halve the vertices, that search runs on the
quotient graph, one node per class.  An integral weight in a file is read
as an int, so the common file builds no Fraction.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

from .errors import InputError
from .rational import (
    format_rational, parse_int, parse_rational, read_text, records, write_text
)

INF = float("inf")

HARD = "hard"
SOFT = "soft"

# Largest instance whose n x n metric table is built (about 4M entries).
MAX_VERTICES = 2048


def check_vertex_count(n):
    """Refuse an instance without vertices or of more than MAX_VERTICES (exit 3)."""
    if n < 1:
        raise InputError("n must be >= 1")
    if n > MAX_VERTICES:
        raise InputError(f"{n} vertices exceed the limit of {MAX_VERTICES}")


def check_capacities(capacities, n):
    """Refuse a capacity list that is not n nonnegative ints (exit 3)."""
    if len(capacities) != n:
        raise InputError("capacity list length mismatch")
    for v, c in enumerate(capacities):
        if not isinstance(c, int) or c < 0:
            raise InputError(f"capacity of vertex {v} must be a nonnegative integer")


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Treated as immutable after construction; adjacency is computed lazily
    and cached, and so is each row of the hop table, on its first read.
    """

    def __init__(self, vertex_count, edges):
        if vertex_count < 0:
            raise InputError("vertex_count must be nonnegative")
        norm = set()
        for u, v in edges:
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise InputError(f"edge ({u},{v}) out of range [0,{vertex_count})")
            norm.add((u, v) if u < v else (v, u))
        self.vertex_count = vertex_count
        self.edges = frozenset(norm)
        self._adj = None
        self._hops = None

    @property
    def adjacency(self):
        if self._adj is None:
            adj = [[] for _ in range(self.vertex_count)]
            for u, v in self.edges:
                adj[u].append(v)
                adj[v].append(u)
            for lst in adj:
                lst.sort()
            self._adj = adj
        return self._adj

    def neighbors(self, u):
        return self.adjacency[u]

    def closed_neighborhood(self, u):
        return [u] + self.adjacency[u]

    def hop_distances(self):
        """Hop table: hops[u][v] is the hop distance, INF when unreachable.

        Row u is one BFS from u, run on the first read of hops[u] and
        cached; len(hops) is n, and an index outside 0..n-1 raises
        IndexError.
        """
        if self._hops is None:
            self._hops = _HopRows(self.adjacency)
        return self._hops

    def is_connected(self):
        return self.vertex_count <= 1 or len(bfs(self.adjacency, 0)[0]) == self.vertex_count

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.vertex_count == other.vertex_count
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertex_count, self.edges))

    def __repr__(self):
        return f"Graph(n={self.vertex_count}, m={len(self.edges)})"


def connected_components(graph):
    """Partition of the vertex set into maximal connected classes.

    Returned as a list of ascending vertex lists, ordered by smallest member.
    """
    seen = set()
    out = []
    for s in range(graph.vertex_count):
        if s not in seen:
            comp = sorted(bfs(graph.adjacency, s)[0])
            seen.update(comp)
            out.append(comp)
    return out


def bfs(adjacency, source):
    """Breadth-first search from source; returns (order, parent).

    adjacency is any indexable (list or dict) whose neighbour lists are
    ascending, so ties go to the lower id.  order lists the vertices
    reachable from source in visiting order; parent maps each of them to
    the vertex that discovered it, with parent[source] None.
    """
    parent = {source: None}
    order = [source]
    for u in order:  # order grows behind the scan: it is the queue
        for w in adjacency[u]:
            if w not in parent:
                parent[w] = u
                order.append(w)
    return order, parent


def _bfs_row(adjacency, s, step):
    """Distances from s over list adjacency with every edge `step` long."""
    order, parent = bfs(adjacency, s)
    row = [INF] * len(adjacency)
    row[s] = 0
    for v in order[1:]:
        row[v] = row[parent[v]] + step
    return row


def _dijkstra_row(adjacency, s):
    """Distances from s over lists of (neighbour, nonnegative int weight)."""
    row = [INF] * len(adjacency)
    row[s] = 0
    heap = [(0, s)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > row[u]:
            continue
        for v, w in adjacency[u]:
            nd = d + w
            if nd < row[v]:
                row[v] = nd
                heapq.heappush(heap, (nd, v))
    return row


class _HopRows:
    """Unit-step distance rows over list adjacency, each built on first read."""

    __slots__ = ("_adjacency", "_rows")

    def __init__(self, adjacency):
        self._adjacency = adjacency
        self._rows = [None] * len(adjacency)

    def __len__(self):
        return len(self._rows)

    def __getitem__(self, u):
        if not 0 <= u < len(self._rows):  # a negative u must not wrap around
            raise IndexError(f"hop row {u} out of range [0,{len(self._rows)})")
        row = self._rows[u]
        if row is None:
            row = self._rows[u] = _bfs_row(self._adjacency, u, 1)
        return row


def induced_subgraph(graph, vertices):
    """Subgraph on `vertices`, relabeled to 0..len-1 in ascending id order.

    Returns (subgraph, old_ids) where old_ids[new] = original vertex id.
    """
    old_ids = sorted(vertices)
    index = {v: i for i, v in enumerate(old_ids)}
    edges = [
        (index[u], index[v])
        for u, v in graph.edges
        if u in index and v in index
    ]
    return Graph(len(old_ids), edges), old_ids


class WeightedMetricInstance:
    """A problem statement: metric distances, capacities, k, hard/soft mode.

    The metric is one int table: scaled[u][v] is d(u,v) times scale, the
    lcm of the denominators of the input distances (1 for integer input),
    and pairs in different components hold INF.  For an int d,
    d / scale <= r holds iff d <= floor(r * scale), so every threshold
    test compares scaled entries with cutoff(r); an exact distance is
    Fraction(scaled[u][v], scale), built only where one is reported.
    Capacities are nonnegative integers.  At most MAX_VERTICES vertices.
    """

    def __init__(self, vertex_count, scaled, scale, capacities, k, mode, edges):
        if mode not in (HARD, SOFT):
            raise InputError(f"mode must be '{HARD}' or '{SOFT}', got {mode!r}")
        if k < 1:
            raise InputError("k must be >= 1")
        check_capacities(capacities, vertex_count)
        self.vertex_count = vertex_count
        self.scaled = scaled
        self.scale = scale
        self.capacities = list(capacities)
        self.k = k
        self.mode = mode
        # original edge list (u, v, weight), kept for file round-trips
        self.edges = list(edges)

    def cutoff(self, r):
        """floor(r * scale): the largest scaled distance that is <= r."""
        r = Fraction(r)
        return r.numerator * self.scale // r.denominator

    def reach(self, phi):
        """Exact largest distance d(phi[v], v): an int when whole, else a Fraction."""
        far = Fraction(max(self.scaled[u][v] for v, u in enumerate(phi)), self.scale)
        return int(far) if far.denominator == 1 else far

    @classmethod
    def from_weighted_edges(cls, vertex_count, edges, capacities, k, mode):
        """Build the metric as the exact shortest-path closure of the edges.

        One search per class of twins: one sort of the (neighbour, weight)
        lists puts each class in a run, and the first of each class runs a
        BFS (uniform positive weights) or a Dijkstra search.  A twin s of
        that leader copies the leader's row and swaps two entries:
        row[leader] = d(leader, s) and row[s] = 0.  For any third vertex v,
        d(s, v) is the minimum over s's list of w + d(u, v), so equal lists
        give equal distances; this holds for zero and p/q weights and for
        isolated vertices alike.  Twins are never adjacent (no self-loops).

        When the classes at least halve the vertices (the rule
        lp_feasibility._twin_columns applies to centers), the leader searches
        the quotient graph: one node per class, whose list is its leader's
        (class, weight) list with duplicates merged.  A class is a module,
        so a path between two classes maps onto a path of the quotient of
        the same length, and a quotient path lifts back to one between any
        two of their members.  The row is expanded by class; two members of
        one class are twice its lightest edge apart, or INF if it has no
        edge.  On inputs with few twins the quotient saves little search and
        its expansion costs a pass over each row (parsing the mixed and
        exact benchmark inputs took 16-29% longer with the quotient on every
        input), so there the leader searches the vertices themselves.
        """
        check_vertex_count(vertex_count)
        normalized = []
        for u, v, w in edges:
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise InputError(f"edge ({u},{v}) out of range")
            if not isinstance(w, (int, Fraction)):
                w = Fraction(w)
            if w < 0:
                raise InputError(f"negative edge weight on ({u},{v})")
            normalized.append((u, v, w))
        scale = math.lcm(*{w.denominator for _, _, w in normalized})
        n = vertex_count
        adj = [[] for _ in range(n)]
        for u, v, w in normalized:
            w = w.numerator * (scale // w.denominator)
            adj[u].append((v, w))
            adj[v].append((u, w))
        for row in adj:
            row.sort()
        weights = {w for row in adj for _, w in row}
        step = weights.pop() if len(weights) == 1 else 0
        # equal lists sort next to each other: a class is a run, led by its first
        order = sorted(range(n), key=adj.__getitem__)
        leaders = []
        label = [0] * n  # label[v]: v's class, numbered in run order
        for s in order:
            if not leaders or adj[s] != adj[leaders[-1]]:
                leaders.append(s)
            label[s] = len(leaders) - 1
        quotient = 2 * len(leaders) <= n
        # the searched graph: one node per class with its leader's edges, or every vertex
        nodes = [list({(label[v], w) for v, w in adj[s]}) for s in leaders] if quotient else adj
        # uniform positive weights: BFS scaled by the weight
        hop_adj = [[v for v, _ in row] for row in nodes] if step > 0 else None
        scaled = [None] * n
        for s in order:
            c = label[s]
            lead = leaders[c]
            if s != lead:
                row = scaled[lead].copy()
                row[lead] = row[s]
                row[s] = 0
            else:
                source = c if quotient else s
                row = _bfs_row(hop_adj, source, step) if step > 0 else _dijkstra_row(nodes, source)
                if quotient:
                    # two members of a class are two edges apart, over its lightest edge
                    row[c] = 2 * min(w for _, w in adj[s]) if adj[s] else INF
                    row = list(map(row.__getitem__, label))
                    row[s] = 0
            scaled[s] = row
        return cls(vertex_count, scaled, scale, capacities, k, mode, normalized)

    @classmethod
    def from_distance_matrix(cls, dist, capacities, k, mode):
        """The instance whose edges are the matrix's finite pairs, if it is a metric.

        Checks the zero diagonal, symmetry and signs, builds the instance
        with from_weighted_edges over every finite pair u < v, and raises
        InputError where the closure differs from the matrix: there a
        shorter path breaks the triangle inequality, or joins a pair
        given as INF.
        """
        n = len(dist)
        check_vertex_count(n)
        mat = [[d if d == INF else Fraction(d) for d in row] for row in dist]
        for i in range(n):
            if mat[i][i] != 0:
                raise InputError(f"d({i},{i}) must be 0")
            for j in range(n):
                if mat[i][j] != mat[j][i]:
                    raise InputError(f"distance matrix not symmetric at ({i},{j})")
                if mat[i][j] < 0:
                    raise InputError(f"negative distance at ({i},{j})")
        inst = cls.from_weighted_edges(n, [
            (i, j, mat[i][j]) for i in range(n) for j in range(i + 1, n) if mat[i][j] != INF
        ], capacities, k, mode)
        for i, row in enumerate(inst.scaled):
            for j in range(i + 1, n):
                d = row[j] if row[j] == INF else Fraction(row[j], inst.scale)
                if d != mat[i][j]:
                    raise InputError(
                        f"distance matrix is not a metric at ({i},{j}):"
                        f" a path of length {d} is shorter"
                    )
        return inst


def candidate_radii(inst):
    """Strictly increasing list of the distinct finite pairwise distances.

    The diagonal d(v, v) = 0 counts, so the list starts at 0.
    """
    vals = set()
    for u, row in enumerate(inst.scaled):
        vals.update(row[u:])
    vals.discard(INF)
    return [Fraction(d, inst.scale) for d in sorted(vals)]


def threshold_graph(inst, r):
    """Edge uv iff u != v and d(u,v) <= r; the bottleneck reduction step."""
    if r < 0:
        raise InputError("threshold radius must be >= 0")
    cutoff = inst.cutoff(r)
    n = inst.vertex_count
    edges = [
        (u, v)
        for u, row in enumerate(inst.scaled)
        for v in range(u + 1, n)
        if row[v] <= cutoff
    ]
    return Graph(n, edges)


def anchor_tree(hops, anchors, reach):
    """BFS over the ascending anchors, joining pairs at most `reach` hops apart.

    Rooted at the lowest id; returns (order, parent) as bfs does, so order
    misses any anchor the tree cannot reach.
    """
    neighbors = {
        s: [t for t in anchors if t != s and hops[s][t] <= reach] for s in anchors
    }
    return bfs(neighbors, anchors[0])


def hamiltonian_path_in_cube(order, parent):
    """A vertex order covering a BFS tree with consecutive tree distance <= 3.

    (order, parent) is a tree as bfs returns it; the path of a subtree is its
    root followed by each child's path reversed (children in BFS order, which
    is ascending for ascending neighbour lists).  Reversal is what keeps
    junction distances within 3; each subtree path ends at a child of its
    root, so crossing from one child subtree to the next costs at most
    child -> root -> next child -> its child = 3 tree hops.  The path covers
    exactly the vertices of order.
    """
    children = {v: [] for v in order}
    for v in order[1:]:
        children[parent[v]].append(v)
    path = {}
    for v in reversed(order):
        seg = [v]
        for c in children[v]:
            seg.extend(reversed(path.pop(c)))
        path[v] = seg
    return path[order[0]]


# ---------------------------------------------------------------------------
# instance file format
#
#   capkc 1 <n> <m> <k> <hard|soft>
#   v <id> <capacity>          (n lines, each id exactly once)
#   e <u> <v> <weight>         (m lines; weight rational p/q or integer)
#
# A '#' starts a comment that runs to the end of its line; blank lines are
# skipped (rational.records).


def parse_instance_text(text):
    items = list(records(text))
    if not items:
        raise InputError("empty instance file")

    def fail(lineno, msg):
        raise InputError(f"line {lineno}: {msg}")

    lineno, parts = items[0]
    if len(parts) != 6 or parts[0] != "capkc":
        fail(lineno, "header must be 'capkc 1 <n> <m> <k> <hard|soft>'")
    if parts[1] != "1":
        fail(lineno, f"unsupported format version {parts[1]!r}")
    try:
        n, m, k = parse_int(parts[2]), parse_int(parts[3]), parse_int(parts[4])
    except ValueError:
        fail(lineno, "n, m, k must be integers")
    mode = parts[5]
    if mode not in (HARD, SOFT):
        fail(lineno, f"mode must be 'hard' or 'soft', got {mode!r}")
    if n < 1:
        fail(lineno, "n must be >= 1")
    if m < 0 or k < 1:
        fail(lineno, "m must be >= 0 and k >= 1")
    if len(items) - 1 != n + m:
        fail(lineno, f"expected {n} vertex lines and {m} edge lines, found {len(items) - 1}")

    caps = [None] * n
    for lineno, parts in items[1 : 1 + n]:
        if len(parts) != 3 or parts[0] != "v":
            fail(lineno, "expected 'v <id> <capacity>'")
        try:
            vid, cap = parse_int(parts[1]), parse_int(parts[2])
        except ValueError:
            fail(lineno, "vertex id and capacity must be integers")
        if not 0 <= vid < n:
            fail(lineno, f"vertex id {vid} out of range [0,{n})")
        if caps[vid] is not None:
            fail(lineno, f"duplicate vertex line for id {vid}")
        if cap < 0:
            fail(lineno, "capacity must be >= 0")
        caps[vid] = cap

    edges = []
    seen_pairs = set()
    for lineno, parts in items[1 + n :]:
        if len(parts) != 4 or parts[0] != "e":
            fail(lineno, "expected 'e <u> <v> <weight>'")
        try:
            u, v = parse_int(parts[1]), parse_int(parts[2])
        except ValueError:
            fail(lineno, "edge endpoints must be integers")
        w = parts[3]
        if w.isascii() and w.isdigit():  # the common weight: an int, no Fraction
            w = int(w)
        else:
            try:
                w = parse_rational(w)
            except ValueError:
                fail(lineno, f"bad weight {parts[3]!r}")
            if w.denominator == 1:
                w = w.numerator
        if u == v:
            fail(lineno, f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            fail(lineno, f"edge ({u},{v}) out of range [0,{n})")
        if w < 0:
            fail(lineno, "edge weight must be >= 0")
        pair = (u, v) if u < v else (v, u)
        if pair in seen_pairs:
            fail(lineno, f"duplicate edge ({pair[0]},{pair[1]})")
        seen_pairs.add(pair)
        edges.append((u, v, w))

    return WeightedMetricInstance.from_weighted_edges(n, edges, caps, k, mode)


def read_instance(path):
    return parse_instance_text(read_text(path, "instance"))


def format_instance(inst):
    out = [f"capkc 1 {inst.vertex_count} {len(inst.edges)} {inst.k} {inst.mode}"]
    for v in range(inst.vertex_count):
        out.append(f"v {v} {inst.capacities[v]}")
    for u, v, w in sorted(inst.edges, key=lambda e: (min(e[0], e[1]), max(e[0], e[1]))):
        a, b = (u, v) if u < v else (v, u)
        out.append(f"e {a} {b} {format_rational(w)}")
    return "\n".join(out) + "\n"


def write_instance(inst, path):
    write_text(path, format_instance(inst))
