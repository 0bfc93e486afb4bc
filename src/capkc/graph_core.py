"""Unweighted graphs, hop metrics, power graphs, thresholding, instance I/O.

Everything downstream works on hop distances of a thresholded graph, so this
module is the single place that touches weighted input.  The metric is kept
as an int matrix over one positive int scale, the lcm of the input's
denominators, so every threshold test is one int comparison; the exact
rational view is built from it once.  Unreachable pairs are represented by
the INF sentinel, which only ever participates in comparisons, never in
arithmetic.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

from .errors import InputError
from .rational import format_rational

INF = float("inf")

HARD = "hard"
SOFT = "soft"


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Treated as immutable after construction; adjacency and the all-pairs hop
    matrix are computed lazily and cached.
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
        """All-pairs hop distances; INF for unreachable pairs."""
        if self._hops is None:
            self._hops = _bfs_rows(self.adjacency, 1)
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


def _bfs_rows(adjacency, step):
    """All-pairs distances over list adjacency with every edge `step` long."""
    n = len(adjacency)
    rows = []
    for s in range(n):
        order, parent = bfs(adjacency, s)
        row = [INF] * n
        row[s] = 0
        for v in order[1:]:
            row[v] = row[parent[v]] + step
        rows.append(row)
    return rows


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


def power_graph(graph, delta):
    """Graph with edge uv iff 1 <= hop distance <= delta.  Components never merge."""
    if delta < 1:
        raise InputError("power exponent must be >= 1")
    if delta == 1:
        return graph
    hops = graph.hop_distances()
    n = graph.vertex_count
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if hops[u][v] <= delta
    ]
    return Graph(n, edges)


class WeightedMetricInstance:
    """A problem statement: metric distances, capacities, k, hard/soft mode.

    The metric is kept once in ints: scaled[u][v] is d(u,v) times scale,
    the lcm of the denominators of the input distances (1 for integer
    input), and pairs in different components hold INF.  For an int d,
    d / scale <= r holds iff d <= floor(r * scale), so every threshold
    test compares scaled entries with cutoff(r).  dist is the exact view
    of the same metric: the very same matrix when scale is 1, else
    Fractions built once from it.  Capacities are nonnegative integers.
    """

    def __init__(self, vertex_count, scaled, scale, capacities, k, mode, edges=None):
        if mode not in (HARD, SOFT):
            raise InputError(f"mode must be '{HARD}' or '{SOFT}', got {mode!r}")
        if k < 1:
            raise InputError("k must be >= 1")
        if len(capacities) != vertex_count:
            raise InputError("capacity list length mismatch")
        for v, c in enumerate(capacities):
            if not isinstance(c, int) or c < 0:
                raise InputError(f"capacity of vertex {v} must be a nonnegative integer")
        self.vertex_count = vertex_count
        self.scaled = scaled
        self.scale = scale
        if scale == 1:
            self.dist = scaled
        else:
            self.dist = [
                [d if d == INF else Fraction(d, scale) for d in row] for row in scaled
            ]
        self.capacities = list(capacities)
        self.k = k
        self.mode = mode
        # original edge list (u, v, weight), kept for file round-trips
        self.edges = list(edges) if edges is not None else self._complete_edges()

    def _complete_edges(self):
        out = []
        for u in range(self.vertex_count):
            for v in range(u + 1, self.vertex_count):
                if self.dist[u][v] != INF:
                    out.append((u, v, self.dist[u][v]))
        return out

    def cutoff(self, r):
        """floor(r * scale): the largest scaled distance that is <= r."""
        r = Fraction(r)
        return r.numerator * self.scale // r.denominator

    @classmethod
    def from_weighted_edges(cls, vertex_count, edges, capacities, k, mode):
        """Build the metric as the exact shortest-path closure of the edges."""
        normalized = []
        for u, v, w in edges:
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise InputError(f"edge ({u},{v}) out of range")
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
        weights = {w for row in adj for _, w in row}
        step = weights.pop() if len(weights) == 1 else 0
        if step > 0:
            # uniform positive weights: BFS scaled by the weight
            scaled = _bfs_rows([[v for v, _ in row] for row in adj], step)
        else:
            scaled = []
            for s in range(n):
                row = [INF] * n
                row[s] = 0
                heap = [(0, s)]
                while heap:
                    d, u = heapq.heappop(heap)
                    if d > row[u]:
                        continue
                    for v, w in adj[u]:
                        nd = d + w
                        if nd < row[v]:
                            row[v] = nd
                            heapq.heappush(heap, (nd, v))
                scaled.append(row)
        return cls(vertex_count, scaled, scale, capacities, k, mode, edges=normalized)

    @classmethod
    def from_distance_matrix(cls, dist, capacities, k, mode):
        """Direct construction; validates symmetry, zero diagonal, triangle inequality."""
        n = len(dist)
        exact = [[(INF if dist[i][j] == INF else Fraction(dist[i][j])) for j in range(n)] for i in range(n)]
        scale = math.lcm(*{q.denominator for row in exact for q in row if q != INF})
        mat = [
            [(INF if q == INF else q.numerator * (scale // q.denominator)) for q in row]
            for row in exact
        ]
        for i in range(n):
            if mat[i][i] != 0:
                raise InputError(f"d({i},{i}) must be 0")
            for j in range(n):
                if mat[i][j] != mat[j][i]:
                    raise InputError(f"distance matrix not symmetric at ({i},{j})")
                if mat[i][j] != INF and mat[i][j] < 0:
                    raise InputError(f"negative distance at ({i},{j})")
        for i in range(n):
            for j in range(n):
                if mat[i][j] == INF:
                    continue
                for h in range(n):
                    if mat[i][h] != INF and mat[h][j] != INF and mat[i][h] + mat[h][j] < mat[i][j]:
                        raise InputError(f"triangle inequality violated on ({i},{h},{j})")
        return cls(n, mat, scale, capacities, k, mode)


def candidate_radii(inst):
    """Strictly increasing list of the distinct finite pairwise distances."""
    vals = set()
    for u, row in enumerate(inst.scaled):
        vals.update(row[u + 1 :])
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


def hamiltonian_path_in_cube(graph):
    """A vertex order covering all of G with consecutive hop distance <= 3.

    Built on a BFS spanning tree rooted at vertex 0: the path of a subtree is
    its root followed by each child's path reversed (children ascending).
    Reversal is what keeps junction distances within 3; each subtree path ends
    at a child of its root, so crossing from one child subtree to the next
    costs at most child -> root -> next child -> its child = 3 tree hops.
    """
    n = graph.vertex_count
    if n == 0:
        raise InputError("empty graph has no Hamiltonian path")
    if not graph.is_connected():
        raise InputError("Hamiltonian path in the cube needs a connected graph")
    # BFS tree from 0; BFS discovers each vertex's children in ascending order
    order, parent = bfs(graph.adjacency, 0)
    children = [[] for _ in range(n)]
    for v in order[1:]:
        children[parent[v]].append(v)
    path = [None] * n
    for v in reversed(order):
        seg = [v]
        for c in children[v]:
            seg.extend(reversed(path[c]))
            path[c] = None
        path[v] = seg
    return path[0]


# ---------------------------------------------------------------------------
# instance file format
#
#   capkc 1 <n> <m> <k> <hard|soft>
#   v <id> <capacity>          (n lines, each id exactly once)
#   e <u> <v> <weight>         (m lines; weight rational p/q or integer)
#
# Blank lines and lines starting with '#' are skipped.


def parse_instance_text(text):
    lines = text.splitlines()
    items = [
        (i + 1, line.strip())
        for i, line in enumerate(lines)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not items:
        raise InputError("empty instance file")

    def fail(lineno, msg):
        raise InputError(f"line {lineno}: {msg}")

    lineno, header = items[0]
    parts = header.split()
    if len(parts) != 6 or parts[0] != "capkc":
        fail(lineno, "header must be 'capkc 1 <n> <m> <k> <hard|soft>'")
    if parts[1] != "1":
        fail(lineno, f"unsupported format version {parts[1]!r}")
    try:
        n, m, k = int(parts[2]), int(parts[3]), int(parts[4])
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
    for lineno, line in items[1 : 1 + n]:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "v":
            fail(lineno, "expected 'v <id> <capacity>'")
        try:
            vid, cap = int(parts[1]), int(parts[2])
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
    for lineno, line in items[1 + n :]:
        parts = line.split()
        if len(parts) != 4 or parts[0] != "e":
            fail(lineno, "expected 'e <u> <v> <weight>'")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            fail(lineno, "edge endpoints must be integers")
        try:
            w = Fraction(parts[3])
        except (ValueError, ZeroDivisionError):
            fail(lineno, f"bad weight {parts[3]!r}")
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read instance file {path}: {exc}") from exc
    return parse_instance_text(text)


def format_instance(inst):
    out = [f"capkc 1 {inst.vertex_count} {len(inst.edges)} {inst.k} {inst.mode}"]
    for v in range(inst.vertex_count):
        out.append(f"v {v} {inst.capacities[v]}")
    for u, v, w in sorted(inst.edges, key=lambda e: (min(e[0], e[1]), max(e[0], e[1]))):
        a, b = (u, v) if u < v else (v, u)
        out.append(f"e {a} {b} {format_rational(w)}")
    return "\n".join(out) + "\n"


def write_instance(inst, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_instance(inst))
