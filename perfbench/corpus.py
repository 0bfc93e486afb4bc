"""The inputs of the four benchmark workloads.

Each workload is a fixed list of instances, built by the benchmark's own
generators (not capkc's, so a change to the program's generators cannot
change the benchmark's inputs).  The workload seed sets the order in
which a pass calls them.  It does not relabel vertices: the exact LP's
pivot path, and with it the time of one solve, depends on the vertex
numbering (Python 3.11 on a 2-vCPU VM: five relabelled copies of the
523-vertex nonuniform gap instance took 3.7 s to 20 s per solve, 6.5 s
in the construction's own numbering), so a seeded relabelling would
measure the numbering, not the program.  The answer
of every instance (exit code, threshold or optimum) is recorded once,
in expected.json.
"""

import heapq
import random
from dataclasses import dataclass, replace
from fractions import Fraction


@dataclass(frozen=True)
class Instance:
    """An instance in the terms of the capkc file format."""

    name: str
    capacities: tuple
    edges: tuple  # (u, v, weight) with u < v, sorted
    k: int
    mode: str = "hard"

    @property
    def n(self):
        return len(self.capacities)

    def text(self):
        out = [f"capkc 1 {self.n} {len(self.edges)} {self.k} {self.mode}"]
        out += [f"v {v} {c}" for v, c in enumerate(self.capacities)]
        out += [f"e {u} {v} {w}" for u, v, w in self.edges]
        return "\n".join(out) + "\n"

    def metric(self):
        """Exact shortest-path distances; None for pairs not connected."""
        adj = [[] for _ in range(self.n)]
        for u, v, w in self.edges:
            adj[u].append((v, Fraction(w)))
            adj[v].append((u, Fraction(w)))
        rows = []
        for s in range(self.n):
            row = [None] * self.n
            row[s] = Fraction(0)
            heap = [(Fraction(0), s)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > row[u]:
                    continue
                for v, w in adj[u]:
                    if row[v] is None or d + w < row[v]:
                        row[v] = d + w
                        heapq.heappush(heap, (d + w, v))
            rows.append(row)
        return rows


def _make(name, capacities, edges, k, mode="hard"):
    norm = sorted((min(u, v), max(u, v), w) for u, v, w in edges)
    return Instance(name, tuple(capacities), tuple(norm), k, mode)


def hub_chain(gadgets, nonuniform=False):
    """The gap construction of the capkc paper with `gadgets` hub gadgets.

    A root reaches each gadget through a ray and a connector; a gadget
    is two adjacent hubs sharing cap + 2 clients.  k = gadgets + 6 and
    cap = k - 1 as in the paper; capacity sits on every vertex, or only
    on the root and the hubs when nonuniform.  At gadgets = 18 this is
    `capkc gen gap --k 24`.
    """
    k = gadgets + 6
    cap = k - 1
    edges = []
    hubs = []
    base = 1 + 2 * gadgets
    for i in range(gadgets):
        ray, conn, a, b = 1 + i, 1 + gadgets + i, base, base + 1
        hubs += [a, b]
        edges += [(0, ray, 1), (conn, ray, 1), (conn, a, 1), (conn, b, 1), (a, b, 1)]
        for w in range(base + 2, base + cap + 4):
            edges += [(a, w, 1), (b, w, 1)]
        base += cap + 4
    if nonuniform:
        caps = [0] * base
        for v in [0] + hubs:
            caps[v] = cap
    else:
        caps = [cap] * base
    kind = "nonuniform" if nonuniform else "uniform"
    return _make(f"hub-chain-{kind}-g{gadgets}", caps, edges, k)


def fig1():
    """Two disjoint hub gadgets: feasible LP at radius 1, infeasible integrally."""
    edges = []
    for a in (0, 6):
        edges.append((a, a + 1, 1))
        for c in range(a + 2, a + 6):
            edges += [(a, c, 1), (a + 1, c, 1)]
    return _make("fig1", [4] * 12, edges, 3)


def random_connected(name, seed, n, density, cap_range, k, mode="hard", weights=(1, 1)):
    """A random tree plus int(density * n) chord attempts, seeded."""
    rng = random.Random(seed)
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(int(density * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    edges = [(u, v, rng.randint(*weights)) for u, v in sorted(pairs)]
    caps = [rng.randint(*cap_range) for _ in range(n)]
    return _make(name, caps, edges, k, mode)


def _with_room(inst):
    """inst with k raised until its k largest capacities can hold every vertex.

    On a connected hard instance that makes the largest radius feasible,
    so the solve answers with a solution.
    """
    caps = sorted(inst.capacities, reverse=True)
    k = inst.k
    while sum(caps[:k]) < inst.n:
        k += 1
    return replace(inst, k=k)


def _mixed():
    out = []
    for i in range(4):  # sparse unit-weight, loose capacity
        n = 10 + 2 * i
        out.append(_with_room(random_connected(f"unit-sparse-{i}", 100 + i, n, 0.6, (2, 5),
                                               max(2, n // 4))))
    for i in range(3):  # denser unit-weight, tight capacity
        n = 10 + 2 * i
        out.append(_with_room(random_connected(f"unit-dense-{i}", 200 + i, n, 1.5, (1, 3),
                                               max(2, n // 3))))
    for i in range(4):  # integer weights 1..7: many candidate radii
        n = 10 + 2 * i
        out.append(_with_room(random_connected(f"weighted-{i}", 300 + i, n, 1.0, (3, 6),
                                               max(2, n // 5), weights=(1, 7))))
    for i in range(3):
        n = 10 + 3 * i
        out.append(random_connected(f"soft-{i}", 400 + i, n, 1.1, (2, 5), max(2, n // 3), "soft"))
    out.append(fig1())
    # the three largest capacities sum to at most 12 < 14 vertices:
    # infeasible at every radius, so the sweep must try all of them
    out.append(random_connected("weighted-short", 500, 14, 1.0, (1, 4), 3, weights=(1, 7)))
    return out


def _exact():
    out = []
    for i in range(7):  # as acceptance criterion 4
        n = 6 + 2 * i
        k = 2 if n <= 10 else (3 if n <= 14 else 4)
        out.append(random_connected(f"unit-{i}", 600 + i, n, 0.9, (6, 8), k))
    for i in range(5):  # as acceptance criterion 5
        n = 6 + 2 * i
        out.append(random_connected(f"soft-{i}", 700 + i, n, 0.8, (4, 6), max(2, (n + 3) // 4),
                                    "soft"))
    for i in range(3):
        n = 14 + 2 * i
        out.append(_with_room(random_connected(f"weighted-{i}", 800 + i, n, 1.0, (4, 7), 3,
                                               weights=(1, 7))))
    return out


# workload -> (capkc subcommand, instance builder).  The hub instances
# are the gap construction shrunk until one solve takes about a second:
# with capacity everywhere the LP tableau dominates, with capacity only
# on the hubs the metric closure and threshold graphs do.
WORKLOADS = {
    "hub-dense": ("solve", lambda: [hub_chain(6)]),
    "hub-sparse": ("solve", lambda: [hub_chain(12, nonuniform=True)]),
    "mixed": ("solve", _mixed),
    "exact": ("oracle", _exact),
}


def workload_inputs(workload, seed):
    """(command, [Instance]) for one workload, in the seed's call order."""
    command, build = WORKLOADS[workload]
    insts = build()
    random.Random(f"{workload}:{seed}").shuffle(insts)
    return command, insts
