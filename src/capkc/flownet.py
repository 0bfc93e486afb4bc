"""Exact max-flow (Dinic) over integer capacities, and the one network capkc builds.

capkc's flows are all bipartite: offers (centers) on one side, clients on
the other.  bipartite_flow is the one builder of that network, for the
seat flow of x_rounding, the soft solver and the exact oracle, and for the
LP's separation flow.  It keeps the network to itself: a caller gets the
flows when every client is served, else the sink side of a minimum cut,
never a node or an arc id.  A client node may stand for several identical
clients (weights): the LP's cut loop separates on one node per client
class before it lays out one node per client.  Callers pass int
capacities only, so every flow value is an int; no floating point.
Nothing here rounds, so exact Fractions would work too, but only a test
passes them.
Deterministic: arcs are scanned in insertion order, so two runs on
identically built networks produce identical flows.

On the fresh bipartite network Dinic's first phase needs no BFS: it is
one greedy pass over the offers and their clients, which bipartite_flow
runs over the arc capacities before max_flow runs the remaining phases.
The residual network, and with it every flow and the cut, is the one
max_flow alone would leave.

Termination: each phase raises the residual s-t distance, so there are at
most V phases, and each augmenting path saturates an arc of the level
graph, so a phase has at most E of them.  The greedy pass is the first
phase, so the bound holds for bipartite_flow too.
"""

from __future__ import annotations

from collections import deque

from .errors import PipelineError


class MaxFlowNetwork:
    def __init__(self, node_count):
        self.node_count = node_count
        self.to = []
        self.cap = []
        self.adj = [[] for _ in range(node_count)]

    def add_edge(self, u, v, capacity):
        """Directed arc u -> v, its reverse at the next id.  Returns the arc id."""
        if capacity < 0:
            raise PipelineError(f"negative capacity on arc ({u},{v})")
        a = len(self.to)
        self.to.append(v)
        self.cap.append(capacity)
        self.adj[u].append(a)
        self.to.append(u)
        self.cap.append(0)
        self.adj[v].append(a + 1)
        return a

    def flow_on(self, arc):
        """Flow on an arc: its reverse starts at 0 and holds what crossed it."""
        return self.cap[arc ^ 1]

    def _levels(self, s):
        """BFS levels of the residual network from s; -1 where unreachable."""
        level = [-1] * self.node_count
        level[s] = 0
        q = deque([s])
        cap = self.cap
        to = self.to
        while q:
            u = q.popleft()
            lu = level[u]
            for a in self.adj[u]:
                w = to[a]
                if level[w] < 0 and cap[a] > 0:
                    level[w] = lu + 1
                    q.append(w)
        return level

    def max_flow(self, s, t):
        if s == t:
            raise PipelineError("source equals sink")
        total = 0
        cap = self.cap
        to = self.to
        adj = self.adj
        while True:
            level = self._levels(s)
            if level[t] < 0:
                return total
            it = [0] * self.node_count
            # iterative blocking flow: walk forward along the level graph,
            # retreat marks dead vertices, augment restarts from s
            path = []  # arc ids along the current partial path
            u = s
            while True:
                if u == t:
                    bottleneck = None
                    for a in path:
                        if bottleneck is None or cap[a] < bottleneck:
                            bottleneck = cap[a]
                    for a in path:
                        cap[a] -= bottleneck
                        cap[a ^ 1] += bottleneck
                    total += bottleneck
                    path = []
                    u = s
                    continue
                arcs = adj[u]
                advanced = False
                while it[u] < len(arcs):
                    a = arcs[it[u]]
                    w = to[a]
                    if cap[a] > 0 and level[w] == level[u] + 1:
                        path.append(a)
                        u = w
                        advanced = True
                        break
                    it[u] += 1
                if advanced:
                    continue
                if u == s:
                    break  # phase exhausted
                level[u] = -1
                a = path.pop()
                u = to[a ^ 1]
                it[u] += 1

    def source_side_cut(self, s):
        """Vertices reachable from s in the residual network (call after max_flow)."""
        return {v for v, lv in enumerate(self._levels(s)) if lv >= 0}


def bipartite_flow(client_count, offers, demand, weights=None):
    """One max flow over source -> offer -> client -> sink.

    offers lists (supply, clients, unit), clients a sequence: an arc
    source -> offer of capacity supply, then an arc offer -> v of capacity
    unit for each v in clients.  Every client v then has an arc v -> sink
    of capacity demand.  With weights, client v stands for weights[v] >= 1
    identical clients: its offer arcs carry unit * weights[v] and its sink
    arc demand * weights[v].  Returns (value, flows, short), exactly one of
    flows and short None.  When every client gets its demand (demand times
    the sum of the weights), flows[i] lists offer i's (client, flow) pairs
    of positive flow, in its client order.  Otherwise short is the set of
    clients on the sink side of a minimum cut: those the residual network
    does not reach from the source.  That set is the same for every
    maximum flow (the sink side of the minimal minimum cut), so a weighted
    client is short exactly when the clients it stands for are short in
    the network with one node for each of them.

    Every s-t path of the fresh network has three arcs, so Dinic's first
    level graph is the whole network.  Its blocking-flow walk takes the
    offers in order and each offer's clients in order, and pushes the least
    of what is left on the source arc, the client arc and the client's sink
    arc; a client whose sink arc is full is dead.  That walk runs here as
    one pass over net.cap, and max_flow goes on from the residual network
    it leaves, skipping the first phase's BFS and walk.
    """
    base = 1 + len(offers)
    sink = base + client_count
    net = MaxFlowNetwork(sink + 1)
    heads = []
    for i, (supply, clients, unit) in enumerate(offers):
        heads.append(net.add_edge(0, 1 + i, supply))
        for v in clients:
            net.add_edge(1 + i, base + v, unit if weights is None else unit * weights[v])
    drain = len(net.to)  # client v's sink arc is drain + 2v
    for v in range(client_count):
        net.add_edge(base + v, sink, demand if weights is None else demand * weights[v])
    cap = net.cap
    value = 0
    for h, (_, clients, _) in zip(heads, offers):
        rest = cap[h]
        a = h
        for v in clients:
            if not rest:
                break
            a += 2
            d = drain + 2 * v
            b = rest  # the first least of the three, as max_flow takes it
            if cap[a] < b:
                b = cap[a]
            if cap[d] < b:
                b = cap[d]
            if b > 0:
                rest -= b
                cap[h] -= b
                cap[h + 1] += b
                cap[a] -= b
                cap[a + 1] += b
                cap[d] -= b
                cap[d + 1] += b
                value += b
    value += net.max_flow(0, sink)
    if value != demand * (client_count if weights is None else sum(weights)):
        reach = net.source_side_cut(0)
        return value, None, {v for v in range(client_count) if base + v not in reach}
    # h + 3 is the reverse of the offer's first client arc; the next are 2 ids apart
    flows = [
        [(v, q) for v, q in zip(clients, cap[h + 3:h + 3 + 2 * len(clients):2]) if q > 0]
        for h, (_, clients, _) in zip(heads, offers)
    ]
    return value, flows, None
