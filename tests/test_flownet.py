import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capkc.errors import PipelineError
from capkc.flownet import MaxFlowNetwork, bipartite_flow

from helpers import Refused, assert_outcome


def reference_max_flow(n, edges, s, t):
    """Plain BFS augmenting-path max flow, kept independent of the real code."""
    cap = {}
    adj = [[] for _ in range(n)]
    for u, v, c in edges:
        cap[(u, v)] = cap.get((u, v), Fraction(0)) + Fraction(c)
        cap.setdefault((v, u), Fraction(0))
        adj[u].append(v)
        adj[v].append(u)
    total = Fraction(0)
    while True:
        prev = {s: None}
        q = deque([s])
        while q and t not in prev:
            u = q.popleft()
            for v in adj[u]:
                if v not in prev and cap[(u, v)] > 0:
                    prev[v] = u
                    q.append(v)
        if t not in prev:
            return total
        path = []
        v = t
        while prev[v] is not None:
            path.append((prev[v], v))
            v = prev[v]
        bottleneck = min(cap[e] for e in path)
        for e in path:
            cap[e] -= bottleneck
            cap[(e[1], e[0])] += bottleneck
        total += bottleneck


class TestMaxFlow:
    def test_diamond(self):
        net = MaxFlowNetwork(4)
        net.add_edge(0, 1, Fraction(2))
        net.add_edge(0, 2, Fraction(1))
        net.add_edge(1, 2, Fraction(1))
        net.add_edge(1, 3, Fraction(1))
        net.add_edge(2, 3, Fraction(2))
        assert net.max_flow(0, 3) == 3

    def test_rational_bottleneck(self):
        net = MaxFlowNetwork(3)
        net.add_edge(0, 1, Fraction(1, 2))
        net.add_edge(1, 2, Fraction(1, 3))
        assert net.max_flow(0, 2) == Fraction(1, 3)

    def test_disconnected_sink(self):
        net = MaxFlowNetwork(3)
        net.add_edge(0, 1, Fraction(5))
        assert net.max_flow(0, 2) == 0

    def test_flow_on_reports_per_arc(self):
        net = MaxFlowNetwork(3)
        a = net.add_edge(0, 1, Fraction(3))
        b = net.add_edge(1, 2, Fraction(2))
        net.max_flow(0, 2)
        assert net.flow_on(a) == 2
        assert net.flow_on(b) == 2

    def test_source_side_cut_saturated(self):
        net = MaxFlowNetwork(4)
        net.add_edge(0, 1, Fraction(2))
        net.add_edge(0, 2, Fraction(1))
        net.add_edge(1, 2, Fraction(1))
        net.add_edge(1, 3, Fraction(1))
        net.add_edge(2, 3, Fraction(2))
        net.max_flow(0, 3)
        assert net.source_side_cut(0) == {0}

    def test_matches_reference_on_random_networks(self):
        rng = random.Random(13)
        for _ in range(120):
            n = rng.randint(2, 9)
            edges = []
            for _ in range(rng.randint(1, 3 * n)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    edges.append((u, v, Fraction(rng.randint(1, 12), rng.randint(1, 4))))
            net = MaxFlowNetwork(n)
            for u, v, c in edges:
                net.add_edge(u, v, c)
            got = net.max_flow(0, n - 1)
            assert got == reference_max_flow(n, edges, 0, n - 1)

    def test_conservation_and_cut_value(self):
        rng = random.Random(29)
        for _ in range(60):
            n = rng.randint(3, 8)
            edges = []
            for _ in range(rng.randint(2, 2 * n)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    edges.append((u, v, Fraction(rng.randint(1, 9))))
            net = MaxFlowNetwork(n)
            arcs = [(u, v, net.add_edge(u, v, c), c) for u, v, c in edges]
            value = net.max_flow(0, n - 1)
            netto = [Fraction(0)] * n
            for u, v, arc, c in arcs:
                f = net.flow_on(arc)
                assert 0 <= f <= c
                netto[u] -= f
                netto[v] += f
            assert netto[0] == -value and netto[n - 1] == value
            for w in range(1, n - 1):
                assert netto[w] == 0
            # min-cut certificate: every arc out of the reachable side is full
            side = net.source_side_cut(0)
            assert 0 in side and (n - 1 not in side)
            crossing = sum(
                c for u, v, arc, c in arcs if u in side and v not in side
            )
            assert crossing == value


@st.composite
def bipartite_inputs(draw):
    """(client_count, offers, demand) with all-int or all-Fraction capacities."""
    client_count = draw(st.integers(1, 6))
    if draw(st.booleans()):
        amount = st.integers(0, 9)
    else:
        amount = st.builds(Fraction, st.integers(0, 9), st.integers(1, 4))
    clients = st.lists(st.integers(0, client_count - 1), unique=True)
    offers = draw(st.lists(st.tuples(amount, clients, amount), max_size=5))
    return client_count, offers, draw(amount)


def reference_value(client_count, offers, demand):
    """reference_max_flow over a network of its own: source 0, offers, clients, sink."""
    base = 1 + len(offers)
    sink = base + client_count
    edges = []
    for i, (supply, clients, unit) in enumerate(offers):
        edges.append((0, 1 + i, supply))
        edges += [(1 + i, base + v, unit) for v in clients]
    edges += [(base + v, sink, demand) for v in range(client_count)]
    return reference_max_flow(sink + 1, edges, 0, sink)


class TestBipartiteFlow:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(bipartite_inputs())
    def test_returns_the_flows_or_the_short_side_of_a_min_cut(self, inputs):
        client_count, offers, demand = inputs
        value, flows, short = bipartite_flow(client_count, offers, demand)
        assert value == reference_value(client_count, offers, demand)
        assert (flows is None) != (short is None)
        if flows is not None:
            assert value == demand * client_count
            served = [0] * client_count
            assert len(flows) == len(offers)
            for (supply, clients, unit), pairs in zip(offers, flows):
                # positive flows only, in the offer's client order
                assert [v for v, _ in pairs] == [v for v in clients if v in dict(pairs)]
                assert all(0 < q <= unit for _, q in pairs)
                assert sum(q for _, q in pairs) <= supply
                for v, q in pairs:
                    served[v] += q
            assert served == [demand] * client_count
        else:
            # offer i's cheaper side of the cut, plus the sink arcs of the
            # clients the source side keeps
            assert short <= set(range(client_count))
            assert value == sum(
                min(supply, unit * len(short.intersection(clients)))
                for supply, clients, unit in offers
            ) + demand * (client_count - len(short))
            assert value < demand * client_count


def plain_dinic(client_count, offers, demand):
    """bipartite_flow's result by max_flow from zero flow, and the network left.

    The same layout through add_edge; flows read with flow_on, the short
    side with source_side_cut.
    """
    base = 1 + len(offers)
    sink = base + client_count
    net = MaxFlowNetwork(sink + 1)
    arcs = []
    for i, (supply, clients, unit) in enumerate(offers):
        net.add_edge(0, 1 + i, supply)
        arcs.append([(v, net.add_edge(1 + i, base + v, unit)) for v in clients])
    for v in range(client_count):
        net.add_edge(base + v, sink, demand)
    value = net.max_flow(0, sink)
    if value != demand * client_count:
        reach = net.source_side_cut(0)
        return (value, None, {v for v in range(client_count) if base + v not in reach}), net
    flows = [[(v, net.flow_on(a)) for v, a in pairs if net.flow_on(a) > 0] for pairs in arcs]
    return (value, flows, None), net


def assert_same_as_plain_dinic(client_count, offers, demand):
    nets = []
    original = MaxFlowNetwork.max_flow

    def spy(net, s, t):
        nets.append(net)
        return original(net, s, t)

    MaxFlowNetwork.max_flow = spy
    try:
        value, flows, short = bipartite_flow(client_count, offers, demand)
    finally:
        MaxFlowNetwork.max_flow = original
    (ref_value, ref_flows, ref_short), ref_net = plain_dinic(client_count, offers, demand)
    # repr pins the types too: an int flow must not come back a Fraction
    assert repr((value, flows)) == repr((ref_value, ref_flows))
    assert short == ref_short
    # the whole residual network, reverse arcs no result reads included
    assert repr(nets[0].cap) == repr(ref_net.cap)


class TestPlainDinic:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(bipartite_inputs())
    def test_bipartite_flow_is_plain_dinic(self, inputs):
        assert_same_as_plain_dinic(*inputs)

    def test_seeded_networks(self):
        rng = random.Random(21)
        ints = [lambda: rng.choice([0, rng.randint(1, 5), rng.randint(1, 30)])]
        fractions = [lambda: Fraction(rng.randint(0, 12), rng.randint(1, 6))]
        for trial in range(900):
            client_count = rng.randint(1, 12)
            # int, Fraction, or both mixed: a tie must keep the type of
            # the arc max_flow would take it from
            kinds = [ints, fractions, ints + fractions][trial % 3]

            def amount():
                return rng.choice(kinds)()

            offers = [
                (amount(), rng.sample(range(client_count), rng.randint(0, client_count)), amount())
                for _ in range(rng.randint(0, 8))
            ]
            assert_same_as_plain_dinic(client_count, offers, amount())

    @pytest.mark.parametrize("inputs, bfs, result", [
        # the greedy pass serves everyone: one BFS finds the sink cut off
        ((3, [(3, [0, 1, 2], 1)], 1), 1, (3, [[(0, 1), (1, 1), (2, 1)]], None)),
        # the greedy pass is maximum but short: the BFS that ends max_flow,
        # then source_side_cut's
        ((2, [(1, [0, 1], 1)], 1), 2, (1, None, {0, 1})),
    ])
    def test_first_phase_runs_no_bfs(self, monkeypatch, inputs, bfs, result):
        calls = []
        original = MaxFlowNetwork._levels

        def spy(net, s):
            calls.append(s)
            return original(net, s)

        monkeypatch.setattr(MaxFlowNetwork, "_levels", spy)
        assert bipartite_flow(*inputs) == result
        assert len(calls) == bfs


def expanded(client_count, offers, weights):
    """The network with one client per unit of weight: (count, offers, members).

    members[v] lists the clients that weighted client v stands for.
    """
    members, count = [], 0
    for w in weights:
        members.append(list(range(count, count + w)))
        count += w
    offers = [
        (supply, [u for v in clients for u in members[v]], unit)
        for supply, clients, unit in offers
    ]
    return count, offers, members


def assert_weights_are_copies(client_count, offers, demand, weights):
    value, flows, short = bipartite_flow(client_count, offers, demand, weights)
    count, copies, members = expanded(client_count, offers, weights)
    ref_value, ref_flows, ref_short = bipartite_flow(count, copies, demand)
    assert value == ref_value
    assert (flows is None) == (ref_flows is None)
    if short is None:
        assert value == demand * sum(weights)
        served = [0] * client_count
        for (_, clients, unit), pairs in zip(offers, flows):
            for v, q in pairs:
                assert 0 < q <= unit * weights[v]
                served[v] += q
        assert served == [demand * w for w in weights]
    else:
        assert {u for v in short for u in members[v]} == ref_short


@st.composite
def weighted_inputs(draw):
    client_count, offers, demand = draw(bipartite_inputs())
    weights = draw(st.lists(st.integers(1, 4), min_size=client_count, max_size=client_count))
    return client_count, offers, demand, weights


class TestWeightedClients:
    """A client of weight w gives the flow and the cut of w identical clients."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(weighted_inputs())
    def test_same_as_identical_copies(self, inputs):
        assert_weights_are_copies(*inputs)

    def test_seeded_networks(self):
        rng = random.Random(25)
        kinds = [
            lambda: rng.choice([0, rng.randint(1, 5), rng.randint(1, 30)]),
            lambda: Fraction(rng.randint(0, 12), rng.randint(1, 6)),
        ]
        short = 0
        for trial in range(600):
            client_count = rng.randint(1, 10)
            kind = kinds[trial % 2]
            offers = [
                (kind(), rng.sample(range(client_count), rng.randint(0, client_count)), kind())
                for _ in range(rng.randint(0, 6))
            ]
            weights = [rng.choice([1, 1, 2, rng.randint(3, 9)]) for _ in range(client_count)]
            demand = kind()
            assert_weights_are_copies(client_count, offers, demand, weights)
            short += bipartite_flow(client_count, offers, demand, weights)[2] is not None
        # both outcomes are exercised
        assert 100 <= short <= 500

    @pytest.mark.parametrize("inputs", [
        (3, [(3, [0, 1, 2], 1)], 1),
        (2, [(1, [0, 1], 1)], 1),
        (3, [(Fraction(5, 2), [2, 0], Fraction(3, 2)), (0, [1], 4)], Fraction(1, 2)),
    ])
    def test_unit_weights_change_nothing(self, inputs):
        client_count = inputs[0]
        weighted = bipartite_flow(*inputs, [1] * client_count)
        assert repr(weighted) == repr(bipartite_flow(*inputs))


class TestNegativeCapacity:
    @pytest.mark.parametrize("inputs", [
        (2, [(1, [0, 1], 1), (-1, [0], 1)], 1),
        (2, [(1, [0, 1], 1), (1, [1], -1)], 1),
        (2, [(2, [0, 1], 1)], -1),
    ], ids=["supply", "unit", "demand"])
    def test_is_refused_before_any_flow_moves(self, monkeypatch, inputs):
        nets = []
        original = MaxFlowNetwork.add_edge

        def spy(net, u, v, capacity):
            nets.append(net)
            return original(net, u, v, capacity)

        monkeypatch.setattr(MaxFlowNetwork, "add_edge", spy)
        with pytest.raises(PipelineError, match="negative capacity"):
            bipartite_flow(*inputs)
        # every reverse arc laid out so far is empty: nothing crossed
        assert nets and all(c == 0 for c in nets[-1].cap[1::2])


class TestInputChecks:
    @pytest.mark.parametrize(
        "call, expected",
        [
            (
                lambda: MaxFlowNetwork(2).max_flow(0, 0),
                Refused(PipelineError, "source equals sink"),
            ),
        ],
        ids=["source-is-sink"],
    )
    def test_check(self, call, expected):
        assert_outcome(call, expected)
