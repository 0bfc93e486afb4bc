import heapq
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capkc import graph_core
from capkc.errors import InputError
from capkc.exact_oracle import feasible_at
from capkc.instances import gen_fig1, gen_gap_construction, gen_x3c
from capkc.x_rounding import validate_solution
from capkc.graph_core import (
    HARD,
    Graph,
    INF,
    MAX_VERTICES,
    WeightedMetricInstance,
    anchor_tree,
    bfs,
    candidate_radii,
    connected_components,
    format_instance,
    hamiltonian_path_in_cube,
    induced_subgraph,
    parse_instance_text,
    threshold_graph,
)

from helpers import (
    METRIC_SETTINGS,
    Refused,
    assert_outcome,
    dense_radii,
    dense_threshold_graph,
    exact_metric,
    pq_weights,
    radii_and_midpoints,
    rand_connected_graph,
    weighted_graphs,
    with_comments,
)


def path_metric():
    return WeightedMetricInstance.from_weighted_edges(
        3, [(0, 1, 1), (1, 2, 1)], [1, 1, 1], 1, "hard"
    )


class TestThreshold:
    def test_radius_one_gives_path(self):
        g = threshold_graph(path_metric(), 1)
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_radius_two_gives_triangle(self):
        g = threshold_graph(path_metric(), 2)
        assert g.edges == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_radius_zero_gives_edgeless(self):
        assert threshold_graph(path_metric(), 0).edges == frozenset()

    def test_monotone_in_radius(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(2, 9)
            edges = []
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.6:
                        edges.append((u, v, Fraction(rng.randint(1, 6), rng.randint(1, 3))))
            inst = WeightedMetricInstance.from_weighted_edges(n, edges, [1] * n, 1, "hard")
            radii = candidate_radii(inst)
            for r1, r2 in zip(radii, radii[1:]):
                assert threshold_graph(inst, r1).edges <= threshold_graph(inst, r2).edges


class TestCandidateRadii:
    def test_path_metric(self):
        assert candidate_radii(path_metric()) == [0, 1, 2]

    def test_single_vertex(self):
        inst = WeightedMetricInstance.from_weighted_edges(1, [], [1], 1, "hard")
        assert candidate_radii(inst) == [0]

    def test_deduplicates_ties(self):
        inst = WeightedMetricInstance.from_distance_matrix(
            [[0, 1, 1], [1, 0, 2], [1, 2, 0]], [1, 1, 1], 1, "hard"
        )
        assert candidate_radii(inst) == [0, 1, 2]

    def test_zero_distance_pair_included(self):
        inst = WeightedMetricInstance.from_distance_matrix(
            [[0, 0], [0, 0]], [1, 1], 1, "hard"
        )
        assert candidate_radii(inst) == [0]


class TestComponents:
    def test_triangle_single_class(self):
        assert connected_components(Graph(3, [(0, 1), (1, 2), (0, 2)])) == [[0, 1, 2]]

    def test_two_disjoint_edges(self):
        assert connected_components(Graph(4, [(0, 1), (2, 3)])) == [[0, 1], [2, 3]]

    def test_edgeless(self):
        assert connected_components(Graph(3, [])) == [[0], [1], [2]]


class TestInducedSubgraph:
    def test_relabels_ascending(self):
        g = Graph(5, [(0, 2), (2, 4), (1, 3)])
        sub, ids = induced_subgraph(g, [0, 2, 4])
        assert ids == [0, 2, 4]
        assert sub.vertex_count == 3
        assert sub.edges == frozenset({(0, 1), (1, 2)})


def check_ham_path(g, seq):
    assert sorted(seq) == list(range(g.vertex_count))
    hops = g.hop_distances()
    for u, v in zip(seq, seq[1:]):
        assert hops[u][v] <= 3


def cube_path(g):
    return hamiltonian_path_in_cube(*bfs(g.adjacency, 0))


class TestHamiltonianPath:
    def test_star(self):
        g = Graph(5, [(0, i) for i in range(1, 5)])
        seq = cube_path(g)
        assert seq[0] == 0
        check_ham_path(g, seq)

    def test_single_edge(self):
        assert cube_path(Graph(2, [(0, 1)])) == [0, 1]

    def test_single_vertex(self):
        assert cube_path(Graph(1, [])) == [0]

    def test_long_path(self):
        g = Graph(7, [(i, i + 1) for i in range(6)])
        check_ham_path(g, cube_path(g))

    def test_deep_broom(self):
        # depth-3 tree with a second branch: naive concatenation would jump 4
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 4)])
        check_ham_path(g, cube_path(g))

    def test_covers_only_the_tree(self):
        # the BFS from 0 never reaches 2 and 3, so the path leaves them out
        assert cube_path(Graph(4, [(0, 1), (2, 3)])) == [0, 1]

    def test_random_connected(self):
        rng = random.Random(11)
        for _ in range(60):
            g = rand_connected_graph(rng, rng.randint(1, 40))
            check_ham_path(g, cube_path(g))


class TestAnchorTree:
    def test_matches_the_relabelled_reach_graph(self):
        # the tree over vertex ids equals a BFS of the graph on 0..a-1 that
        # joins anchors at most `reach` hops apart, mapped back to the ids
        rng = random.Random(17)
        for _ in range(80):
            g = rand_connected_graph(rng, rng.randint(1, 30), extra=rng.randint(0, 3))
            hops = g.hop_distances()
            anchors = sorted(rng.sample(range(g.vertex_count), rng.randint(1, g.vertex_count)))
            reach = rng.randint(1, 7)
            order, parent = anchor_tree(hops, anchors, reach)
            a = len(anchors)
            relabelled = Graph(a, [
                (i, j) for i in range(a) for j in range(i + 1, a)
                if hops[anchors[i]][anchors[j]] <= reach
            ])
            ref_order, ref_parent = bfs(relabelled.adjacency, 0)
            assert order == [anchors[i] for i in ref_order]
            assert parent == {
                anchors[i]: None if j is None else anchors[j] for i, j in ref_parent.items()
            }
            if relabelled.is_connected():
                assert hamiltonian_path_in_cube(order, parent) == [
                    anchors[i] for i in cube_path(relabelled)
                ]

    def test_order_misses_anchors_beyond_reach(self):
        g = Graph(7, [(i, i + 1) for i in range(6)])
        order, parent = anchor_tree(g.hop_distances(), [0, 2, 6], 2)
        assert order == [0, 2]
        assert parent == {0: None, 2: 0}
        assert hamiltonian_path_in_cube(order, parent) == [0, 2]


class TestGraphBasics:
    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            Graph(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            Graph(2, [(0, 2)])

    def test_hop_distances(self):
        g = Graph(4, [(0, 1), (1, 2)])
        h = g.hop_distances()
        assert h[0][2] == 2 and h[2][0] == 2
        assert h[0][3] == INF
        assert h[1][1] == 0


def spy_bfs(monkeypatch):
    """Record the source of every graph_core.bfs call from here on."""
    sources = []
    real = graph_core.bfs

    def spy(adjacency, source):
        sources.append(source)
        return real(adjacency, source)

    monkeypatch.setattr(graph_core, "bfs", spy)
    return sources


class TestHopRows:
    def test_a_row_is_built_once_on_its_first_read(self, monkeypatch):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        g.adjacency
        sources = spy_bfs(monkeypatch)
        hops = g.hop_distances()
        assert sources == []
        assert hops[2] == [2, 1, 0, INF, INF]
        assert sources == [2]
        assert hops[2][0] == 2 and hops[4][3] == 1 and hops[2][1] == 1
        assert sources == [2, 4]
        assert g.hop_distances() is hops

    @pytest.mark.parametrize("u", [-1, -5, 5, 6])
    def test_an_index_outside_the_graph_raises(self, monkeypatch, u):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        sources = spy_bfs(monkeypatch)
        with pytest.raises(IndexError):
            g.hop_distances()[u]
        assert sources == []

    def test_iteration_stops_after_the_last_row(self):
        g = Graph(3, [(0, 1)])
        assert list(g.hop_distances()) == [[0, 1, INF], [1, 0, INF], [INF, INF, 0]]


class TestBfs:
    def test_dict_adjacency(self):
        adj = {5: [2, 7], 2: [5, 9], 7: [5, 9], 9: [2, 7], 4: [8], 8: [4]}
        order, parent = bfs(adj, 5)
        assert order == [5, 2, 7, 9]
        # 9 is a neighbour of both 2 and 7; the lower id discovers it
        assert parent == {5: None, 2: 5, 7: 5, 9: 2}

    def test_graph_adjacency(self):
        g = Graph(7, [(0, 3), (0, 1), (1, 2), (3, 2), (2, 4), (5, 6)])
        order, parent = bfs(g.adjacency, 0)
        assert order == [0, 1, 3, 2, 4]
        assert parent == {0: None, 1: 0, 3: 0, 2: 1, 4: 2}
        assert 5 not in parent and 6 not in parent
        assert bfs(g.adjacency, 6) == ([6, 5], {6: None, 5: 6})

    def test_isolated_source(self):
        assert bfs(Graph(3, [(1, 2)]).adjacency, 0) == ([0], {0: None})


def floyd_warshall(n, edges):
    """All-pairs shortest paths over (u, v, weight) edges; INF when unreachable."""
    d = [[0 if u == v else INF for v in range(n)] for u in range(n)]
    for u, v, w in edges:
        if w < d[u][v]:
            d[u][v] = d[v][u] = w
    for h in range(n):
        for u in range(n):
            for v in range(n):
                if d[u][h] + d[h][v] < d[u][v]:
                    d[u][v] = d[u][h] + d[h][v]
    return d


def reference_hops(n, edges):
    """Floyd-Warshall hop distances; INF when unreachable."""
    return floyd_warshall(n, [(u, v, 1) for u, v in edges])


@st.composite
def plain_graphs(draw):
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return n, edges


class TestTraversalsMatchReference:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(plain_graphs())
    def test_hops_and_components_match_floyd_warshall(self, graph):
        n, edges = graph
        ref = reference_hops(n, edges)
        g = Graph(n, edges)
        hops = g.hop_distances()
        assert len(hops) == n
        assert [hops[u] for u in range(n)] == ref
        classes = sorted({tuple(v for v in range(n) if ref[u][v] != INF) for u in range(n)})
        assert connected_components(g) == [list(c) for c in classes]
        assert g.is_connected() == (len(classes) <= 1)


class TestMetric:
    def test_closure_uses_shortest_paths(self):
        inst = WeightedMetricInstance.from_weighted_edges(
            3, [(0, 1, Fraction(1, 2)), (1, 2, Fraction(1, 2)), (0, 2, 7)], [1, 1, 1], 1, "hard"
        )
        assert exact_metric(inst)[0][2] == 1

    def test_string_weight_is_read_as_its_fraction(self):
        # a weight that is neither int nor Fraction goes through Fraction(w)
        def build(w):
            return WeightedMetricInstance.from_weighted_edges(
                3, [(0, 1, w), (1, 2, 1)], [1, 1, 1], 1, "hard"
            )

        got, want = build("3/2"), build(Fraction(3, 2))
        assert (got.scale, got.scaled) == (want.scale, want.scaled)
        assert want.scaled == [[0, 3, 5], [3, 0, 2], [5, 2, 0]]

    def test_disconnected_pairs_are_infinite(self):
        inst = WeightedMetricInstance.from_weighted_edges(
            3, [(0, 1, 1)], [1, 1, 1], 1, "hard"
        )
        assert exact_metric(inst)[0][2] == INF
        assert candidate_radii(inst) == [0, 1]

    def test_matrix_validation(self):
        with pytest.raises(InputError):
            WeightedMetricInstance.from_distance_matrix(
                [[0, 1], [2, 0]], [1, 1], 1, "hard"
            )
        with pytest.raises(InputError):
            WeightedMetricInstance.from_distance_matrix(
                [[0, 1, 5], [1, 0, 1], [5, 1, 0]], [1, 1, 1], 1, "hard"
            )

    def test_matrix_with_an_infinite_pair_that_a_path_joins_is_refused(self):
        # d(0,2) = INF, yet 0 - 1 - 2 has length 2: the closure of the
        # finite pairs is not this matrix, and a written file would re-read
        # with d(0,2) = 2
        with pytest.raises(InputError, match=r"not a metric at \(0,2\)"):
            WeightedMetricInstance.from_distance_matrix(
                [[0, 1, INF], [1, 0, 1], [INF, 1, 0]], [1, 1, 1], 1, "hard"
            )


GOOD = """capkc 1 3 2 1 hard
v 0 2
v 1 0
v 2 1
e 0 1 1
e 1 2 3/2
"""


class TestInstanceIO:
    def test_round_trip(self):
        inst = parse_instance_text(GOOD)
        assert inst.vertex_count == 3
        assert inst.capacities == [2, 0, 1]
        assert inst.k == 1
        assert inst.mode == "hard"
        assert exact_metric(inst)[0][2] == Fraction(5, 2)
        assert format_instance(inst) == GOOD

    def test_comments_and_blanks_skipped(self):
        assert parse_instance_text("# c\n\n" + GOOD).vertex_count == 3

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda t: t.replace("capkc 1", "capkc 2"), "version"),
            (lambda t: t.replace("e 0 1 1\n", "e 0 0 1\n"), "self-loop"),
            (lambda t: t.replace("e 1 2 3/2", "e 0 1 2"), "duplicate"),
            (lambda t: t.replace("v 2 1", "v 3 1"), "out of range"),
            (lambda t: t.replace("v 2 1", "v 0 1"), "duplicate"),
            (lambda t: t.replace("3 2 1 hard", "3 1 1 hard"), "expected"),
            (lambda t: t.replace("hard", "medium"), "mode"),
            (lambda t: t.replace("e 1 2 3/2", "e 1 2 -1"), ">= 0"),
            (lambda t: t.replace("v 1 0", "v 1 -2"), ">= 0"),
        ],
    )
    def test_parse_rejections(self, mutate, needle):
        with pytest.raises(InputError) as err:
            parse_instance_text(mutate(GOOD))
        assert needle in str(err.value)

    def test_error_carries_line_number(self):
        with pytest.raises(InputError) as err:
            parse_instance_text(GOOD.replace("e 0 1 1", "e 0 1 junk"))
        assert "line 5" in str(err.value)


class TestWeightTokens:
    """A weight of ASCII digits is read as an int; no Fraction is built for it."""

    @staticmethod
    def weight(token):
        inst = parse_instance_text(GOOD.replace("e 1 2 3/2", f"e 1 2 {token}"))
        return {(u, v): w for u, v, w in inst.edges}[(1, 2)]

    @pytest.mark.parametrize(
        "token, value",
        [("3", 3), ("007", 7), ("0", 0), ("1/2", Fraction(1, 2)), ("4/2", 2), ("+3", 3),
         ("+0/5", 0), ("-0/3", 0), ("6/4", Fraction(3, 2))],
    )
    def test_an_integral_weight_is_an_int(self, token, value):
        w = self.weight(token)
        assert w == value
        assert type(w) is (int if value.denominator == 1 else Fraction)

    @pytest.mark.parametrize(
        "token, message",
        [(t, f"bad weight {t!r}") for t in ["1.0", "1e3", "1_0", "\u0663", "\u00b2", "1/0"]]
        + [("-1", "edge weight must be >= 0")],
    )
    def test_other_tokens_keep_their_messages(self, token, message):
        with pytest.raises(InputError) as err:
            self.weight(token)
        assert str(err.value) == f"line 6: {message}"

    def test_parsing_the_nonuniform_gap_instance_builds_no_fraction(self, monkeypatch):
        text = format_instance(gen_gap_construction(24, nonuniform=True)[0])
        made = []
        real = Fraction.__new__

        def spy(cls, *args, **kwargs):
            made.append(args)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", spy)
        inst = parse_instance_text(text)
        monkeypatch.undo()
        assert made == []
        assert inst.vertex_count == 523 and len(inst.edges) == 990
        assert {type(w) for *_, w in inst.edges} == {int}


# ---------------------------------------------------------------------------
# the integer metric against a plain-Fraction Dijkstra


def reference_metric(n, edges):
    """Shortest-path closure computed on Fractions alone; INF when unreachable."""
    adj = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, Fraction(w)))
        adj[v].append((u, Fraction(w)))
    rows = []
    for s in range(n):
        row = [INF] * n
        row[s] = Fraction(0)
        heap = [(Fraction(0), s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > row[u]:
                continue
            for v, w in adj[u]:
                if row[v] == INF or d + w < row[v]:
                    row[v] = d + w
                    heapq.heappush(heap, (d + w, v))
        rows.append(row)
    return rows


def reference_edges(ref, r):
    n = len(ref)
    return {(u, v) for u in range(n) for v in range(u + 1, n) if ref[u][v] != INF and ref[u][v] <= r}


class TestIntegerMetric:
    @METRIC_SETTINGS
    @given(weighted_graphs())
    def test_closure_radii_and_thresholds_match_reference(self, graph):
        n, edges = graph
        ref = reference_metric(n, edges)
        inst = WeightedMetricInstance.from_weighted_edges(n, edges, [1] * n, 1, "hard")
        assert exact_metric(inst) == ref
        radii = sorted({ref[u][v] for u in range(n) for v in range(u, n)} - {INF})
        assert candidate_radii(inst) == radii
        assert all(type(r) is Fraction for r in candidate_radii(inst))
        for r in radii_and_midpoints(radii):
            assert threshold_graph(inst, r).edges == reference_edges(ref, r), r

    @METRIC_SETTINGS
    @given(weighted_graphs())
    def test_distance_matrix_gives_the_same_radii_and_graphs(self, graph):
        n, edges = graph
        ref = reference_metric(n, edges)
        inst = WeightedMetricInstance.from_weighted_edges(n, edges, [1] * n, 1, "hard")
        again = WeightedMetricInstance.from_distance_matrix(ref, [1] * n, 1, "hard")
        assert exact_metric(again) == ref
        assert candidate_radii(again) == candidate_radii(inst)
        for r in radii_and_midpoints(candidate_radii(inst)):
            assert threshold_graph(again, r) == threshold_graph(inst, r)

    @METRIC_SETTINGS
    @given(weighted_graphs(connected=True), st.data())
    def test_feasible_at_includes_pairs_at_exactly_the_radius(self, graph, data):
        # one center c with room for everyone and k = 1: feasible at r iff
        # every vertex lies within r of c, so the eccentricity of c is the
        # exact threshold, whether or not it is an integer
        n, edges = graph
        ref = reference_metric(n, edges)
        c = data.draw(st.integers(0, n - 1))
        caps = [0] * n
        caps[c] = n
        inst = WeightedMetricInstance.from_weighted_edges(n, edges, caps, 1, "hard")
        ecc = max(ref[c])
        sol = feasible_at(inst, ecc)
        assert sol is not None and sol.centers == {c: 1}
        assert sol.radius == ecc
        just_below = ecc - Fraction(1, 7 * inst.scale)
        for r in radii_and_midpoints(candidate_radii(inst)) + [just_below]:
            if r >= 0:
                assert (feasible_at(inst, r) is not None) == (r >= ecc), r

    def test_fractional_distance_is_its_own_threshold(self):
        inst = WeightedMetricInstance.from_weighted_edges(
            3, [(0, 1, Fraction(5, 3)), (1, 2, Fraction(1, 2))], [3, 0, 0], 1, "hard"
        )
        assert inst.scale == 6
        assert inst.scaled[0] == [0, 10, 13]
        assert exact_metric(inst)[0] == [0, Fraction(5, 3), Fraction(13, 6)]
        assert candidate_radii(inst) == [0, Fraction(1, 2), Fraction(5, 3), Fraction(13, 6)]
        assert threshold_graph(inst, Fraction(5, 3)).edges == frozenset({(0, 1), (1, 2)})
        assert feasible_at(inst, Fraction(13, 6)).radius == Fraction(13, 6)
        assert feasible_at(inst, Fraction(13, 6) - Fraction(1, 100)) is None


@st.composite
def twin_graphs(draw):
    """(n, edges): a weighted_graphs draw with clones and isolated vertices added.

    A clone copies every edge of its original, weights included; some
    clones are joined to their original, some clone a clone, and labels
    and edge order are shuffled.
    """
    n, edges = draw(weighted_graphs())
    weights = {w for *_, w in edges}
    for _ in range(draw(st.integers(0, 5))):
        orig, clone = draw(st.integers(0, n - 1)), n
        n += 1
        edges += [(clone, v if u == orig else u, w) for u, v, w in edges if orig in (u, v)]
        if draw(st.booleans()):
            # keep uniform weights uniform, so both searches meet clones
            join = next(iter(weights)) if len(weights) == 1 else draw(pq_weights)
            edges.append((orig, clone, join))
    n += draw(st.integers(0, 2))
    label = draw(st.permutations(range(n)))
    # shuffled, so twins' edges do not come in the same order
    return n, [(label[u], label[v], w) for u, v, w in draw(st.permutations(edges))]


def spy_searches(monkeypatch):
    """Record (source, node count) of every closure or hop-row search from here on."""
    searches = []
    for name in ("_bfs_row", "_dijkstra_row"):
        real = getattr(graph_core, name)

        def spy(adjacency, s, *rest, real=real):
            searches.append((s, len(adjacency)))
            return real(adjacency, s, *rest)

        monkeypatch.setattr(graph_core, name, spy)
    return searches


def neighbour_lists(n, edges):
    """Each vertex's sorted (neighbour, weight) list."""
    lists = [[] for _ in range(n)]
    for u, v, w in edges:
        lists[u].append((v, w))
        lists[v].append((u, w))
    return [tuple(sorted(lst)) for lst in lists]


@st.composite
def halving_twin_graphs(draw):
    """A twin_graphs draw with clones added until its classes at least halve the vertices.

    An added clone copies a vertex's edges and is not joined to it, so it
    joins that vertex's class (a clone of an isolated vertex joins the
    isolated class): n grows, the number of classes does not.  Integral
    weights are ints in some draws, as the file reader gives them.
    """
    n, edges = draw(twin_graphs())
    while 2 * len(set(neighbour_lists(n, edges))) > n:
        orig, clone = draw(st.integers(0, n - 1)), n
        n += 1
        edges += [(clone, v if u == orig else u, w) for u, v, w in edges if orig in (u, v)]
    if draw(st.booleans()):
        edges = [(u, v, int(w) if w.denominator == 1 else w) for u, v, w in edges]
    label = draw(st.permutations(range(n)))
    return n, [(label[u], label[v], w) for u, v, w in draw(st.permutations(edges))]


def closure(n, edges, monkeypatch):
    """The instance of the edges, and the (source, node count) of each search it ran."""
    searches = spy_searches(monkeypatch)
    inst = WeightedMetricInstance.from_weighted_edges(n, edges, [1] * n, 1, "hard")
    monkeypatch.undo()
    return inst, searches


class TestTwinRows:
    """Vertices with equal neighbour lists share one search: one row per class."""

    @METRIC_SETTINGS
    @given(twin_graphs())
    def test_rows_match_floyd_warshall_with_one_search_per_class(self, graph):
        n, edges = graph
        with pytest.MonkeyPatch.context() as monkeypatch:
            inst, searches = closure(n, edges, monkeypatch)
        assert exact_metric(inst) == floyd_warshall(n, edges)
        assert len(searches) == len(set(neighbour_lists(n, edges)))

    @pytest.mark.parametrize(
        "build, searches, n",
        [
            (lambda: gen_gap_construction(24, nonuniform=True)[0], 91, 523),
            (lambda: gen_fig1()[0], 6, 12),
            (lambda: gen_x3c([tuple("abc"), tuple("def"), tuple("abd"), tuple("cef")],
                             list("abcdef")), 16, 90),
        ],
        ids=["gap-24-nonuniform", "fig1", "x3c"],
    )
    def test_one_search_per_neighbour_list_class(self, monkeypatch, build, searches, n):
        spied = spy_searches(monkeypatch)
        inst = build()
        lists = neighbour_lists(inst.vertex_count, inst.edges)
        assert inst.vertex_count == n
        assert len(spied) == searches == len(set(lists))
        # these classes halve the vertices, so each class is searched once,
        # from its own node of the quotient, which has one node per class
        assert sorted(s for s, _ in spied) == list(range(searches))
        assert {size for _, size in spied} == {searches}


class TestQuotientRows:
    """Where twin classes at least halve the vertices, each class searches the quotient,
    and the metric keeps one row per class."""

    @METRIC_SETTINGS
    @given(halving_twin_graphs())
    def test_rows_match_floyd_warshall_with_one_quotient_search_per_class(self, graph):
        n, edges = graph
        with pytest.MonkeyPatch.context() as monkeypatch:
            inst, searches = closure(n, edges, monkeypatch)
        classes = len(set(neighbour_lists(n, edges)))
        assert 2 * classes <= n
        assert exact_metric(inst) == floyd_warshall(n, edges)
        assert sorted(s for s, _ in searches) == list(range(classes))
        assert {size for _, size in searches} == {classes}

    @METRIC_SETTINGS
    @given(halving_twin_graphs())
    def test_class_scans_match_the_scan_of_every_vertex_pair(self, graph):
        n, edges = graph
        inst = WeightedMetricInstance.from_weighted_edges(n, edges, [1] * n, 1, "hard")
        members, rows = inst.classes
        assert sorted(v for group in members for v in group) == list(range(n))
        assert len(rows) == len(members) == len(set(neighbour_lists(n, edges)))
        radii = candidate_radii(inst)
        assert radii == dense_radii(inst)
        for r in radii_and_midpoints(radii):
            assert threshold_graph(inst, r) == dense_threshold_graph(inst, r), r
        assert exact_metric(inst) == floyd_warshall(n, edges)

    def test_vertex_rows_are_built_on_first_read(self, monkeypatch):
        # classes {0, 1}, {2, 3} of K_{2,2} plus the isolated {4, 5}
        edges = [(0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1)]
        inst = WeightedMetricInstance.from_weighted_edges(6, edges, [1] * 6, 1, "hard")
        built = []
        real = graph_core._class_row

        def spy(rows, label, u):
            built.append(u)
            return real(rows, label, u)

        monkeypatch.setattr(graph_core, "_class_row", spy)
        assert candidate_radii(inst) == [0, 1, 2]
        assert threshold_graph(inst, 1).edges == {(0, 2), (0, 3), (1, 2), (1, 3)}
        assert built == []
        assert inst.scaled[1] == [2, 0, 1, 1, INF, INF]
        assert inst.scaled[1] is inst.scaled[1] and built == [1]
        assert inst.reach((2, 2, 2, 2, 4, 5)) == 2 and built == [1, 2, 4, 5]
        assert len(inst.scaled) == 6
        for u in (-1, 6):
            with pytest.raises(IndexError):
                inst.scaled[u]
        assert built == [1, 2, 4, 5]

    @pytest.mark.parametrize("weight", [1, Fraction(1, 2), 0], ids=["unit", "p/q", "zero"])
    @pytest.mark.parametrize(
        "isolated, quotient", [(0, True), (1, False), (2, True), (3, True)]
    )
    def test_the_quotient_needs_classes_that_halve_the_vertices(
        self, monkeypatch, weight, isolated, quotient
    ):
        # K_{2,2} is two classes of two; the isolated vertices are one more class
        n = 4 + isolated
        edges = [(0, 2, weight), (0, 3, weight), (1, 2, weight), (1, 3, weight)]
        inst, searches = closure(n, edges, monkeypatch)
        classes = 2 + (isolated > 0)
        assert exact_metric(inst) == floyd_warshall(n, edges)
        assert len(searches) == classes
        assert {size for _, size in searches} == {classes if quotient else n}

    def test_members_of_a_class_meet_over_its_lightest_edge(self, monkeypatch):
        # classes {0}, {1}, {2, 3}, {4, 5, 8, 9} (isolated), {6, 7}
        edges = [(0, 2, Fraction(1, 2)), (0, 3, Fraction(1, 2)), (1, 2, 3), (1, 3, 3),
                 (1, 6, 0), (1, 7, 0)]
        inst, searches = closure(10, edges, monkeypatch)
        d = exact_metric(inst)
        assert {size for _, size in searches} == {5}
        assert d == floyd_warshall(10, edges)
        assert (d[2][3], d[6][7], d[4][5], d[8][9], d[4][8]) == (1, 0, INF, INF, INF)
        assert (d[0][1], d[0][6], d[2][6], d[3][7]) == (Fraction(7, 2), Fraction(7, 2), 3, 3)
        assert all(d[v][v] == 0 for v in range(10))


class TestVertexLimit:
    def test_limit_admits_the_largest_built_instance(self):
        assert MAX_VERTICES >= 523  # gen gap --k 24

    def test_constructors_refuse_beyond_the_limit(self):
        n = MAX_VERTICES + 1
        with pytest.raises(InputError, match=f"limit of {MAX_VERTICES}"):
            WeightedMetricInstance.from_weighted_edges(n, [], [1] * n, 1, "hard")
        with pytest.raises(InputError, match=f"limit of {MAX_VERTICES}"):
            WeightedMetricInstance.from_distance_matrix([[0]] * n, [1] * n, 1, "hard")

    def test_constructors_refuse_an_empty_instance(self):
        # as the file format does: every instance has the radius 0
        with pytest.raises(InputError, match="n must be >= 1"):
            WeightedMetricInstance.from_weighted_edges(0, [], [], 1, "soft")
        with pytest.raises(InputError, match="n must be >= 1"):
            WeightedMetricInstance.from_distance_matrix([], [], 1, "soft")

    def test_a_hop_row_of_a_maximal_component_costs_one_bfs(self, monkeypatch):
        # the dense table of this path would hold 2048 x 2048 entries
        # (tens of MiB); one row, the adjacency and one BFS stay well below
        n = MAX_VERTICES
        g = Graph(n, [(v, v + 1) for v in range(n - 1)])
        sources = spy_bfs(monkeypatch)
        tracemalloc.start()
        try:
            row = g.hop_distances()[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sources == [0]
        assert row == list(range(n))
        assert peak < 2**20

    def test_limit_itself_is_accepted(self):
        inst = WeightedMetricInstance.from_weighted_edges(
            MAX_VERTICES, [], [1] * MAX_VERTICES, 1, "hard"
        )
        assert len(inst.scaled) == MAX_VERTICES


class TestReach:
    def test_reach_is_exact_and_whole_values_are_ints(self):
        inst = WeightedMetricInstance.from_weighted_edges(
            3, [(0, 1, Fraction(1, 2)), (1, 2, Fraction(3, 2))], [3, 0, 0], 1, "hard"
        )
        assert inst.scale == 2
        assert inst.reach((1, 1, 1)) == Fraction(3, 2)
        for phi, far in [((0, 0, 0), 2), ((0, 1, 2), 0)]:
            assert inst.reach(phi) == far and type(inst.reach(phi)) is int


@st.composite
def instance_texts(draw, from_matrix=False):
    """Canonical instance text over p/q weights; from_matrix lists every finite pair."""
    n, edges = draw(weighted_graphs())
    caps = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    k = draw(st.integers(1, 3))
    mode = draw(st.sampled_from(["hard", "soft"]))
    if from_matrix:
        inst = WeightedMetricInstance.from_distance_matrix(reference_metric(n, edges), caps, k, mode)
    else:
        inst = WeightedMetricInstance.from_weighted_edges(n, edges, caps, k, mode)
    return format_instance(inst), reference_metric(n, edges)


class TestInstanceRoundTrip:
    @METRIC_SETTINGS
    @given(instance_texts(), st.data())
    def test_format_of_parse_is_the_identity(self, drawn, data):
        # '#' comments at line ends are read past and not written back
        text, ref = drawn
        inst = parse_instance_text(with_comments(data, text))
        assert format_instance(inst) == text
        assert exact_metric(inst) == ref

    @METRIC_SETTINGS
    @given(instance_texts(from_matrix=True))
    def test_edges_rebuilt_from_the_scaled_table_round_trip(self, drawn):
        # a from_distance_matrix instance writes every finite pair, rebuilt
        # as Fraction(scaled, scale); parsing that closes to the same metric
        text, ref = drawn
        inst = parse_instance_text(text)
        assert format_instance(inst) == text
        assert exact_metric(inst) == ref


class TestFeasibleAtIsMonotone:
    @METRIC_SETTINGS
    @given(weighted_graphs(connected=True) | weighted_graphs(), st.data())
    def test_feasibility_only_grows_with_the_radius(self, graph, data):
        n, edges = graph
        caps = data.draw(st.lists(st.integers(1, n), min_size=n, max_size=n))
        k = data.draw(st.integers(1, min(n, 4)))
        mode = data.draw(st.sampled_from(["hard", "soft"]))
        inst = WeightedMetricInstance.from_weighted_edges(n, edges, caps, k, mode)
        radii = sorted(radii_and_midpoints(candidate_radii(inst)))
        answers = []
        for r in radii:
            sol = feasible_at(inst, r)
            answers.append(sol is not None)
            if sol is not None:
                assert sol.radius <= r
                validate_solution(
                    inst.scaled, inst.capacities, k, sol, soft=mode == "soft", scale=inst.scale
                )
        assert answers == sorted(answers), list(zip(radii, answers))


def instance(scaled=((0,),), capacities=(1,), k=1, mode=HARD):
    return WeightedMetricInstance(
        len(scaled), [list(row) for row in scaled], 1, list(capacities), k, mode, []
    )


def from_edges(edges, n=2):
    return WeightedMetricInstance.from_weighted_edges(n, edges, [1] * n, 1, HARD)


class TestInputChecks:
    @pytest.mark.parametrize(
        "call, expected",
        [
            (lambda: Graph(-1, []), Refused(InputError, "vertex_count must be nonnegative")),
            (lambda: instance(mode="both"), Refused(InputError, "mode must be 'hard' or 'soft'")),
            (lambda: instance(k=0), Refused(InputError, "k must be >= 1")),
            (
                lambda: instance(capacities=(1, 1)),
                Refused(InputError, "capacity list length mismatch"),
            ),
            (
                lambda: instance(capacities=(-1,)),
                Refused(InputError, "capacity of vertex 0 must be a nonnegative integer"),
            ),
            (lambda: from_edges([(0, 0, 1)]), Refused(InputError, "self-loop at vertex 0")),
            (lambda: from_edges([(0, 2, 1)]), Refused(InputError, r"edge \(0,2\) out of range")),
            (
                lambda: from_edges([(0, 1, -1)]),
                Refused(InputError, r"negative edge weight on \(0,1\)"),
            ),
            (
                lambda: from_edges([(0, 1, "-1/2")]),
                Refused(InputError, r"negative edge weight on \(0,1\)"),
            ),
            (
                lambda: WeightedMetricInstance.from_distance_matrix([[1]], [1], 1, HARD),
                Refused(InputError, r"d\(0,0\) must be 0"),
            ),
            (
                lambda: WeightedMetricInstance.from_distance_matrix(
                    [[0, -1], [-1, 0]], [1, 1], 1, HARD
                ),
                Refused(InputError, r"negative distance at \(0,1\)"),
            ),
            (
                lambda: threshold_graph(instance(), -1),
                Refused(InputError, "threshold radius must be >= 0"),
            ),
        ],
        ids=[
            "negative-vertex-count",
            "unknown-mode",
            "k-below-one",
            "capacity-count",
            "negative-capacity",
            "self-loop",
            "edge-out-of-range",
            "negative-weight",
            "negative-string-weight",
            "nonzero-diagonal",
            "negative-distance",
            "negative-threshold",
        ],
    )
    def test_check(self, call, expected):
        assert_outcome(call, expected)
