import contextlib
import hashlib
import importlib.util
import io
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capkc import graph_core, lp_feasibility
from capkc.assignment import Assignment, dump_assignment, global_delta, radius_of
from capkc.caterpillar import round_y
from capkc.cli import main
from capkc.errors import InputError, PipelineError
from capkc.flownet import MaxFlowNetwork, bipartite_flow
from capkc.graph_core import INF, Graph, format_instance, threshold_graph
from capkc.instances import gen_fig1, gen_gap_construction, gen_random_connected
from capkc.lp_feasibility import (
    Phase1Tableau,
    _lp1_rows,
    build_lp1,
    format_lp_dump,
    solve_feasibility,
    verify_assignment_feasible,
)
from capkc.shifting import RoundingContext

from helpers import (
    Refused,
    _solve_dense,
    assert_outcome,
    path_graph,
    phase1_feasible,
    rand_connected_graph,
    two_hub_gadget,
    two_hub_witness,
)

F = Fraction

# sha256 of phase1_feasible's points on rational_systems(Random(29), 200),
# one line per system, recorded on the Fraction tableau
RATIONAL_DIGEST = "55ea1c3fc8bc078c135bf6ab9d321e0482625a2762f3e5bd1779b7eb0074b960"

CORPUS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"

# The LPs that capkc solve's budget search ran on the hub-dense and
# hub-sparse benchmark inputs, the nonuniform gap instance and the mixed
# benchmark inputs, in that order, as (input, radius, least vertex of the
# component, budget).  The pins below solve these models directly, so a
# change to which budgets the search probes moves TestBudgetSearch's pin
# (test_cli.py), not them.
SEARCH_LPS = (
    ("hub-chain-uniform-g6", "1", 0, 10),
    ("hub-chain-nonuniform-g12", "1", 0, 17),
    ("gap-24-nonuniform", "1", 0, 23),
    ("unit-sparse-0", "3", 0, 2),
    ("unit-sparse-1", "1", 0, 3),
    ("unit-sparse-1", "2", 0, 3),
    ("unit-sparse-2", "1", 0, 3),
    ("unit-sparse-2", "2", 0, 3),
    ("unit-sparse-3", "1", 0, 4),
    ("unit-sparse-3", "2", 0, 4),
    ("unit-dense-0", "1", 0, 4),
    ("unit-dense-1", "1", 0, 4),
    ("unit-dense-1", "2", 0, 4),
    ("unit-dense-2", "1", 0, 5),
    ("weighted-0", "7", 0, 2),
    ("weighted-1", "5", 0, 2),
    ("weighted-1", "6", 0, 2),
    ("weighted-1", "7", 0, 2),
    ("weighted-1", "8", 0, 2),
    ("weighted-2", "7", 0, 3),
    ("weighted-3", "6", 0, 3),
    ("soft-0", "1", 0, 2),
    ("soft-0", "1", 0, 3),
    ("soft-1", "1", 0, 3),
    ("soft-1", "1", 0, 4),
    ("soft-2", "1", 0, 4),
    ("fig1", "2", 0, 2),
    ("fig1", "2", 6, 2),
)

# TestTwinColumns: sha256 of the repr of every master's [columns, bounded,
# add_row calls...] over the SEARCH_LPS models whose twin classes do not
# halve the centers (all but hub-dense's and fig1's), recorded while
# those masters were built on a path of their own, one column per center
TWIN_FREE_TABLEAUS = 25
TWIN_FREE_DIGEST = "62a3e0520081598a0a81f453d2dd5d27bc476e5c107b0090a2064be4aa5c0eb2"

# TestLiveColumns: steps and sha256 of the repr of every _pivot (row,
# entering) and _complement column of the unit systems and of the
# SEARCH_LPS models but the gap one, recorded while the tableau still
# eliminated the columns of artificials that had left the basis
PIVOT_PATH_STEPS = 2468
PIVOT_PATH_DIGEST = "7b5f9142776d532045846a132736f62ac77d64348fe53a0a2e7772718ff1f7f2"


def solve(graph, caps, k, soft=False, method="cuts"):
    model = build_lp1(graph, list(caps), k, soft)
    return _solve_dense(model) if method == "dense" else solve_feasibility(model)


def rational_systems(rng, count):
    """Seeded (num_vars, rows) systems with a planted point and p/q data, q <= 6."""
    systems = []
    for _ in range(count):
        nv = rng.randint(1, 6)
        point = [F(rng.randint(0, 9), rng.randint(1, 6)) for _ in range(nv)]
        rows = []
        for _ in range(rng.randint(1, 8)):
            coefs = {
                c: F(rng.randint(-7, 7), rng.randint(1, 6))
                for c in range(nv)
                if rng.random() < 0.7
            }
            lhs = sum(coefs.get(c, 0) * point[c] for c in range(nv))
            slack = F(rng.randint(0, 5), rng.randint(1, 6))
            sense = rng.choice(["<=", ">=", "=="])
            if sense == "<=":
                rows.append((coefs, sense, lhs + slack))
            elif sense == ">=":
                rows.append((coefs, sense, lhs - slack))
            else:
                rows.append((coefs, sense, lhs))
        systems.append((nv, rows))
    return systems


def unit_systems(rng, count):
    """Seeded (num_vars, rows) systems for the unit-bounded tableau.

    Two in three plant a point in [0, 1]^m whose entries are often exactly
    0 or 1, so the bounds are tight; the rest plant one above 1 or append a
    row that no x <= 1 meets, so the bounds alone can make them infeasible.
    """
    systems = []
    for _ in range(count):
        nv = rng.randint(1, 6)
        kind = rng.randrange(3)
        top = 2 if kind == 1 else 1
        point = [rng.choice((F(0), F(1), F(rng.randint(0, 6 * top), 6))) for _ in range(nv)]
        rows = []
        for _ in range(rng.randint(1, 8)):
            coefs = {
                c: F(rng.randint(-7, 7), rng.randint(1, 3))
                for c in range(nv)
                if rng.random() < 0.7
            }
            lhs = sum(coefs.get(c, 0) * point[c] for c in range(nv))
            slack = F(rng.randint(0, 3), rng.randint(1, 3))
            sense = rng.choice(["<=", ">=", "=="])
            b = {"<=": lhs + slack, ">=": lhs - slack, "==": lhs}[sense]
            rows.append((coefs, sense, b))
        if kind == 2:
            rows.insert(rng.randint(0, len(rows)), ({rng.randrange(nv): F(2, 3)}, ">=", F(7, 9)))
        systems.append((nv, rows))
    return systems


def bounded_solve(nv, rows, batches):
    """A unit-bounded tableau fed rows in batches, solved warm after each."""
    tab = Phase1Tableau(nv, bounded=True)
    for batch in batches:
        for coefs, sense, b in rows[batch]:
            tab.add_row(coefs, sense, b)
        if not tab.solve():
            return None
    return tab.values()


def satisfies(vals, rows):
    for coefs, sense, b in rows:
        lhs = sum(coefs.get(c, 0) * vals[c] for c in range(len(vals)))
        if sense == "<=" and not lhs <= b:
            return False
        if sense == ">=" and not lhs >= b:
            return False
        if sense == "==" and lhs != b:
            return False
    return True


class TestModelShape:
    def test_pairs_and_pins(self):
        m = build_lp1(path_graph(3), [2, 0, 1], 1)
        rows, pair_col = _lp1_rows(m)
        assert list(pair_col) == [
            (0, 0), (0, 1),
            (1, 0), (1, 1), (1, 2),
            (2, 1), (2, 2),
        ]
        assert list(pair_col.values()) == list(range(3, 10))
        assert [name for _, _, _, name in rows if name.startswith("pin_")] == ["pin_1"]
        assert not m.soft

    @pytest.mark.parametrize(
        "caps,k,soft",
        [
            ([1, 1], 0, False),
            ([1, 1], 3, False),
            ([1, -1], 1, False),
            ([1], 1, False),
            ([F(1), F(1)], 1, False),
        ],
    )
    def test_rejections(self, caps, k, soft):
        with pytest.raises(InputError):
            build_lp1(path_graph(2), caps, k, soft)

    def test_soft_allows_k_above_n(self):
        m = build_lp1(path_graph(2), [5, 5], 7, soft=True)
        assert m.k == 7 and m.soft


class TestPhase1:
    def test_feasible_system(self):
        vals = phase1_feasible(
            2,
            [
                ({0: 1, 1: 1}, "==", 1),
                ({0: 1}, "<=", F(1, 2)),
            ],
        )
        assert vals is not None
        assert vals[0] + vals[1] == 1
        assert vals[0] <= F(1, 2)
        assert vals[0] >= 0 and vals[1] >= 0

    def test_infeasible_pair(self):
        vals = phase1_feasible(
            2,
            [
                ({0: 1, 1: 1}, "<=", 1),
                ({0: 1}, ">=", 2),
            ],
        )
        assert vals is None

    def test_contradictory_equalities(self):
        assert phase1_feasible(1, [({0: 1}, "==", 2), ({0: 1}, "==", 3)]) is None

    def test_negative_rhs_normalization(self):
        vals = phase1_feasible(1, [({0: -1}, "<=", -2)])
        assert vals is not None and vals[0] >= 2

    def test_zero_rows(self):
        assert phase1_feasible(1, [({}, "==", 0)]) is not None
        assert phase1_feasible(1, [({}, "==", 1)]) is None

    def test_random_systems_with_planted_point(self):
        rng = random.Random(17)
        for _ in range(60):
            nv = rng.randint(1, 5)
            point = [F(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(nv)]
            rows = []
            for _ in range(rng.randint(1, 7)):
                coefs = {
                    c: F(rng.randint(-5, 5))
                    for c in range(nv)
                    if rng.random() < 0.7
                }
                lhs = sum(coefs.get(c, 0) * point[c] for c in range(nv))
                sense = rng.choice(["<=", ">=", "=="])
                if sense == "<=":
                    rows.append((coefs, sense, lhs + rng.randint(0, 3)))
                elif sense == ">=":
                    rows.append((coefs, sense, lhs - rng.randint(0, 3)))
                else:
                    rows.append((coefs, sense, lhs))
            vals = phase1_feasible(nv, rows)
            assert vals is not None
            assert satisfies(vals, rows)

    def test_rational_systems_with_planted_point(self, monkeypatch):
        # p/q coefficients and right-hand sides go through the lcm in add_row;
        # expelling artificials pivots on negative entries, which _pivot
        # must turn positive before scaling the other rows by them
        pivot_signs = []
        pivot = Phase1Tableau._pivot

        def spy(tab, pr, entering):
            pivot_signs.append(tab.mat[pr][entering] > 0)
            return pivot(tab, pr, entering)

        monkeypatch.setattr(Phase1Tableau, "_pivot", spy)
        for nv, rows in rational_systems(random.Random(29), 200):
            vals = phase1_feasible(nv, rows)
            assert vals is not None
            assert all(v >= 0 for v in vals)
            assert satisfies(vals, rows)
            for v in vals:
                assert type(v) is F
                assert type(v.numerator) is int and type(v.denominator) is int
        assert any(pivot_signs) and not all(pivot_signs)

    def test_rational_infeasible_systems(self):
        # append 3/5 x_c <= 3/5 b and -2/3 x_c <= -2/3 (b + 1/6): x_c <= b and
        # x_c >= b + 1/6 cannot both hold, whatever the planted rows allow
        for nv, rows in rational_systems(random.Random(31), 40):
            c = nv - 1
            b = F(len(rows), 7)
            bad = rows + [
                ({c: F(3, 5)}, "<=", F(3, 5) * b),
                ({c: F(-2, 3)}, "<=", F(-2, 3) * (b + F(1, 6))),
            ]
            assert phase1_feasible(nv, bad) is None


class TestBoundedTableau:
    """bounded=True holds x <= 1 as column bounds; phase1_feasible with
    explicit x <= 1 rows is the reference."""

    @pytest.mark.parametrize("bland", [False, True])
    def test_agrees_with_explicit_bound_rows(self, monkeypatch, bland):
        seen = {"flip": 0, "upper_leave": 0, "warm_on_flipped": 0, "bland": 0}
        complement, add_row = Phase1Tableau._complement, Phase1Tableau.add_row
        entering = lp_feasibility._entering

        def spy_complement(tab, col):
            # a nonbasic column flips bounds; a basic one leaves at 1
            seen["upper_leave" if col in tab.basis else "flip"] += 1
            return complement(tab, col)

        def spy_add_row(tab, coefs, sense, b):
            seen["warm_on_flipped"] += any(coefs.get(c) for c in tab.flipped)
            return add_row(tab, coefs, sense, b)

        def spy_entering(wrow, bland_rule):
            seen["bland"] += bland_rule
            return entering(wrow, bland_rule)

        monkeypatch.setattr(Phase1Tableau, "_complement", spy_complement)
        monkeypatch.setattr(Phase1Tableau, "add_row", spy_add_row)
        monkeypatch.setattr(lp_feasibility, "_entering", spy_entering)
        if bland:
            # Bland's rule after a single degenerate pivot
            monkeypatch.setattr(lp_feasibility, "_BLAND_AFTER", 1)
        rng = random.Random(37)
        verdicts = set()
        for nv, rows in unit_systems(rng, 300):
            ref = phase1_feasible(nv, rows + [({c: 1}, "<=", 1) for c in range(nv)])
            cut = rng.randint(0, len(rows))
            vals = bounded_solve(nv, rows, [slice(0, cut), slice(cut, None)])
            verdicts.add(vals is not None)
            assert (vals is None) == (ref is None)
            if vals is not None:
                assert all(0 <= v <= 1 for v in vals)
                assert satisfies(vals, rows)
        assert verdicts == {False, True}
        if not bland:
            del seen["bland"]
        assert all(seen.values()), seen

    def test_a_row_on_a_column_at_its_bound(self):
        # x0 + x1 == 2 puts both columns at 1; the warm row x0 <= 1/2 must
        # read x0 through its complement and then push x1 past its bound
        tab = Phase1Tableau(2, bounded=True)
        tab.add_row({0: 1, 1: 1}, "==", 2)
        assert tab.solve()
        assert tab.values() == [1, 1] and tab.flipped
        tab.add_row({0: 1}, "<=", F(1, 2))
        assert not tab.solve()
        tab = Phase1Tableau(2, bounded=True)
        tab.add_row({0: 1, 1: 1}, "==", F(3, 2))
        assert tab.solve()
        tab.add_row({0: 2}, "<=", 1)
        assert tab.solve()
        assert tab.values() == [F(1, 2), 1]


class TestBudgets:
    def test_pivot_budget_names_its_counters(self, monkeypatch):
        def tableau():
            tab = Phase1Tableau(4, bounded=True)
            tab.add_row({0: 1, 1: 1, 2: 1, 3: 1}, "==", F(7, 2))
            tab.add_row({0: 1, 1: 2}, ">=", F(5, 2))
            tab.add_row({2: 3, 3: 1}, "<=", F(7, 2))
            return tab

        tab = tableau()
        assert tab.solve()
        monkeypatch.setattr(lp_feasibility, "_MAX_PIVOTS", 4)  # bound flips count too
        with pytest.raises(PipelineError) as err:
            tableau().solve()
        assert str(err.value) == (
            "phase-1 simplex exceeded the pivot budget: 2 pivots and 2 bound flips over 3 rows"
        )

    def test_round_budget_names_its_counters(self, monkeypatch):
        monkeypatch.setattr(lp_feasibility, "_MAX_ROUNDS", 2)
        inst = gen_fig1()[0]
        model = build_lp1(threshold_graph(inst, 1), list(inst.capacities), 3)
        with pytest.raises(PipelineError) as err:
            solve_feasibility(model)
        # fig1's 12 centers form 4 twin classes, so the master starts with
        # the sum row and 4 seed rows (10 with one column per center)
        assert str(err.value) == "cut loop exceeded the round budget: 2 rounds over 7 rows"


class TestSolveFeasibility:
    @pytest.mark.parametrize("method", ["cuts", "dense"])
    def test_single_center_covers_path(self, method):
        res = solve(path_graph(3), [3, 3, 3], 1, method=method)
        assert res.feasible
        assert res.assignment.sum_y() == 1

    @pytest.mark.parametrize("method", ["cuts", "dense"])
    def test_capacity_shortfall(self, method):
        assert not solve(path_graph(3), [1, 1, 1], 1, method=method).feasible

    @pytest.mark.parametrize("method", ["cuts", "dense"])
    def test_all_open(self, method):
        assert solve(path_graph(3), [1, 1, 1], 3, method=method).feasible

    @pytest.mark.parametrize("method", ["cuts", "dense"])
    def test_isolated_clients_starve(self, method):
        assert not solve(Graph(2, []), [1, 1], 1, method=method).feasible

    def test_pinned_vertex_stays_closed(self):
        res = solve(Graph(4, [(0, 1), (0, 2), (0, 3)]), [0, 2, 1, 1], 3)
        assert res.feasible
        assert res.assignment.y[0] == 0

    def test_pinned_star_center_blocks(self):
        # every leaf must self-serve with capacity 1, nobody can take the hub
        assert not solve(Graph(4, [(0, 1), (0, 2), (0, 3)]), [0, 1, 1, 1], 3).feasible

    def test_no_capacity_at_all(self):
        assert not solve(path_graph(2), [0, 0], 1).feasible

    def test_isolated_zero_capacity_client(self):
        assert not solve(Graph(2, []), [1, 0], 1).feasible

    def test_k_exceeds_positive_capacity_count(self):
        assert not solve(path_graph(3), [1, 0, 1], 3).feasible

    def test_soft_multiplicity(self):
        g = Graph(5, [(0, i) for i in range(1, 5)])
        caps = [1, 0, 0, 0, 0]
        assert solve(g, caps, 5, soft=True).feasible
        assert not solve(g, caps, 5, soft=False).feasible

    def test_two_hub_gadget_with_two_centers(self):
        g = Graph(6, two_hub_gadget())
        assert solve(g, [4] * 6, 2).feasible

    def test_paired_gadgets_fractional_point(self):
        edges = two_hub_gadget(0) + two_hub_gadget(6)
        g = Graph(12, edges)
        a = Assignment(12)
        two_hub_witness(a, 0)
        two_hub_witness(a, 6)
        assert a.sum_y() == 3
        assert verify_assignment_feasible(g, [4] * 12, 3, a, 1)
        assert solve(g, [4] * 12, 3).feasible

    @staticmethod
    def random_instances(seed=41, count=40):
        rng = random.Random(seed)
        for _ in range(count):
            n = rng.randint(2, 7)
            g = rand_connected_graph(rng, n)
            caps = [rng.randint(0, 3) for _ in range(n)]
            k = rng.randint(1, min(n, 4))
            yield g, caps, k

    def test_methods_agree_on_random_instances(self, monkeypatch):
        # in hard mode the cut loop holds y <= 1 as column bounds, the dense
        # reference as rows; some final points sit at a bound, reached by
        # complementing a column
        complements = []
        complement = Phase1Tableau._complement
        monkeypatch.setattr(
            Phase1Tableau, "_complement",
            lambda tab, col: complements.append(col) or complement(tab, col),
        )
        checked = at_bound = 0
        for g, caps, k in self.random_instances():
            r_cuts = solve(g, caps, k, method="cuts")
            r_dense = solve(g, caps, k, method="dense")
            assert r_cuts.feasible == r_dense.feasible
            if r_cuts.feasible:
                at_bound += any(q == 1 for q in r_cuts.assignment.y)
            checked += 1
        assert checked == 40
        assert at_bound >= 10 and complements

    def test_hard_solve_adds_no_bound_row(self, monkeypatch):
        rows = []
        add_row = Phase1Tableau.add_row

        def spy(tab, coefs, sense, b):
            rows.append((tab.bounded, len(coefs), sense))
            return add_row(tab, coefs, sense, b)

        monkeypatch.setattr(Phase1Tableau, "add_row", spy)
        for g, caps, k in self.random_instances():
            solve(g, caps, k)
        inst = gen_fig1()[0]
        assert solve(threshold_graph(inst, 1), inst.capacities, 3).feasible
        assert rows and all(bounded for bounded, _, _ in rows)
        assert not [row for row in rows if row[1:] == (1, "<=")]

    def test_soft_solve_never_flips_a_column(self, monkeypatch):
        complements = []
        monkeypatch.setattr(Phase1Tableau, "_complement", lambda tab, col: complements.append(col))
        feasible = 0
        for g, caps, k in self.random_instances(seed=47):
            r_cuts = solve(g, caps, k + 1, soft=True)
            assert r_cuts.feasible == solve(g, caps, k + 1, soft=True, method="dense").feasible
            feasible += r_cuts.feasible
        assert feasible and complements == []

    def test_monotone_in_k_with_positive_capacities(self):
        rng = random.Random(43)
        for _ in range(30):
            n = rng.randint(2, 8)
            g = rand_connected_graph(rng, n)
            caps = [rng.randint(1, 4) for _ in range(n)]
            k = rng.randint(1, n - 1)
            if solve(g, caps, k).feasible:
                assert solve(g, caps, k + 1).feasible


class TestPinnedOutputs:
    """Exact y and x of the cut solver.  Recorded before the tableau moved
    to integer rows, whose row scaling keeps every ratio and sign, and
    re-recorded when hard mode's y <= 1 became column bounds instead of
    rows: that changes the pivot path, so the point may move, but LP1's
    feasibility, and with it every threshold, cannot.  fig1 was re-recorded
    again when twin classes got one master column each: its 12 centers form
    4 classes, and its point is now constant on each, the hubs at 3/4.  Its
    x was re-recorded when x became the class flow split evenly: y stayed,
    and each hub pair, a client class, now gets 1/2 from each hub where it
    got 1/4 and 3/4."""

    CASES = {
        "fig1": (
            lambda: gen_fig1()[0], 3,
            "3/4 3/4 0 0 0 0 3/4 3/4 0 0 0 0",
            "8481722a40d056078759aafce715ee29b26a01c6387a285cbe3a4f7957357a5c",
        ),
        "random24": (
            lambda: gen_random_connected(24, 0.5, (1, 4), 9, 5), 9,
            "2/3 1/6 0 1 0 1 2/3 0 0 5/6 1/6 0 1 0 1/2 1 0 1/3 1/3 1/3 1 0 0 0",
            "1a2cab3933094b7a7d667a606d7b0556d00c789b74ab01183ada37d0a54dedf9",
        ),
        "random30": (
            lambda: gen_random_connected(30, 0.5, (2, 5), 9, 3), 9,
            "43/118 0 0 0 50/59 9/118 75/118 43/118 0 75/118 9/59 57/59 1 1/2 2/59"
            " 2/59 75/118 0 0 16/59 9/59 39/118 0 43/118 3/59 43/118 109/118 9/118 0 13/59",
            "96cf6510728c30609eae5e6f201a134d2154e8fee61993d6dd368c9c8847b6b1",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_cut_solver_point(self, name):
        make, k, y_text, digest = self.CASES[name]
        inst = make()
        g = threshold_graph(inst, 1)
        res = solve_feasibility(build_lp1(g, list(inst.capacities), k))
        assert res.feasible
        assert " ".join(str(q) for q in res.assignment.y) == y_text
        # the digest pins x as well: the whole assignment file, y and x lines
        text = dump_assignment(res.assignment)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_rational_phase1_points(self):
        lines = []
        for nv, rows in rational_systems(random.Random(29), 200):
            lines.append(" ".join(str(q) for q in phase1_feasible(nv, rows)))
        assert lines[:3] == ["0 0 69/20 0 0", "1 3/2 9/5 3/5", "3/2 4"]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == RATIONAL_DIGEST


def separation_offers(centers, caps, nbhd, y):
    """The cut round's offers over a point y: (L(u) * y_u, N[u], y_u) per y_u > 0."""
    return [(caps[u] * q, nbhd[u], q) for u, q in zip(centers, y) if q > 0]


@st.composite
def separation_inputs(draw):
    """(centers, caps, nbhd, y): a small graph, capacities 0..4 and p/q y."""
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph(n, edges)
    nbhd = [sorted([v] + g.neighbors(v)) for v in range(n)]
    caps = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    centers = [u for u in range(n) if caps[u] > 0] or [0]
    q = st.builds(F, st.integers(0, 9), st.integers(1, 12))
    y = draw(st.lists(q, min_size=len(centers), max_size=len(centers)))
    return centers, caps, nbhd, y


SEPARATION_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


class TestIntegerSeparation:
    @SEPARATION_SETTINGS
    @given(separation_inputs())
    def test_scaled_network_is_scale_times_the_fraction_one(self, inputs):
        # the int network over the point times scale against the same
        # builder's network over the rational point itself
        centers, caps, nbhd, y = inputs
        scale = math.lcm(*(q.denominator for q in y))
        ys = [q.numerator * (scale // q.denominator) for q in y]
        n = len(nbhd)
        total, flows, short = bipartite_flow(n, separation_offers(centers, caps, nbhd, ys), scale)
        ref_total, ref_flows, ref_short = bipartite_flow(
            n, separation_offers(centers, caps, nbhd, y), 1
        )
        assert type(total) is int and total == scale * ref_total
        assert short == ref_short
        if flows is None:
            assert ref_flows is None
            return
        assert all(type(q) is int for pairs in flows for _, q in pairs)
        assert flows == [[(v, scale * q) for v, q in pairs] for pairs in ref_flows]
        # offer i is center live[i], with flows only to clients of N[u]
        live = [u for u, q in zip(centers, y) if q > 0]
        assert len(flows) == len(live)
        for u, pairs in zip(live, flows):
            assert {v for v, _ in pairs} <= set(nbhd[u])

    def test_cut_loop_builds_only_int_capacities(self, monkeypatch):
        seen = []
        original = MaxFlowNetwork.add_edge

        def spy(net, u, v, capacity):
            seen.append((capacity, v == net.node_count - 1))
            return original(net, u, v, capacity)

        monkeypatch.setattr(MaxFlowNetwork, "add_edge", spy)
        for inst, k in [(gen_fig1()[0], 3), (gen_random_connected(30, 0.5, (2, 5), 9, 3), 9)]:
            g = threshold_graph(inst, 1)
            assert solve_feasibility(build_lp1(g, list(inst.capacities), k)).feasible
        assert seen and all(type(c) is int for c, _ in seen)
        # a sink arc holds the round's common denominator: rounds with
        # fractional points ran, over ints
        assert max(c for c, to_sink in seen if to_sink) > 1


def cloned_models(seed, count):
    """Seeded LP1 models whose clients often reach the same centers.

    A random connected graph, then clones of its vertices: a clone has the
    vertex's neighbours, and half the time the vertex too, and mostly
    capacity 0.  Hard and soft alternate.
    """
    rng = random.Random(seed)
    for t in range(count):
        n = rng.randint(2, 7)
        g = rand_connected_graph(rng, n)
        edges = set(g.edges)
        caps = [rng.randint(0, 8) for _ in range(n)]
        for v in range(n):
            for _ in range(rng.choice([1, 2, 3, 5])):
                twins = g.neighbors(v) + ([v] if rng.random() < 0.5 else [])
                edges.update((u, len(caps)) for u in twins)
                caps.append(caps[v] if rng.random() < 0.15 else 0)
        soft = t % 2 == 1
        k = rng.randint(1, 7 if soft else min(7, len(caps)))
        yield build_lp1(Graph(len(caps), edges), caps, k, soft)


def client_classes(model):
    """Each class's clients: equal sets of positive-capacity centers in N[v]."""
    g, caps = model.graph, model.capacities
    members = {}
    for v in range(g.vertex_count):
        key = frozenset(u for u in [v] + g.neighbors(v) if caps[u] > 0)
        members.setdefault(key, []).append(v)
    return list(members.values())


def expand(parts, offers):
    """Offers over classes as offers over their clients, ascending."""
    return [(s, sorted(v for p in ps for v in parts[p]), u) for s, ps, u in offers]


def client_answer(parts, n):
    """A class-level flow answered by the client network on the expanded
    offers: its short clients as classes, or each offer's flows summed per
    class."""
    part_of = {v: p for p, members in enumerate(parts) for v in members}

    def answer(count, offers, demand, weights):
        value, flows, short = bipartite_flow(n, expand(parts, offers), demand)
        if short is not None:
            return value, None, {part_of[v] for v in short}
        sums = []
        for (_, ps, _), pairs in zip(offers, flows):
            got = Counter()
            for v, q in pairs:
                got[part_of[v]] += q
            sums.append([(p, got[p]) for p in ps if got[p]])
        return value, sums, None

    return answer


def spy_flows(monkeypatch, answer=bipartite_flow):
    """Record the cut loop's flows as (client_count, offers, demand, weights, result).

    answer gives the result of each call.
    """
    calls = []

    def spy(client_count, offers, demand, weights=None):
        result = answer(client_count, offers, demand, weights)
        calls.append((client_count, offers, demand, weights, result))
        return result

    monkeypatch.setattr(lp_feasibility, "bipartite_flow", spy)
    return calls


def spy_rows(monkeypatch):
    rows = []
    add_row = Phase1Tableau.add_row

    def spy(tab, coefs, sense, b):
        rows.append((dict(coefs), sense, b))
        return add_row(tab, coefs, sense, b)

    monkeypatch.setattr(Phase1Tableau, "add_row", spy)
    return rows


class TestClientClasses:
    """Each cut round runs one flow, over the client classes weighted by
    their sizes.  Its cuts are the client network's, so every row and y
    are unchanged, and x is its flow split evenly over each class."""

    def test_class_cuts_are_the_client_cuts(self, monkeypatch):
        rows = spy_rows(monkeypatch)
        merged = class_cuts = served = 0
        for model in cloned_models(seed=25, count=400):
            g, caps = model.graph, model.capacities
            n = g.vertex_count
            parts = client_classes(model)
            centers = [u for u in range(n) if caps[u] > 0]
            hoods = [sorted([u] + g.neighbors(u)) for u in centers]
            runs = []
            for answer in (bipartite_flow, client_answer(parts, n)):
                rows.clear()
                with monkeypatch.context() as m:
                    calls = spy_flows(m, answer)
                    res = solve_feasibility(model)
                runs.append((res.assignment.y if res.feasible else None, list(rows), calls))
            (y, cut_rows, calls), (ref_y, ref_rows, _) = runs
            # the same rows in the same order, so the same pivots and y
            assert (y, cut_rows) == (ref_y, ref_rows)
            merged += len(parts) < n
            short_sets = []
            for j, (count, offers, demand, weights, result) in enumerate(calls):
                assert (count, weights) == (len(parts), [len(p) for p in parts])
                clients = expand(parts, offers)
                assert all(vs in hoods for _, vs, _ in clients)
                ref = bipartite_flow(n, clients, demand)
                short = result[2]
                if short is None:
                    served += 1
                    assert ref[2] is None and j == len(calls) - 1 and y is not None
                else:
                    class_cuts += 1
                    w_set = {v for p in short for v in parts[p]}
                    assert w_set == ref[2]
                    short_sets.append(w_set)
            # one flow per round: each adds a cut row, but a serving last one
            assert len(short_sets) == len(calls) - (y is not None)
            # the cut rows close the row list, one per short flow, with
            # coefficients min(L(u), |N[u] cap W|) for the expanded W
            cuts = cut_rows[len(cut_rows) - len(short_sets):]
            for (coefs, sense, b), w_set in zip(cuts, short_sets):
                want = {
                    i: min(caps[u], len(w_set.intersection(hood)))
                    for i, (u, hood) in enumerate(zip(centers, hoods))
                }
                assert coefs == {i: c for i, c in want.items() if c > 0}
                assert (sense, b) == (">=", len(w_set))
        assert merged >= 350 and class_cuts >= 250 and served >= 120

    def test_x_is_the_class_flow_split_evenly(self, monkeypatch):
        checked = 0
        for model in cloned_models(seed=30, count=300):
            n = model.graph.vertex_count
            parts = client_classes(model)
            with monkeypatch.context() as m:
                calls = spy_flows(m)
                res = solve_feasibility(model)
            if not res.feasible:
                continue
            _, _, demand, sizes, (_, flows, _) = calls[-1]
            y = res.assignment.y
            live = [u for u in range(n) if model.capacities[u] > 0 and y[u] > 0]
            want = {}
            for u, pairs in zip(live, flows):
                row = {v: F(q, demand * sizes[c]) for c, q in pairs for v in parts[c]}
                if row:
                    want[u] = row
            x = res.assignment.copy().x  # the client view
            assert x == want
            # keyed by class, each class of two or more clients under its
            # first client
            keyed = {p[0]: tuple(p) for p in parts if len(p) > 1}
            assert res.assignment.classes == keyed
            # swapping two clients of a class maps x onto itself
            for members in parts:
                for v in members[1:]:
                    swap = {members[0]: v, v: members[0]}
                    assert {u: {swap.get(w, w): q for w, q in row.items()}
                            for u, row in x.items()} == x
            checked += len(parts) < n
        assert checked >= 90

    def test_hub_chain_runs_one_class_flow_per_round(self, monkeypatch):
        inst = gen_gap_construction(24, nonuniform=True)[0]
        g = threshold_graph(inst, 1)
        calls = spy_flows(monkeypatch)
        assert solve_feasibility(build_lp1(g, list(inst.capacities), inst.k)).feasible
        # every flow is over the classes; every round but the last ends on a
        # class cut, and the last one's flow serves everyone and gives x
        assert all(weights is not None for _, _, _, weights, _ in calls)
        served = [result[2] is None for _, _, _, _, result in calls]
        assert len(calls) >= 2 and served == [False] * (len(calls) - 1) + [True]
        # the class network's arcs are ints too: supplies, units, the
        # common denominator and the class sizes
        amounts = [
            x for _, offers, demand, weights, _ in calls
            for x in [demand, *weights, *(a for s, _, u in offers for a in (s, u))]
        ]
        assert all(type(x) is int for x in amounts)


def classed_models(seed, count):
    """Seeded LP1 models whose client classes halve the clients.

    A random connected graph, then one to four capacity-0 true twins of
    each vertex (the vertex and its neighbours), which join its class.
    Hard and soft alternate.
    """
    rng = random.Random(seed)
    for t in range(count):
        n = rng.randint(4, 10)
        g = rand_connected_graph(rng, n)
        edges = set(g.edges)
        caps = [rng.choice((0, 3, 4, 6, 8, 12)) for _ in range(n)]
        for v in range(n):
            for _ in range(rng.randint(1, 4)):
                edges.update((u, len(caps)) for u in g.neighbors(v) + [v])
                caps.append(0)
        k = rng.randint(2, max(2, n // 2))
        yield build_lp1(Graph(len(caps), edges), caps, k, t % 2 == 1)


def class_copy(a):
    """A deep copy that keeps the class key (copy() gives the client view)."""
    b = Assignment(a.vertex_count, a.y, classes=dict(a.classes))
    b.x = {u: dict(row) for u, row in a.x.items()}
    return b


class TestClassKeyedPoint:
    """Where the client classes halve the clients, the LP point keeps x on
    them; every reader of x answers for it as for its client expansion."""

    def test_a_class_point_reads_as_its_client_expansion(self):
        keyed = rounded = 0
        answers = Counter()
        for model in classed_models(seed=35, count=600):
            res = solve_feasibility(model)
            if not res.feasible or not res.assignment.classes:
                continue
            g, caps, k, soft = model
            point = res.assignment
            keyed += 1
            pairs = [(point, point.copy())]
            if not soft:
                rounded += any(q.denominator != 1 for q in point.y)
                a, e = class_copy(point), point.copy()
                runs = []
                for b in (a, e):
                    ctx = RoundingContext(g, caps, trace=[])
                    runs.append((round_y(ctx, b, k), ctx.trace, dump_assignment(b)))
                assert runs[0] == runs[1]  # stretch, trace and dump
                assert a.classes == point.classes and not e.classes
                pairs.append((a, e))
            for a, e in pairs:
                assert sum(map(len, a.x.values())) < sum(map(len, e.x.values()))
                assert list(a.x_items()) == list(e.x_items())
                assert dump_assignment(a) == dump_assignment(e)
                n = g.vertex_count
                assert [radius_of(a, g, u) for u in range(n)] == [
                    radius_of(e, g, u) for u in range(n)
                ]
                assert global_delta(a, g) == global_delta(e, g)
                for delta in range(1, 8):
                    ok = verify_assignment_feasible(g, caps, k, a, delta, soft)
                    assert ok == verify_assignment_feasible(g, caps, k, e, delta, soft)
                    assert ok == (not lp1_failures(g, caps, k, e, delta, soft))
                    answers[ok] += 1
        assert keyed >= 150 and rounded >= 35 and min(answers.values()) >= 40, (
            keyed, rounded, answers
        )


def twin_models(seed, count):
    """Seeded LP1 models made of twins, hard and soft alternately.

    Each vertex of a random connected graph becomes a group of 1-3
    vertices with its capacity; a group is a clique (true twins) or has no
    inner edge (false twins), and an edge joins every vertex of one group
    to every vertex of the other.  A quarter of the models get one stray
    edge, which breaks some twins.
    """
    rng = random.Random(seed)
    for t in range(count):
        base = rand_connected_graph(rng, rng.randint(2, 6))
        groups, caps = [], []
        for _ in range(base.vertex_count):
            size = rng.choice([1, 2, 2, 3])
            groups.append(range(len(caps), len(caps) + size))
            caps += [rng.choice([0, 1, 2, 3, 4])] * size
        edges = set()
        for group in groups:
            if rng.random() < 0.5:
                edges.update((a, b) for a in group for b in group if a < b)
        for a, b in base.edges:
            edges.update((u, w) for u in groups[a] for w in groups[b])
        n = len(caps)
        if rng.random() < 0.25:
            u, w = rng.sample(range(n), 2)
            edges.add((min(u, w), max(u, w)))
        yield build_lp1(Graph(n, edges), caps, rng.randint(1, min(6, n)), t % 2 == 1)


def spy_twin_columns(monkeypatch):
    """Record each _twin_columns call as (centers, result)."""
    calls = []
    original = lp_feasibility._twin_columns

    def spy(graph, caps, centers):
        result = original(graph, caps, centers)
        calls.append((centers, result))
        return result

    monkeypatch.setattr(lp_feasibility, "_twin_columns", spy)
    return calls


def spy_tableaus(monkeypatch):
    """Record each Phase1Tableau as [num_vars, bounded, add_row calls...]."""
    tableaus = []
    init, add_row = Phase1Tableau.__init__, Phase1Tableau.add_row

    def spy_init(tab, num_vars, bounded=False):
        tableaus.append([num_vars, bounded])
        tab.spied = tableaus[-1]
        init(tab, num_vars, bounded)

    def spy_add_row(tab, coefs, sense, b):
        tab.spied.append((list(coefs.items()), sense, b))
        return add_row(tab, coefs, sense, b)

    monkeypatch.setattr(Phase1Tableau, "__init__", spy_init)
    monkeypatch.setattr(Phase1Tableau, "add_row", spy_add_row)
    return tableaus


def load_corpus():
    spec = importlib.util.spec_from_file_location("perfbench_corpus", CORPUS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def solve_text(tmp_path, text):
    """capkc solve on an instance text, its report discarded; the exit code."""
    path = tmp_path / "instance.txt"
    path.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()):
        return main(["solve", str(path)])


def search_models(exclude=()):
    """The SEARCH_LPS models, in order, but those of the inputs in exclude."""
    corpus = load_corpus()
    insts = [corpus.hub_chain(6), corpus.hub_chain(12, nonuniform=True)]
    texts = {inst.name: inst.text() for inst in insts + corpus.WORKLOADS["mixed"][1]()}
    texts["gap-24-nonuniform"] = format_instance(gen_gap_construction(24, nonuniform=True)[0])
    for name, r, least, k in SEARCH_LPS:
        if name in exclude:
            continue
        inst = graph_core.parse_instance_text(texts[name])
        g = threshold_graph(inst, Fraction(r))
        (comp,) = [comp for comp in graph_core.connected_components(g) if comp[0] == least]
        sub, _ = graph_core.induced_subgraph(g, comp)
        yield build_lp1(sub, [inst.capacities[v] for v in comp], k, inst.mode == graph_core.SOFT)


class TestTwinColumns:
    """The master holds one column per twin class of centers when the
    classes at least halve the centers; else the map is the identity, one
    column per center."""

    def test_class_master_agrees_with_the_dense_reference(self, monkeypatch):
        classes = spy_twin_columns(monkeypatch)
        took = feasible = 0
        for model in twin_models(seed=28, count=250):
            classes.clear()
            res = solve_feasibility(model)
            ref = _solve_dense(model)
            assert res.feasible == ref.feasible
            for r in (res, ref):
                if r.feasible:
                    assert verify_assignment_feasible(
                        model.graph, model.capacities, model.k, r.assignment, 1, model.soft
                    )
            if not classes or classes[0][1] == list(range(len(classes[0][0]))):
                continue
            twin = classes[0][1]
            took += 1
            feasible += res.feasible
            if res.feasible:  # the point is constant on each class
                y = res.assignment.y
                shared = {}
                for u, c in zip(classes[0][0], twin):
                    assert shared.setdefault(c, y[u]) == y[u]
        assert took >= 100 and feasible >= 50

    def test_classes_are_exactly_the_swappable_centers(self, monkeypatch):
        # where the classes of swappable centers halve the centers, the map
        # numbers exactly them; elsewhere it is the identity, whether the
        # (capacity, degree) prefilter or the full scan settles that
        classes = spy_twin_columns(monkeypatch)
        checked = Counter()
        for model in twin_models(seed=29, count=200):
            g, caps = model.graph, model.capacities
            solve_feasibility(model)
            for centers, twin in classes:
                swappable = {}  # (i, j), j < i: whether centers i and j swap
                for i, u in enumerate(centers):
                    for j in range(i):
                        w = centers[j]
                        swap = {u: w, w: u}
                        edges = {
                            tuple(sorted((swap.get(a, a), swap.get(b, b)))) for a, b in g.edges
                        }
                        swappable[i, j] = edges == g.edges and caps[u] == caps[w]
                m = len(centers)
                count = sum(not any(swappable[i, j] for j in range(i)) for i in range(m))
                if 2 * count <= m:
                    checked["classes"] += 1
                    assert all((twin[i] == twin[j]) == s for (i, j), s in swappable.items())
                else:
                    pairs = {(caps[u], len(g.adjacency[u])) for u in centers}
                    checked["prefilter" if 2 * len(pairs) > m else "scan"] += 1
                    assert twin == list(range(m))
            classes.clear()
        classed, prefiltered, scanned = checked["classes"], checked["prefilter"], checked["scan"]
        assert classed >= 80 and prefiltered >= 40 and scanned >= 3, checked

    def test_twin_heavy_inputs_get_one_column_per_class(self, monkeypatch, tmp_path):
        corpus = load_corpus()
        tableaus = spy_tableaus(monkeypatch)
        gap = format_instance(gen_gap_construction(24)[0])
        for text, columns in [(corpus.hub_chain(6).text(), 25), (gap, 73)]:
            tableaus.clear()
            assert solve_text(tmp_path, text) == 0
            assert [t[0] for t in tableaus] == [columns]

    def test_other_inputs_keep_one_column_per_center(self, monkeypatch):
        # hub-sparse (25 centers in 13 classes), the nonuniform gap
        # instance (37 in 19) and the mixed workload but fig1: the rows
        # and columns of every master, as recorded before class columns
        classes = spy_twin_columns(monkeypatch)
        tableaus = spy_tableaus(monkeypatch)
        for model in search_models(exclude=("hub-chain-uniform-g6", "fig1")):
            solve_feasibility(model)
        assert classes and all(twin == list(range(len(centers))) for centers, twin in classes)
        digest = hashlib.sha256(repr(tableaus).encode()).hexdigest()
        assert (len(tableaus), digest) == (TWIN_FREE_TABLEAUS, TWIN_FREE_DIGEST)


def solve_unit_systems():
    """unit_systems(Random(37), 300) through phase1_feasible and through
    the bounded tableau, fed in two batches."""
    rng = random.Random(37)
    for nv, rows in unit_systems(rng, 300):
        phase1_feasible(nv, rows)
        cut = rng.randint(0, len(rows))
        bounded_solve(nv, rows, [slice(0, cut), slice(cut, None)])


def cut_loop_models(count):
    """Seeded gen_random_connected(14, 1.0, (1, 4), 4, s) models at radius 1, hard and soft."""
    for seed in range(count):
        inst = gen_random_connected(14, 1.0, (1, 4), 4, seed)
        graph = threshold_graph(inst, 1)
        for soft in (False, True):
            yield build_lp1(graph, list(inst.capacities), 4, soft)


class TestLiveColumns:
    """An artificial never re-enters the basis, so it leaves the tableau
    with the basis: only a basic artificial has a column."""

    def test_only_basic_artificials_hold_a_column(self, monkeypatch):
        add_row, pivot = Phase1Tableau.add_row, Phase1Tableau._pivot
        broken = []  # per pivot: whether the tableau broke the rule after it

        def spy_add_row(tab, coefs, sense, b):
            add_row(tab, coefs, sense, b)
            # every artificial column this tableau has had
            tab.arts = getattr(tab, "arts", set()) | tab.art_cols

        def spy_pivot(tab, pr, entering):
            pivot(tab, pr, entering)
            basic = set(tab.basis)
            dead = tab.arts - basic
            broken.append(
                not tab.art_cols <= basic or any(dead & row.keys() for row in tab.mat)
            )

        monkeypatch.setattr(Phase1Tableau, "add_row", spy_add_row)
        monkeypatch.setattr(Phase1Tableau, "_pivot", spy_pivot)
        solve_unit_systems()
        for model in cut_loop_models(30):
            solve_feasibility(model)
        assert len(broken) > 1000
        assert sum(broken) == 0, f"{sum(broken)} of {len(broken)} pivots"

    def test_pivot_path_is_pinned(self, monkeypatch):
        # every pivot (row, entering column) and every complemented column
        # of the unit systems and of the hub and mixed benchmark LPs,
        # recorded while dead artificial columns were still eliminated
        path = []
        pivot, complement = Phase1Tableau._pivot, Phase1Tableau._complement
        monkeypatch.setattr(
            Phase1Tableau, "_pivot",
            lambda tab, pr, entering: path.append(("pivot", pr, entering))
            or pivot(tab, pr, entering),
        )
        monkeypatch.setattr(
            Phase1Tableau, "_complement",
            lambda tab, col: path.append(("complement", col)) or complement(tab, col),
        )
        solve_unit_systems()
        for model in search_models(exclude=("gap-24-nonuniform",)):
            solve_feasibility(model)
        digest = hashlib.sha256(repr(path).encode()).hexdigest()
        assert (len(path), digest) == (PIVOT_PATH_STEPS, PIVOT_PATH_DIGEST)


class TestVerify:
    def setup_method(self):
        self.g = path_graph(3)
        self.caps = [0, 3, 0]
        self.a = Assignment(3)
        self.a.y[1] = F(1)
        for v in range(3):
            self.a.set_x(1, v, F(1))

    def test_accepts_valid(self):
        assert verify_assignment_feasible(self.g, self.caps, 1, self.a, 1)

    def test_rejects_wrong_k(self):
        assert not verify_assignment_feasible(self.g, self.caps, 2, self.a, 1)

    def test_rejects_delta_too_small(self):
        assert not verify_assignment_feasible(self.g, self.caps, 1, self.a, 0)

    def test_distance_two_needs_delta_two(self):
        a = Assignment(3)
        a.y[0] = F(1)
        for v in range(3):
            a.set_x(0, v, F(1))
        caps = [3, 0, 0]
        assert not verify_assignment_feasible(self.g, caps, 1, a, 1)
        assert verify_assignment_feasible(self.g, caps, 1, a, 2)

    def test_rejects_x_above_y(self):
        self.a.y[1] = F(1, 2)
        self.a.y[0] = F(1, 2)
        assert not verify_assignment_feasible(self.g, self.caps, 1, self.a, 1)

    def test_rejects_overloaded_center(self):
        caps = [0, 2, 0]
        assert not verify_assignment_feasible(self.g, caps, 1, self.a, 1)

    def test_rejects_undercovered_client(self):
        self.a.set_x(1, 2, F(1, 2))
        assert not verify_assignment_feasible(self.g, self.caps, 1, self.a, 1)

    def test_soft_allows_y_above_one(self):
        g = path_graph(2)
        a = Assignment(2)
        a.y[0] = F(2)
        a.set_x(0, 0, F(1))
        a.set_x(0, 1, F(1))
        assert verify_assignment_feasible(g, [1, 0], 2, a, 1, soft=True)
        assert not verify_assignment_feasible(g, [1, 0], 2, a, 1, soft=False)

    def test_rejects_cross_component_service(self):
        g = Graph(3, [(0, 1)])
        a = Assignment(3)
        a.y[0] = F(1)
        for v in range(3):
            a.set_x(0, v, F(1))
        assert not verify_assignment_feasible(g, [3, 0, 0], 1, a, 99)


# The path 0 - 1 - 2 - 3 - 4 with a chord 0 - 2, so 1 and 2 are both in
# N[0], 3 is two hops from 0 and 4 three.  Centers 0 and 3 are open; 0
# serves itself and the class {1, 2}, 3 serves 3 and 4.
CLASS_GRAPH = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])


def class_point(classes, x, caps0=3, caps3=2):
    """(caps, assignment) on CLASS_GRAPH with k = 2, y_0 = y_3 = 1."""
    a = Assignment(5, [1, 0, 0, 1, 0], classes=classes)
    for (u, c), q in x.items():
        a.set_x(u, c, F(q))
    return [caps0, 0, 0, caps3, 0], a


BASE_X = {(0, 0): 1, (0, 1): 1, (3, 3): 1, (3, 4): 1}


def base_x_without(key):
    return {k: q for k, q in BASE_X.items() if k != key}


class TestClassKeyedVerify:
    """A class entry serves each member of its class: every member is held
    to the distance rule, the load counts it once per member, and the
    classes must partition the clients."""

    def test_the_base_point_is_feasible_as_its_client_expansion(self):
        caps, a = class_point({1: (1, 2)}, BASE_X)
        for delta in (1, 2):
            assert verify_assignment_feasible(CLASS_GRAPH, caps, 2, a, delta)
            assert not lp1_failures(CLASS_GRAPH, caps, 2, a.copy(), delta, False)

    @pytest.mark.parametrize("delta", [1, 2], ids=["outside-N", "beyond-delta"])
    def test_each_member_is_held_to_the_distance_rule(self, delta):
        # 0's class also holds the member 3 (2 hops) or 4 (3 hops), which
        # 3 no longer serves; the loads still fit
        far = 2 + delta
        caps, a = class_point({1: (1, 2, far)}, base_x_without((3, far)), caps0=4)
        assert not verify_assignment_feasible(CLASS_GRAPH, caps, 2, a, delta)
        assert verify_assignment_feasible(CLASS_GRAPH, caps, 2, a, delta + 1)

    def test_the_load_is_weighted_by_class_size(self):
        # 0 serves 1 + 2 * 1 = 3 clients; unweighted, its load would be 2
        caps, a = class_point({1: (1, 2)}, BASE_X, caps0=2)
        assert not verify_assignment_feasible(CLASS_GRAPH, caps, 2, a, 1)
        assert lp1_failures(CLASS_GRAPH, caps, 2, a.copy(), 1, False) == {"load"}

    @pytest.mark.parametrize(
        "classes, x, caps3",
        [
            ({1: (1,)}, BASE_X, 2),  # 2 left out of its class: nobody serves it
            # 2 in two classes: 3 is served only through the class of 2,
            # which no entry serves, and 0's load counts 2 clients, not 3
            ({1: (1, 2), 2: (2, 3)}, base_x_without((3, 3)), 2),
            ({1: (1, 2, 2)}, BASE_X, 2),  # a member listed twice
            # a class keyed by a client outside it: 3 would serve 1 and 2
            # through 4's entry while 0 serves 1 too
            ({4: (1, 2)}, BASE_X, 3),
            ({1: (1, 2, 9)}, BASE_X, 2),  # a member above n - 1
            # a member below 0, which would index client 4 from the end
            ({1: (1, 2, -1)}, base_x_without((3, 4)), 2),
            # an entry keyed by a member other than its class's key: 3 gives
            # 2 a half more on top of its class's whole serving
            ({1: (1, 2)}, {**BASE_X, (3, 2): F(1, 2)}, 3),
        ],
        ids=["misses", "repeats-across", "repeats-within", "key-outside", "above-n",
             "below-0", "member-key"],
    )
    def test_the_classes_must_partition_the_clients(self, classes, x, caps3):
        caps, a = class_point(classes, x, caps0=4, caps3=caps3)
        for delta in (1, 2, 3):
            assert not verify_assignment_feasible(CLASS_GRAPH, caps, 2, a, delta)


def lp1_failures(graph, caps, k, a, delta, soft):
    """Every LP1 clause the assignment breaks, in plain Fraction arithmetic.

    Unlike verify_assignment_feasible it does not stop at the first
    broken clause (only a vertex count mismatch ends it), so a test can
    tell which clause alone decides.
    """
    n = graph.vertex_count
    if a.vertex_count != n:
        return {"vertex count"}
    failed = set()
    y = a.y
    if any(q < 0 for q in y):
        failed.add("y < 0")
    if not soft and any(q > 1 for q in y):
        failed.add("y > 1")
    if sum(y) != k:
        failed.add("sum y")
    hops = graph.hop_distances()
    total = [F(0)] * n
    for u, row in a.x.items():
        load = 0
        for v, q in row.items():
            if q <= 0:
                failed.add("x <= 0")
            if q > y[u]:
                failed.add("x > y")
            if hops[u][v] == INF:
                failed.add("unreachable")
            elif hops[u][v] > delta:
                failed.add("beyond delta")
            load += q
            total[v] += q
        if load > caps[u] * y[u]:
            failed.add("load")
    if any(t != 1 for t in total):
        failed.add("serve")
    return failed


def rand_split(rng, parts):
    """parts positive Fractions over mixed denominators that total exactly 1."""
    weights = [F(rng.randint(1, 6), rng.randint(1, 7)) for _ in range(parts)]
    return [w / sum(weights) for w in weights]


def rand_lp1_point(rng, soft, delta=None):
    """A random LP1-feasible (graph, caps, k, assignment, delta); delta 1..3 unless given.

    x splits each client over up to three centers within delta hops (a
    whole client is the int 1); y is the least each center needs, plus
    the slack up to an integral k; capacities keep hard y at most 1 and
    let soft y pass 1.  Some graphs have two components, and an integral
    y is sometimes an int.
    """
    n = rng.randint(3, 9)
    if rng.random() < 0.3:
        m = rng.randint(1, n - 1)
        left, right = rand_connected_graph(rng, m), rand_connected_graph(rng, n - m)
        graph = Graph(n, list(left.edges) + [(u + m, v + m) for u, v in right.edges])
    else:
        graph = rand_connected_graph(rng, n)
    if delta is None:
        delta = rng.randint(1, 3)
    hops = graph.hop_distances()
    a = Assignment(n)
    for v in range(n):
        near = [u for u in range(n) if hops[u][v] <= delta]
        centers = rng.sample(near, min(rng.randint(1, 3), len(near)))
        if len(centers) == 1:
            a.set_x(centers[0], v, 1)
        else:
            for u, q in zip(centers, rand_split(rng, len(centers))):
                a.set_x(u, v, q)
    caps = [rng.randint(0, 3) for _ in range(n)]
    for u, row in a.x.items():
        load = sum(row.values())
        caps[u] = rng.randint(max(1, -(-load // 3)), 3) if soft else math.ceil(load) + rng.randint(0, 2)
        a.y[u] = max(max(row.values()), F(load) / caps[u])
    k = math.ceil(sum(a.y))
    slack = k - sum(a.y)
    for v in rng.sample(range(n), n):
        step = slack if soft else min(slack, 1 - a.y[v])
        a.y[v] += step
        slack -= step
    for v in range(n):
        if a.y[v].denominator == 1 and rng.random() < 0.5:
            a.y[v] = int(a.y[v])
    return graph, caps, k, a, delta


def perturb(rng, graph, caps, k, a, delta):
    """One small random change, of a kind that can break each LP1 clause alone."""
    a = a.copy()
    n = graph.vertex_count
    kind = rng.randrange(7)
    e = F(rng.randint(1, 4), rng.randint(2, 9))
    if kind == 0:  # move y mass: y < 0, y > 1, x > y, load
        u, w = rng.sample(range(n), 2)
        # half the time from a vertex that serves no one to one with room,
        # so that y < 0 can break alone
        idle = [v for v in range(n) if v not in a.x]
        if idle and rng.random() < 0.5:
            u = rng.choice(idle)
            w = rng.choice([v for v in range(n) if v != u and a.y[v] + e <= 1]
                           or [v for v in range(n) if v != u])
        a.y[u] -= e
        a.y[w] += e
    elif kind == 1 and a.x:  # move x mass to another center: x > y, load, reach
        u = rng.choice(list(a.x))
        v = rng.choice(list(a.x[u]))
        w = rng.choice([c for c in range(n) if c != u])
        e = min(e, a.x[u][v])
        a.add_x(u, v, -e)
        a.add_x(w, v, e)
    elif kind == 2:  # sum y
        k += rng.choice((-1, 1))
    elif kind == 3 and a.x:  # a stored x entry of 0 (set_x never stores one)
        u = rng.choice(list(a.x))
        near = [v for v in range(n) if graph.hop_distances()[u][v] <= delta and v not in a.x[u]]
        if near:
            a.x[u][rng.choice(near)] = F(0)
    elif kind == 4 and a.x:  # change one x entry: serve, with x > y and load
        u = rng.choice(list(a.x))
        v = rng.choice(list(a.x[u]))
        a.add_x(u, v, rng.choice((-1, 1)) * min(e, a.x[u][v] / 2))
    elif kind == 5:  # a smaller delta: beyond delta
        delta = rng.randint(-1, delta - 1)
    else:  # one vertex too many or too few
        a = Assignment(n + rng.choice((-1, 1)))
    return graph, caps, k, a, delta


class TestIntVerify:
    @pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
    def test_random_points_match_fraction_arithmetic(self, soft):
        # each clause must be the only one broken on some case, so dropping
        # or weakening any test of the int path changes some answer; a
        # negative delta breaks "beyond delta" or, with no x entry, "serve"
        rng = random.Random(83 + soft)
        alone = Counter()
        for _ in range(400):
            point = rand_lp1_point(rng, soft)
            assert lp1_failures(*point, soft) == set()
            assert verify_assignment_feasible(*point, soft)
            for _ in range(6):
                case = perturb(rng, *point)
                failed = lp1_failures(*case, soft)
                assert verify_assignment_feasible(*case, soft) == (not failed), failed
                if len(failed) == 1:
                    alone.update(failed)
        clauses = {"vertex count", "y < 0", "sum y", "x <= 0", "x > y",
                   "unreachable", "beyond delta", "load", "serve"}
        if not soft:
            clauses.add("y > 1")
        assert set(alone) == clauses and min(alone.values()) >= 10, alone



class TestDistanceOneVerify:
    """At distance 1 the check reads N[u] from the adjacency, never a hop row."""

    def test_solve_feasibility_on_fig1_builds_no_hop_row(self, monkeypatch):
        inst = gen_fig1()[0]
        model = build_lp1(threshold_graph(inst, 1), list(inst.capacities), 3)
        built = []
        real = graph_core._bfs_row

        def spy(adjacency, s, step):
            built.append(s)
            return real(adjacency, s, step)

        monkeypatch.setattr(graph_core, "_bfs_row", spy)
        assert solve_feasibility(model).feasible
        assert built == []

    @pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
    def test_distance_one_answers_equal_the_hop_row_answers(self, soft):
        # x entries drawn within 1 or 2 hops, so the points checked at
        # distance 1 hold entries at 0, 1 and 2 hops; perturbed copies break
        # the other clauses
        rng = random.Random(131 + soft)
        answers, reach = Counter(), Counter()
        for _ in range(300):
            graph, caps, k, a, _ = rand_lp1_point(rng, soft, delta=rng.choice((1, 2)))
            hops = graph.hop_distances()
            reach.update(hops[u][v] for u, row in a.x.items() for v in row)
            cases = [(graph, caps, k, a)] + [
                perturb(rng, graph, caps, k, a, 2)[:4] for _ in range(3)
            ]
            for case in cases:
                ok = verify_assignment_feasible(*case, 1, soft)
                assert ok == (not lp1_failures(*case, 1, soft))
                answers[ok] += 1
        assert set(reach) == {0, 1, 2} and min(reach.values()) >= 100, reach
        assert min(answers.values()) >= 100, answers


LP_DUMP = """\\ LP1 feasibility model (no objective)
Minimize
 obj: 0 y_0
Subject To
 sum_y: y_0 + y_1 = 1
 open_0_0: - y_0 + x_0_0 <= 0
 open_0_1: - y_0 + x_0_1 <= 0
 open_1_0: - y_1 + x_1_0 <= 0
 open_1_1: - y_1 + x_1_1 <= 0
 load_0: - y_0 + x_0_0 + x_0_1 <= 0
 load_1: x_1_0 + x_1_1 <= 0
 serve_0: x_0_0 + x_1_0 = 1
 serve_1: x_0_1 + x_1_1 = 1
Bounds
 y_0 <= 1
 y_1 = 0
End
"""


class TestLpDump:
    def test_golden_two_vertex(self):
        m = build_lp1(path_graph(2), [1, 0], 1)
        assert format_lp_dump(m) == LP_DUMP

    def test_soft_drops_upper_bounds(self):
        m = build_lp1(path_graph(2), [1, 1], 1, soft=True)
        text = format_lp_dump(m)
        assert "y_0 <=" not in text
        assert "Bounds" in text and "End" in text

    @pytest.mark.parametrize("soft", [False, True])
    @pytest.mark.parametrize("k", [0, 1])
    def test_graph_without_vertex_is_refused(self, soft, k):
        # refused before the k checks, so no dump ever names a y_0 the
        # model lacks; with a vertex every dumped row holds a term
        with pytest.raises(InputError, match="no vertex"):
            build_lp1(Graph(0, []), [], k, soft)


def serves_both(n):
    """An n-vertex assignment whose vertex 0 opens once and serves vertices 0 and 1."""
    a = Assignment(n)
    a.y[0] = Fraction(1)
    a.set_x(0, 0, Fraction(1))
    a.set_x(0, 1, Fraction(1))
    return a


class TestInputChecks:
    @pytest.mark.parametrize(
        "call, expected",
        [
            (
                lambda: Phase1Tableau(1).add_row({0: Fraction(1)}, "<", Fraction(1)),
                Refused(PipelineError, "bad sense '<'"),
            ),
            # the point meets LP1 on the path 0 - 1, but it has a third vertex
            (
                lambda: verify_assignment_feasible(path_graph(2), [2, 2], 1, serves_both(3), 1),
                False,
            ),
            # nothing to serve and no hop to exceed, so any delta is met
            (lambda: verify_assignment_feasible(Graph(0, []), [], 0, Assignment(0), -1), True),
            # the point meets LP1 at delta 1; every hop is at least 0 > -1
            (
                lambda: verify_assignment_feasible(path_graph(2), [2, 2], 1, serves_both(2), -1),
                False,
            ),
        ],
        ids=["bad-sense", "vertex-count", "negative-delta", "negative-delta-path"],
    )
    def test_check(self, call, expected):
        assert_outcome(call, expected)
