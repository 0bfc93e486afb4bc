"""Client assignment from integral openings, plus the solution format."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capkc import x_rounding
from capkc.assignment import Assignment
from capkc.errors import InputError, PipelineError, ValidationError
from capkc.graph_core import INF, Graph, WeightedMetricInstance
from capkc.shifting import RoundingContext
from capkc.caterpillar import round_y
from capkc.flownet import bipartite_flow
from capkc.x_rounding import (
    Solution,
    format_solution,
    open_unused,
    parse_solution_text,
    read_solution,
    round_x,
    seat_flow,
    validate_solution,
    write_solution,
)

from helpers import (
    Refused,
    assert_outcome,
    client_seat_flow,
    rand_connected_graph,
    two_hub_gadget,
    two_hub_witness,
    with_comments,
)


def hard_assignment(n, ones):
    a = Assignment(n)
    for v in ones:
        a.y[v] = Fraction(1)
    return a


class TestRoundX:
    def test_single_center_star_serves_everyone(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        caps = [4, 4, 4, 4]
        sol = round_x(g, caps, hard_assignment(4, [0]), 1)
        assert sol.k == 1
        assert sol.centers == {0: 1}
        assert sol.phi == (0, 0, 0, 0)
        assert sol.radius == 1
        validate_solution(g.hop_distances(), caps, 1, sol)

    def test_two_hub_split_respects_capacity(self):
        g = Graph(6, two_hub_gadget())
        caps = [4] * 6
        sol = round_x(g, caps, hard_assignment(6, [0, 1]), 1)
        validate_solution(g.hop_distances(), caps, 2, sol)
        loads = sol.loads()
        assert loads[0] + loads[1] == 6
        assert max(loads.values()) <= 4

    def test_radius_reports_reach_not_budget(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        sol = round_x(g, [4, 4, 4, 4], hard_assignment(4, [0]), 3)
        assert sol.radius == 3
        sol = round_x(g, [4, 4, 4, 4], hard_assignment(4, [1]), 3)
        assert sol.radius == 2

    def test_unplaceable_client_is_a_pipeline_error(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(PipelineError, match="placed 3 of 4 clients"):
            round_x(g, [4, 4, 4, 4], hard_assignment(4, [0]), 2)

    def test_tight_capacity_shortfall_is_a_pipeline_error(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        with pytest.raises(PipelineError):
            round_x(g, [2, 2, 2, 2], hard_assignment(4, [0]), 1)

    def test_fractional_opening_rejected(self):
        g = Graph(2, [(0, 1)])
        a = Assignment(2)
        a.y[0] = Fraction(1, 2)
        with pytest.raises(ValidationError, match="integral openings"):
            round_x(g, [2, 2], a, 1)

    def test_hard_mode_rejects_stacked_opening(self):
        g = Graph(2, [(0, 1)])
        a = Assignment(2)
        a.y[0] = Fraction(2)
        with pytest.raises(ValidationError, match="hard mode"):
            round_x(g, [2, 2], a, 1)

    def test_deterministic_phi(self):
        rng = random.Random(11)
        g = rand_connected_graph(rng, 12)
        caps = [rng.randint(4, 7) for _ in range(12)]
        a = hard_assignment(12, [0, 3, 7, 9])
        first = round_x(g, caps, a, 12)
        for _ in range(3):
            again = round_x(g, caps, a, 12)
            assert again.phi == first.phi
            assert again.centers == first.centers


class TestSeatFlow:
    def test_shortfall_returns_the_flow_value_and_no_phi(self):
        dist = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        assert seat_flow(dist, 1, [(0, 5)]) == (2, None)
        assert seat_flow(dist, 2, [(1, 2)]) == (2, None)

    def test_infinite_entries_are_never_seated(self):
        dist = [[0, INF, 1], [INF, 0, INF], [1, INF, 0]]
        assert seat_flow(dist, 10**9, [(0, 3)]) == (2, None)
        assert seat_flow(dist, 10**9, [(0, 2), (1, 1)]) == (3, [0, 1, 0])

    def test_phi_follows_offer_order(self):
        # every client fits at either center; the first offer's arcs are
        # tried first, so it takes as many clients as it has seats
        dist = [[0] * 4 for _ in range(4)]
        assert seat_flow(dist, 0, [(1, 3), (2, 3)]) == (4, [1, 1, 1, 2])
        assert seat_flow(dist, 0, [(2, 3), (1, 3)]) == (4, [2, 2, 2, 1])

    def test_zero_seats_serve_nobody(self):
        dist = [[0, 0], [0, 0]]
        assert seat_flow(dist, 0, [(0, 0), (1, 2)]) == (2, [1, 1])

    def test_a_class_seats_its_members_in_order(self):
        # clients 0 and 2 reach both centers and form class 0, client 1
        # reaches center 1 only; center 0's one unit goes to class 0 and
        # seats client 0, center 1's unit there seats the next member, 2
        dist = [[0, INF, 0], [0, 0, 0], [INF, INF, INF]]
        assert seat_flow(dist, 0, [(0, 1), (1, 2)]) == (3, [0, 1, 1])


def seat_table(rng):
    """A seeded seat_flow input (dist, bound, offers) of up to 12 clients.

    Entries are ints 0..5 or INF, and most clients copy one of a few
    columns, so classes of several clients are common.  A column may be
    all INF, a client no offer reaches.  Seats are 0..6 per offer, or a
    capacity times a multiplicity as the soft solver and the oracle offer
    them; either may be 0.
    """
    n = rng.randint(1, 12) if rng.random() < 0.97 else 0
    entries = (0, 1, 2, 3, 4, 5, INF)
    columns = [[rng.choice(entries) for _ in range(n)] for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.2:
        columns.append([INF] * n)
    dist = [[0] * n for _ in range(n)]
    for v in range(n):
        column = rng.choice(columns) if rng.random() < 0.7 else [rng.choice(entries) for _ in range(n)]
        for u in range(n):
            dist[u][v] = column[u]
    centers = rng.sample(range(n), rng.randint(0, min(n, 5)))
    if rng.random() < 0.5:
        offers = [(u, rng.randint(0, 6)) for u in centers]
    else:
        offers = [(u, rng.choice((0, 1, 2, 3, 4)) * rng.randint(1, 3)) for u in centers]
    return dist, rng.randint(1, 5), offers


class TestSeatFlowOnClasses:
    """seat_flow's flow over client classes seats as many clients as the
    flow with one node per client (tests/helpers.py client_seat_flow), and
    its seating expands the class flow exactly."""

    def test_the_class_flow_seats_what_the_client_flow_seats(self, monkeypatch):
        calls = []

        def spy(*args):
            result = bipartite_flow(*args)
            calls.append((args, result))
            return result

        monkeypatch.setattr(x_rounding, "bipartite_flow", spy)
        outcomes = Counter()
        for seed in range(400):
            dist, bound, offers = seat_table(random.Random(seed))
            calls.clear()
            seated, phi = seat_flow(dist, bound, offers)
            ref_seated, ref_phi = client_seat_flow(dist, bound, offers)
            assert seated == ref_seated, seed
            assert (phi is None) == (ref_phi is None), seed
            outcomes[phi is None] += 1
            # the classes: clients keyed by the offers within bound, in
            # first-seen order, each listing its members in ascending order
            classes = {}
            for v in range(len(dist)):
                key = tuple(i for i, (u, _) in enumerate(offers) if dist[u][v] <= bound)
                classes.setdefault(key, []).append(v)
            ((count, class_offers, demand, weights), (_, flows, _)), = calls
            assert (count, demand, weights) == (
                len(classes), 1, [len(members) for members in classes.values()]
            ), seed
            assert class_offers == [
                (seats, [c for c, key in enumerate(classes) if i in key], 1)
                for i, (_, seats) in enumerate(offers)
            ], seed
            if phi is None:
                continue
            centers = dict(offers)
            for v, u in enumerate(phi):
                assert u in centers and dist[u][v] <= bound, (seed, v)
            loads = Counter(phi)
            for u, seats in offers:
                assert loads[u] <= seats, (seed, u)
            for (u, _), pairs in zip(offers, flows):
                flow = dict(pairs)
                for c, members in enumerate(classes.values()):
                    assert sum(phi[v] == u for v in members) == flow.get(c, 0), (seed, u, c)
        # both answers are common in the seeded tables
        assert min(outcomes.values()) >= 100, outcomes


class TestAfterYRounding:
    def test_hub_pipeline_end_to_end(self):
        g = Graph(12, two_hub_gadget() + two_hub_gadget(offset=6))
        caps = [4] * 12
        a = Assignment(12)
        two_hub_witness(a)
        two_hub_witness(a, offset=6)
        for hub in (0, 1, 6, 7):  # pad to an integral total of 4
            a.y[hub] += Fraction(1, 4)
        ctx = RoundingContext(g, caps)
        delta = round_y(ctx, a, 4)
        sol = round_x(g, caps, a, delta)
        validate_solution(g.hop_distances(), caps, 4, sol)
        assert sol.radius <= delta

    def test_random_feasible_cases(self):
        from capkc.lp_feasibility import build_lp1, solve_feasibility

        rng = random.Random(23)
        done = 0
        while done < 4:
            n = rng.randint(6, 14)
            g = rand_connected_graph(rng, n)
            caps = [rng.randint(1, 4) for _ in range(n)]
            k = rng.randint(2, max(2, n // 2))
            res = solve_feasibility(build_lp1(g, list(caps), k))
            if not res.feasible:
                continue
            done += 1
            a = res.assignment
            ctx = RoundingContext(g, caps)
            delta = round_y(ctx, a, k)
            sol = round_x(g, caps, a, delta)
            validate_solution(g.hop_distances(), caps, k, sol)


class TestValidator:
    def setup_method(self):
        self.g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        self.hops = self.g.hop_distances()
        self.caps = [4, 4, 4, 4]

    def test_wrong_label(self):
        sol = Solution(k=2, radius=1, centers={0: 1}, phi=(0, 0, 0, 0))
        with pytest.raises(ValidationError, match="labeled k = 2"):
            validate_solution(self.hops, self.caps, 1, sol)

    def test_wrong_open_count(self):
        sol = Solution(k=2, radius=1, centers={0: 1}, phi=(0, 0, 0, 0))
        with pytest.raises(ValidationError, match="opens 1 centers"):
            validate_solution(self.hops, self.caps, 2, sol)

    def test_multiplicity_needs_soft_mode(self):
        sol = Solution(k=2, radius=1, centers={0: 2}, phi=(0, 0, 0, 0))
        with pytest.raises(ValidationError, match="hard mode cannot open 2"):
            validate_solution(self.hops, self.caps, 2, sol)
        validate_solution(self.hops, self.caps, 2, sol, soft=True)

    def test_closed_center(self):
        sol = Solution(k=1, radius=1, centers={0: 1}, phi=(0, 1, 0, 0))
        with pytest.raises(ValidationError, match="closed vertex 1"):
            validate_solution(self.hops, self.caps, 1, sol)

    def test_overloaded_center(self):
        sol = Solution(k=1, radius=1, centers={0: 1}, phi=(0, 0, 0, 0))
        with pytest.raises(ValidationError, match="carries 4 clients"):
            validate_solution(self.hops, [3, 3, 3, 3], 1, sol)

    def test_radius_violation(self):
        sol = Solution(k=1, radius=1, centers={1: 1}, phi=(1, 1, 1, 1))
        with pytest.raises(ValidationError, match="beyond the radius"):
            validate_solution(self.hops, self.caps, 1, sol)

    def test_metric_distances_accepted(self):
        scaled = [[0, 3], [3, 0]]  # d(0, 1) = 3/2 over scale 2
        sol = Solution(k=1, radius=Fraction(3, 2), centers={0: 1}, phi=(0, 0))
        validate_solution(scaled, [2, 2], 1, sol, scale=2)
        sol = Solution(k=1, radius=Fraction(4, 3), centers={0: 1}, phi=(0, 0))
        with pytest.raises(ValidationError, match="beyond the radius"):
            validate_solution(scaled, [2, 2], 1, sol, scale=2)

    def test_weighted_solution_at_exactly_its_fractional_radius(self):
        # d(0, 1) = 5/3 and d(0, 2) = 13/6 over scale 6
        inst = WeightedMetricInstance.from_weighted_edges(
            3, [(0, 1, Fraction(5, 3)), (1, 2, Fraction(1, 2))], [3, 0, 0], 1, "hard"
        )
        assert inst.scale == 6
        sol = Solution(k=1, radius=Fraction(13, 6), centers={0: 1}, phi=(0, 0, 0))
        validate_solution(inst.scaled, inst.capacities, 1, sol, scale=inst.scale)
        sol.radius = Fraction(13, 6) - Fraction(1, 7 * inst.scale)
        with pytest.raises(ValidationError) as err:
            validate_solution(inst.scaled, inst.capacities, 1, sol, scale=inst.scale)
        assert "client 2 sits at distance 13/6 from center 0" in str(err.value)

    def test_unreachable_client_reports_inf(self):
        scaled = [[0, INF], [INF, 0]]
        sol = Solution(k=1, radius=5, centers={0: 1}, phi=(0, 0))
        with pytest.raises(ValidationError, match="distance inf from center 0"):
            validate_solution(scaled, [2, 2], 1, sol, scale=3)


class TestSolutionFormat:
    def test_round_trip(self, tmp_path):
        sol = Solution(
            k=3, radius=Fraction(5, 2), centers={2: 1, 7: 2}, phi=(2, 7, 2, 7)
        )
        text = format_solution(sol)
        back = parse_solution_text(text)
        assert back.k == 3
        assert back.radius == Fraction(5, 2)
        assert back.centers == {2: 1, 7: 2}
        assert back.phi == (2, 7, 2, 7)
        path = tmp_path / "out.solution"
        write_solution(sol, path)
        assert read_solution(path).phi == sol.phi

    def test_integer_radius_stays_integral(self):
        back = parse_solution_text("solution 1 4\ncenter 0 1\nassign 0 0\n")
        assert back.radius == 4 and isinstance(back.radius, int)

    def test_missing_header(self):
        with pytest.raises(InputError, match="missing 'solution' header"):
            parse_solution_text("center 0 1\n")

    def test_repeated_header(self):
        with pytest.raises(InputError, match="line 2: repeated solution"):
            parse_solution_text("solution 1 1\nsolution 1 1\n")

    def test_repeated_center(self):
        with pytest.raises(InputError, match="line 3: center 0 repeats"):
            parse_solution_text("solution 1 1\ncenter 0 1\ncenter 0 1\n")

    def test_skipped_client(self):
        text = "solution 1 1\ncenter 0 1\nassign 0 0\nassign 2 0\n"
        with pytest.raises(InputError, match="skip client 1"):
            parse_solution_text(text)

    def test_junk_directive(self):
        with pytest.raises(InputError, match="line 2: unknown directive"):
            parse_solution_text("solution 1 1\nfacility 0\n")

    def test_bad_number_reports_line(self):
        with pytest.raises(InputError, match="line 2"):
            parse_solution_text("solution 1 1\ncenter zero 1\n")

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_format_of_parse_is_the_identity_under_comments(self, data):
        n = data.draw(st.integers(1, 8))
        centers = data.draw(st.dictionaries(st.integers(0, n - 1), st.integers(1, 3), min_size=1))
        phi = tuple(data.draw(st.lists(st.sampled_from(sorted(centers)), min_size=n, max_size=n)))
        radius = data.draw(st.fractions(min_value=0, max_denominator=12))
        radius = int(radius) if radius.denominator == 1 else radius
        sol = Solution(k=sum(centers.values()), radius=radius, centers=centers, phi=phi)
        text = format_solution(sol)
        assert format_solution(parse_solution_text(with_comments(data, text))) == text

    def test_comments_and_blanks_ignored(self):
        text = "# cert\n\nsolution 1 0\ncenter 0 1  # hub\nassign 0 0\n"
        back = parse_solution_text(text)
        assert back.centers == {0: 1}


class TestInputChecks:
    @pytest.mark.parametrize(
        "call, expected",
        [
            (
                lambda: open_unused(Solution(k=1, radius=0, centers={0: 1}, phi=(0,)), 2),
                Refused(InputError, "cannot open 2 distinct centers on 1 vertices"),
            ),
        ],
        ids=["too-few-vertices"],
    )
    def test_check(self, call, expected):
        assert_outcome(call, expected)
