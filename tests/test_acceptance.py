"""Acceptance gate: eight end-to-end checks, each with a wall-clock budget.

Every test reports one PASS or FAIL line (plus its measured numbers) in the
terminal summary section.  Budgets are asserted, not aspirational: a criterion
that finishes over budget fails.
"""

import io
import random
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from itertools import combinations, permutations

from capkc import (
    HARD,
    SOFT,
    Graph,
    RoundingContext,
    WeightedMetricInstance,
    build_caterpillar,
    build_lp1,
    candidate_radii,
    exact_opt,
    feasible_at,
    gen_fig1,
    gen_gap_construction,
    gen_random_connected,
    gen_x3c,
    greedy_witness_search,
    read_solution,
    round_x,
    round_y,
    separate,
    solve_feasibility,
    solve_soft,
    threshold_graph,
    validate_solution,
    verify_assignment_feasible,
    verify_uniform_witness,
    write_instance,
)
from capkc.assignment import global_delta, radius_of
from capkc.cli import main
from capkc.instances import gap_layout
from capkc.shifting import chain_shift

from conftest import acceptance_lines
from helpers import exact_metric, rand_chain_case, rand_connected_graph
from test_shifting import CHAIN_PATHS, CHAIN_X1, CHAIN_Y1, chain_scenario


@contextmanager
def criterion(label, budget_s):
    """Collects stat notes from the body and emits the summary line."""
    notes = []
    t0 = time.perf_counter()
    try:
        yield notes
    except BaseException:
        dt = time.perf_counter() - t0
        acceptance_lines.append(f"criterion {label}: FAIL ({dt:.2f} s)")
        raise
    dt = time.perf_counter() - t0
    detail = f"; {', '.join(notes)}" if notes else ""
    if dt >= budget_s:
        acceptance_lines.append(
            f"criterion {label}: FAIL, over budget ({dt:.2f} s >= {budget_s:.0f} s)"
        )
        raise AssertionError(f"{label} took {dt:.2f} s, budget {budget_s} s")
    acceptance_lines.append(
        f"criterion {label}: PASS ({dt:.2f} s / {budget_s:.0f} s{detail})"
    )


def solve_via_cli(inst, tmp_path, tag):
    """Run the packaged solver on a written instance; return (report, solution)."""
    ipath = tmp_path / f"{tag}.instance"
    spath = tmp_path / f"{tag}.solution"
    write_instance(inst, ipath)
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(["solve", str(ipath), "--output", str(spath)])
    assert rc == 0, buf.getvalue()
    report = {
        line.split(":", 1)[0]: line.split(":", 1)[1].strip()
        for line in buf.getvalue().splitlines()
        if ":" in line
    }
    return report, read_solution(spath)


def check_on_metric(inst, caps, k, sol, soft=False):
    """Validate on the scaled ints; the radius is the exact largest distance."""
    validate_solution(inst.scaled, caps, k, sol, soft=soft, scale=inst.scale)
    exact = exact_metric(inst)
    assert sol.radius == max(exact[u][v] for v, u in enumerate(sol.phi))


# ---------------------------------------------------------------------------
# 1. the two-component hub pair: fractionally coverable, integrally hopeless


def test_criterion_1_two_component_gap_pair():
    with criterion("1 (two-component gap pair)", 1.0) as notes:
        inst, witness = gen_fig1()
        caps = list(inst.capacities)
        g = threshold_graph(inst, 1)
        assert verify_assignment_feasible(g, caps, inst.k, witness, 1)
        radii = candidate_radii(inst)
        for r in radii:
            assert feasible_at(inst, r) is None, f"solvable at radius {r}"
        assert exact_opt(inst) is None
        notes.append(f"infeasible at all {len(radii)} candidate radii")


# ---------------------------------------------------------------------------
# 2. the k=24 hub-chain family: witness arithmetic, LP confirmation, and the
# 4-hop ball structure every gadget must exhibit


def test_criterion_2_hub_chain_family_k24():
    with criterion("2 (hub-chain family, k=24)", 30.0) as notes:
        k = 24
        inst, witness = gen_gap_construction(k)
        lay = gap_layout(k)
        caps = list(inst.capacities)
        assert inst.vertex_count == 523

        # raw per-hub shares total strictly under k, which is the headroom
        # the padding consumes; checked as exact arithmetic for a spread of k
        for kk in (24, 25, 30, 48):
            raw = 1 + Fraction((kk + 4) * (kk - 6), kk - 1)
            assert raw <= kk, f"share total exceeds the budget at k={kk}"

        assert witness.sum_y() == k
        g = threshold_graph(inst, 1)
        assert verify_assignment_feasible(g, caps, k, witness, 1)

        # independent confirmation: the cut solver reaches feasibility on its own
        res = solve_feasibility(build_lp1(g, caps, k))
        assert res.feasible

        hops = g.hop_distances()
        n = inst.vertex_count
        for i in range(len(lay.hubs)):
            ball = set()
            for w in lay.middles[i]:
                row = hops[w]
                ball |= {v for v in range(n) if row[v] != float("inf") and row[v] <= 4}
            expected = (
                set(lay.hubs[i])
                | set(lay.middles[i])
                | {lay.connectors[i], lay.rays[i], lay.root}
            )
            assert ball == expected, f"gadget {i} 4-hop ball leaks"
        notes.append(f"{len(lay.hubs)} gadget balls exact, LP feasible at n={n}")


# ---------------------------------------------------------------------------
# 3. hard pipeline end to end on a seeded corpus, with the stage guarantees
# observed from outside


def test_criterion_3_hard_pipeline_corpus():
    with criterion("3 (hard pipeline corpus)", 300.0) as notes:
        families = [(0.6, (3, 6), 3.0), (1.5, (2, 4), 2.5), (2.0, (1, 3), 2.0)]
        kept = fractional = 0
        max_delta = 0
        for fam, (density, cap_range, kdiv) in enumerate(families):
            for seed in range(75):
                n = 8 + (seed * 7) % 33
                k = max(2, int(n / kdiv))
                inst = gen_random_connected(
                    n, density, cap_range, k, seed=1000 * fam + seed
                )
                caps = list(inst.capacities)
                g = threshold_graph(inst, 1)
                res = solve_feasibility(build_lp1(g, caps, k))
                if not res.feasible:
                    continue
                kept += 1
                a = res.assignment
                if any(q.denominator != 1 for q in a.y):
                    fractional += 1
                    # stage observation on a copy: construction must be
                    # 5-feasible on a 21-spaced spine, separation 68-feasible
                    # with every kept vertex inside radius 47
                    b = a.copy()
                    stage_ctx = RoundingContext(g, caps)
                    cat = build_caterpillar(stage_ctx, b)
                    assert cat.delta == 21
                    assert verify_assignment_feasible(g, caps, k, b, 5)
                    parts = separate(stage_ctx, b, cat)
                    assert verify_assignment_feasible(g, caps, k, b, 68)
                    for c in parts:
                        for v in c.vertices():
                            assert radius_of(b, g, v) <= 47
                ctx = RoundingContext(g, caps, trace=[])
                delta = round_y(ctx, a, k)
                assert delta <= 700, f"seed {seed}: tracked stretch {delta}"
                assert verify_assignment_feasible(g, caps, k, a, delta)
                sol = round_x(g, caps, a, delta)
                validate_solution(g.hop_distances(), caps, k, sol)
                max_delta = max(max_delta, delta)
        assert kept >= 200, f"only {kept} corpus instances were feasible at 1"
        notes.append(
            f"{kept} instances, {fractional} fractional, max tracked stretch {max_delta}"
        )


# ---------------------------------------------------------------------------
# 4. achieved radius against the exact optimum, ratio bounded by the tracked
# stretch the solver itself reports


def test_criterion_4_hard_ratio_vs_oracle(tmp_path):
    with criterion("4 (hard ratio vs oracle)", 300.0) as notes:
        max_ratio = Fraction(0)
        checked = 0
        for seed in range(40):
            n = 6 + (seed * 5) % 13
            k = 2 if n <= 10 else (3 if n <= 14 else 4)
            inst = gen_random_connected(n, 0.9, (6, 8), k, seed=seed)
            opt_r, _ = exact_opt(inst)
            report, sol = solve_via_cli(inst, tmp_path, f"unit{seed}")
            check_on_metric(inst, list(inst.capacities), k, sol)
            ratio = Fraction(Fraction(report["radius"]), Fraction(opt_r))
            assert ratio <= int(report["stretch"]), (seed, ratio)
            max_ratio = max(max_ratio, ratio)
            checked += 1
        # weighted corpus: same claim when thresholding actually has to pick
        # among distinct distances
        rng = random.Random(99)
        for case in range(20):
            n = rng.randint(6, 16)
            k = 2 if n <= 10 else 3
            edges = set()
            for v in range(1, n):
                edges.add((rng.randrange(v), v))
            for _ in range(n):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    edges.add((min(u, v), max(u, v)))
            wedges = [(u, v, rng.randint(1, 7)) for u, v in sorted(edges)]
            caps = [rng.randint(6, 9) for _ in range(n)]
            inst = WeightedMetricInstance.from_weighted_edges(n, wedges, caps, k, HARD)
            opt_r, _ = exact_opt(inst)
            report, sol = solve_via_cli(inst, tmp_path, f"weighted{case}")
            check_on_metric(inst, caps, k, sol)
            ratio = Fraction(Fraction(report["radius"]), Fraction(opt_r))
            assert ratio <= int(report["stretch"]), (case, ratio)
            max_ratio = max(max_ratio, ratio)
            checked += 1
        notes.append(f"{checked} instances, empirical max ratio {max_ratio}")


# ---------------------------------------------------------------------------
# 5. soft solver: 11-hop promise on its own, then the same ratio claim
# against the exact optimum


def test_criterion_5_soft_radius_and_ratio(tmp_path):
    with criterion("5 (soft radius and ratio)", 120.0) as notes:
        kept = 0
        for seed in range(90):
            n = 6 + (seed * 5) % 25
            k = max(2, n // 3)
            inst = gen_random_connected(n, 1.1, (2, 5), k, seed=7000 + seed, mode=SOFT)
            caps = list(inst.capacities)
            g = threshold_graph(inst, 1)
            res = solve_feasibility(build_lp1(g, caps, k, soft=True))
            if not res.feasible:
                continue
            kept += 1
            sol = solve_soft(g, caps, k, res.assignment)
            assert sol.radius <= 11, f"seed {seed}: {sol.radius} hops"
            validate_solution(g.hop_distances(), caps, k, sol, soft=True)
        assert kept >= 60, f"only {kept} soft corpus instances were feasible at 1"

        max_ratio = Fraction(0)
        violations = 0
        for seed in range(30):
            n = 6 + (seed * 3) % 11
            k = max(2, (n + 3) // 4)
            inst = gen_random_connected(n, 0.8, (4, 6), k, seed=8000 + seed, mode=SOFT)
            opt_r, _ = exact_opt(inst)
            report, sol = solve_via_cli(inst, tmp_path, f"soft{seed}")
            check_on_metric(inst, list(inst.capacities), k, sol, soft=True)
            ratio = Fraction(Fraction(report["radius"]), Fraction(opt_r))
            if ratio > 11:
                violations += 1
            max_ratio = max(max_ratio, ratio)
        assert violations == 0
        notes.append(f"{kept} pipeline runs, 30 oracle ratios, max ratio {max_ratio}")


# ---------------------------------------------------------------------------
# 6. the cover reduction, exhaustive over small set families up to relabeling


def _canonical(family, m):
    best = None
    for p in permutations(range(m)):
        img = tuple(sorted(tuple(sorted(p[e] for e in t)) for t in family))
        if best is None or img < best:
            best = img
    return best


def _has_exact_cover(family, m):
    for sub in combinations(family, m // 3):
        seen = set()
        for t in sub:
            seen.update(t)
        if len(seen) == m:
            return True
    return False


def test_criterion_6_cover_reduction_exhaustive():
    with criterion("6 (cover reduction, exhaustive small)", 120.0) as notes:
        classes = {}
        for m in (3, 6):
            triples = list(combinations(range(m), 3))
            for size in (1, 2, 3):
                for fam in combinations(triples, size):
                    classes.setdefault(_canonical(fam, m), (fam, m))
        assert len(classes) == 11  # 1 for |U|=3, then 1 + 3 + 6 for |U|=6

        yes = no = 0
        for fam, m in classes.values():
            inst = gen_x3c(list(fam), list(range(m)))
            if _has_exact_cover(fam, m):
                yes += 1
                opt_r, _ = exact_opt(inst)
                assert opt_r == 1, (fam, m, opt_r)
            else:
                no += 1
                assert feasible_at(inst, 1) is None, (fam, m)
                assert feasible_at(inst, 2) is None, (fam, m)
        assert (yes, no) == (3, 8)

        # one larger solvable system: three disjoint triples over nine elements
        fam9 = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
        opt_r, _ = exact_opt(gen_x3c(fam9, list(range(9))))
        assert opt_r == 1
        notes.append(f"{len(classes)} families up to relabeling, {yes} solvable, {no} not")


# ---------------------------------------------------------------------------
# 7. uniform-capacity witness soundness under fuzz


def test_criterion_7_uniform_witness_soundness():
    with criterion("7 (uniform witness soundness)", 120.0) as notes:
        rng = random.Random(4242)
        cases = confirmed = 0
        while cases < 500:
            n = rng.randint(4, 22)
            g = rand_connected_graph(rng, n)
            if rng.random() < 0.3:
                n2 = rng.randint(2, 8)
                g2 = rand_connected_graph(rng, n2)
                edges = list(g.edges) + [(u + n, v + n) for u, v in g2.edges]
                g = Graph(n + n2, edges)
                n += n2
            cap = rng.randint(1, 4)
            k = rng.randint(1, 6)
            cores = []
            if rng.random() < 0.5:
                cores.append(tuple(v for v in range(n) if rng.random() < 0.3))
            else:
                got = greedy_witness_search(g, cap, k)
                if got is not None:
                    cores.append(got)
                cores.append(tuple(v for v in range(n) if rng.random() < 0.2))
            for core in cores:
                if cases == 500:
                    break
                cases += 1
                if verify_uniform_witness(g, cap, k, core):
                    confirmed += 1
                    res = solve_feasibility(build_lp1(g, [cap] * n, k))
                    assert not res.feasible, (core, cap, k, sorted(g.edges))
        assert confirmed >= 100, f"only {confirmed} witnesses confirmed; fuzz too weak"
        notes.append(f"500 cases, {confirmed} confirmed witnesses, 0 counterexamples")


# ---------------------------------------------------------------------------
# 8. chain shifting: the frozen scenario bit for bit, then volume fuzz


def test_criterion_8_chain_shift_exactness():
    with criterion("8 (chain shift exactness)", 60.0) as notes:
        ctx, a = chain_scenario()
        chain_shift(ctx, a, CHAIN_PATHS)
        assert tuple(a.y) == CHAIN_Y1
        for u in range(7):
            assert a.x_row(u) == CHAIN_X1[u], f"row {u}"

        rng = random.Random(616)
        ran = 0
        while ran < 10_000:
            case = rand_chain_case(rng)
            if case is None:
                continue
            graph, caps, a, paths = case
            ctx = RoundingContext(graph, caps)
            k = a.sum_y()
            pre = global_delta(a, graph)
            hops = graph.hop_distances()
            d_max = max(
                max(hops[p[i]][p[i + 1]] for i in range(len(p) - 1))
                for _, p in paths
            )
            chain_shift(ctx, a, paths)
            assert a.sum_y() == k
            assert verify_assignment_feasible(graph, caps, k, a, pre + d_max)
            ran += 1
        notes.append(f"frozen scenario exact, {ran} fuzzed flows")
