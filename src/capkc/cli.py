"""Command line front end.

Subcommands:

  solve    round an instance end to end (hard, soft, or exact mode)
  verify   check a solution file against an instance file
  gen      write one of the built-in instance families
  oracle   query the brute-force exact solver

Exit codes: 0 solved or valid, 2 infeasible or invalid, 3 bad input: a file
that is malformed or cannot be read, decoded or written, or a usage error.

The solver sweeps the candidate radii (the pairwise distances, 0
included) in ascending order.  At each radius it plans: it splits the
threshold graph into connected components, binary-searches the smallest
per-component budget whose relaxation is feasible, and accepts the
radius once those budgets fit inside k.  The first accepted radius is
therefore also a certified lower bound on the optimum, and the reported
hop radius bounds the stretch against it.  Seat counts (a center u
serves at most min(L(u), |N[u]|) clients per unit of opening, and the
budget's largest such counts must add up to the clients) give each
budget search its first probe, and pass over, without any LP or
subgraph, a radius below the largest whose counts alone already exceed
k.  The largest radius is
always planned in full: its plan is the infeasible report.
"""

import argparse
import functools
import sys
from itertools import accumulate

from .assignment import write_assignment
from .caterpillar import round_y
from .errors import CapkcError, InputError, ValidationError
from .exact_oracle import exact_opt, feasible_at
from .graph_core import (
    HARD,
    SOFT,
    candidate_radii,
    connected_components,
    format_instance,
    induced_subgraph,
    read_instance,
    threshold_graph,
)
from .instances import (
    gen_fig1,
    gen_gap_construction,
    gen_random_connected,
    gen_x3c,
)
from .lp_feasibility import build_lp1, solve_feasibility, write_lp_dump
from .rational import format_rational, parse_int, parse_rational, write_text
from .shifting import RoundingContext
from .soft_solver import solve_soft
from .x_rounding import (
    Solution,
    format_solution,
    open_unused,
    read_solution,
    round_x,
    validate_solution,
    write_solution,
)

__all__ = ["main"]


def _print(line=""):
    sys.stdout.write(line + "\n")


def _budget_range(seats, k_cap, soft):
    """The budgets k' that seat counts alone do not rule out, as (lo, hi).

    seats[u] is the most clients u serves per unit of y: min(L(u), |N[u]|)
    (_seats), or any larger bound such as L(u) itself.  LP1's load rows
    (sum_v x_uv <= L(u) y_u) and x_uv <= y_u over the clients v in N[u]
    bound what u serves by seats[u] * y_u, and its serve rows
    (sum_u x_uv = 1) add up to n, so sum_u seats[u] y_u >= n.  With
    sum y = k' and, in hard mode, y <= 1, the left side is at most the k'
    largest seat counts (soft mode: k' times the largest), so every k'
    below lo is infeasible.  In hard mode LP1 pins capacity-0 vertices at
    y = 0, so every k' above the P positive-capacity vertices is
    infeasible too and hi = min(k_cap, P).  The range is empty (lo > hi)
    when no budget fits, as for a component without positive capacity.
    """
    n = len(seats)
    caps = sorted((c for c in seats if c > 0), reverse=True)
    if not caps:
        return 1, 0
    if soft:
        return -(-n // caps[0]), k_cap
    seats = accumulate(caps)
    lo = next((i for i, s in enumerate(seats, 1) if s >= n), len(caps) + 1)
    return lo, min(k_cap, len(caps))


def _seats(graph, vertices, capacities):
    """min(L(u), |N[u]|) for each u of vertices, capacities[i] being L(vertices[i]).

    N[u] is u's closed neighbourhood in graph, which a component of it
    holds whole.
    """
    adj = graph.adjacency
    return [min(c, len(adj[u]) + 1) for u, c in zip(vertices, capacities)]


def _minimal_budget(graph, capacities, lo, hi, soft):
    """Smallest feasible k' in [lo, hi], as (k', assignment), or None.

    (lo, hi) is the component's _budget_range: no budget outside it is
    feasible.  Feasibility is monotone in k': extra opening mass can
    always sit on a vertex with headroom.  So the search probes the
    seat-count floor lo first, which is often the answer, then
    binary-searches (lo, hi].  Every probe is a fresh LP, so the
    leftmost feasible k' and its assignment are the same whichever
    budgets were probed before it.  None when the range is empty or
    holds no feasible budget.
    """
    best = None
    mid = lo
    while lo <= hi:
        res = solve_feasibility(build_lp1(graph, list(capacities), mid, soft=soft))
        if res.feasible:
            best = (mid, res.assignment)
            hi = mid - 1
        else:
            lo = mid + 1
        mid = (lo + hi) // 2
    return best


def _components(inst, r, soft, last):
    """Components of G_r as (subgraph, old_ids, caps, k_cap, (lo, hi)), or None.

    (lo, hi) is the component's _budget_range.  Unless r is the last
    (largest) radius, the result is None when seat counts alone reject
    r: a component has an empty budget range, or the floors add up to
    more than k.  The counts read the components' vertex lists, so a
    rejected radius builds no subgraph.
    """
    g = threshold_graph(inst, r)
    parts = []
    for comp in connected_components(g):  # ascending ids, as old_ids
        caps = [inst.capacities[v] for v in comp]
        k_cap = inst.k if soft else min(inst.k, len(comp))
        parts.append((comp, caps, k_cap, _budget_range(_seats(g, comp, caps), k_cap, soft)))
    ranges = [rng for *_, rng in parts]
    if not last and (any(lo > hi for lo, hi in ranges) or sum(lo for lo, _ in ranges) > inst.k):
        return None
    return [(*induced_subgraph(g, comp), caps, k_cap, rng) for comp, caps, k_cap, rng in parts]


def _plan(inst, r, soft, last):
    """One (subgraph, old_ids, caps, k_cap, found) per component of G_r.

    found is _minimal_budget's (k', assignment), or None when no budget
    up to k_cap is feasible.  The plan is None, without any LP, when
    _components rejects r by seat counts.  G_r itself goes with
    _components' frame, before the first LP.
    """
    parts = _components(inst, r, soft, last)
    if parts is None:
        return None
    return [
        (sub, old_ids, caps, k_cap, _minimal_budget(sub, caps, *rng, soft))
        for sub, old_ids, caps, k_cap, rng in parts
    ]


def _stitch(inst, plan, soft):
    """Round every component of an accepted plan into one full-instance Solution.

    Returns (solution, hop_radius, certificate): the certificate holds
    one '# component' section per hard component and is empty in soft
    mode.  Budgets below k in total are padded: hard mode opens unused
    vertices with zero load, soft mode stacks extra multiplicity on the
    first opened center.
    """
    n = inst.vertex_count
    phi = [-1] * n
    centers = {}
    hop_radius = 0
    sections = []
    spent = 0
    for sub, old_ids, caps, _, (budget, assignment) in plan:
        spent += budget
        if soft:
            sol = solve_soft(sub, caps, budget, assignment)
        else:
            trace = []
            delta = round_y(RoundingContext(sub, caps, trace=trace), assignment, budget)
            sol = round_x(sub, caps, assignment, delta)
            ids = " ".join(str(v) for v in old_ids)
            sections.append(f"# component {ids}\n" + "".join(f"{line}\n" for line in trace))
        hop_radius = max(hop_radius, sol.radius)
        for new_id, center in enumerate(sol.phi):
            phi[old_ids[new_id]] = old_ids[center]
        for center, mult in sol.centers.items():
            old = old_ids[center]
            centers[old] = centers.get(old, 0) + mult

    solution = Solution(k=inst.k, radius=inst.reach(phi), centers=centers, phi=phi)
    if soft:
        solution.centers[min(centers)] += inst.k - spent
    else:
        open_unused(solution, inst.k)
    return solution, hop_radius, "".join(sections)


def _validate(inst, solution, soft):
    validate_solution(inst.scaled, inst.capacities, inst.k, solution, soft, inst.scale)


def _emit_solution(solution, certificate, args, report):
    """Write the certificate and solution files, then print the report.

    Nothing reaches stdout unless every file was written; without -o the
    solution follows the report there.
    """
    if args.emit_certificate:
        write_text(args.emit_certificate, certificate)
    if args.output:
        write_solution(solution, args.output)
    for line in report:
        _print(line)
    if not args.output:
        sys.stdout.write(format_solution(solution))


def _dump_lp(inst, r, soft, path):
    """Write the whole-instance LP1 at radius r to path, if one is given."""
    if path:
        g = threshold_graph(inst, r)
        write_lp_dump(build_lp1(g, list(inst.capacities), inst.k, soft=soft), path)


def _cmd_solve(args):
    inst = read_instance(args.instance)
    mode = args.mode or inst.mode

    if mode == "exact":
        found = exact_opt(inst)
        if found is None:
            _print("status: infeasible")
            _print("reason: no center set serves every client at any radius")
            return 2
        radius, solution = found
        _validate(inst, solution, inst.mode == SOFT)
        report = ["status: solved", f"radius: {format_rational(radius)}", "method: exact"]
        _emit_solution(solution, "", args, report)
        return 0

    soft = mode == SOFT
    if not soft and inst.k > inst.vertex_count:
        _print("status: infeasible")
        _print(
            f"reason: k = {inst.k} exceeds the {inst.vertex_count} vertices"
            " available for distinct centers"
        )
        return 2

    radii = candidate_radii(inst)
    for r in radii:
        plan = _plan(inst, r, soft, r == radii[-1])
        if plan is None:
            continue
        found = [f for *_, f in plan]
        if None in found or sum(budget for budget, _ in found) > inst.k:
            continue

        solution, hops, certificate = _stitch(inst, plan, soft)
        if args.max_stretch_assert is not None and hops > args.max_stretch_assert:
            raise CapkcError(
                f"stretch assertion failed: {hops} hops"
                f" > {args.max_stretch_assert}"
            )
        _validate(inst, solution, soft)
        _dump_lp(inst, r, soft, args.emit_lp_dump)
        report = [
            "status: solved",
            f"threshold: {format_rational(r)}",
            f"stretch: {hops}",
            f"radius: {format_rational(solution.radius)}",
        ]
        if args.seed is not None:
            report.append(f"seed: {args.seed}")
        _emit_solution(solution, certificate, args, report)
        return 0

    _dump_lp(inst, r, soft, args.emit_lp_dump)  # the largest radius
    _print("status: infeasible")
    _print(f"k: {inst.k}")
    _print("at the largest radius the relaxation still needs:")
    for _, old_ids, _, _, found in plan:
        if found is not None:
            _print(f"  component of {old_ids[0]}: needs {_centers(found[0])}")
    for _, old_ids, _, k_cap, found in plan:
        if found is None:
            _print(
                f"  component of {old_ids[0]}: relaxation infeasible"
                f" for every budget up to {k_cap}"
            )
    return 2


def _centers(count):
    return "1 center" if count == 1 else f"{count} centers"


def _cmd_verify(args):
    inst = read_instance(args.instance)
    solution = read_solution(args.solution)
    try:
        _validate(inst, solution, (args.mode or inst.mode) == SOFT)
    except ValidationError as exc:
        _print(f"invalid: {exc}")
        return 2
    _print(
        f"valid: {_centers(solution.open_count())} within radius"
        f" {format_rational(solution.radius)}"
    )
    return 0


def _write_or_print_instance(inst, out):
    if out:
        write_text(out, format_instance(inst))
    else:
        sys.stdout.write(format_instance(inst))


def _cmd_gen(args):
    if args.witness_out and args.family not in ("fig1", "gap"):
        raise InputError(f"family {args.family} has no witness to write")
    if args.family == "fig1":
        inst, witness = gen_fig1()
    elif args.family == "gap":
        inst, witness = gen_gap_construction(args.k, nonuniform=args.nonuniform)
    elif args.family == "x3c":
        universe = [s for s in args.universe.split(",") if s]
        sets = [
            tuple(part.split(","))
            for part in args.sets.split(";")
            if part
        ]
        inst = gen_x3c(sets, universe)
    else:
        inst = gen_random_connected(
            args.n,
            args.density,
            (args.cap_lo, args.cap_hi),
            args.k,
            args.seed,
            mode=args.mode,
        )
    # the witness first: nothing reaches stdout unless every file was written
    if args.witness_out:
        write_assignment(witness, args.witness_out)
    _write_or_print_instance(inst, args.out)
    return 0


def _cmd_oracle(args):
    inst = read_instance(args.instance)
    if args.radius is not None:
        try:
            radius = parse_rational(args.radius)
        except ValueError as exc:
            raise InputError(f"bad --radius value: {exc}") from exc
        solution = feasible_at(inst, radius, args.mode)
        if solution is None:
            _print(f"infeasible at radius {args.radius}")
            return 2
        sys.stdout.write(format_solution(solution))
        return 0
    found = exact_opt(inst, args.mode)
    if found is None:
        _print("infeasible at every radius")
        return 2
    radius, solution = found
    _print(f"radius: {format_rational(radius)}")
    sys.stdout.write(format_solution(solution))
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors (exit 3)."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


@functools.cache
def build_parser():
    """The capkc argument parser, built on first use and then reused."""
    parser = _Parser(
        prog="capkc",
        description="capacitated k-center solver toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("instance")
    solve.add_argument("--mode", choices=[HARD, SOFT, "exact"], default=None)
    solve.add_argument("--output", "-o", default=None, help="solution file")
    solve.add_argument("--emit-certificate", default=None, metavar="PATH")
    solve.add_argument("--emit-lp-dump", default=None, metavar="PATH")
    solve.add_argument(
        "--seed",
        type=parse_int,
        default=None,
        help="recorded in the report; the pipeline itself is deterministic",
    )
    solve.add_argument("--max-stretch-assert", type=parse_int, default=None)
    solve.set_defaults(func=_cmd_solve)

    verify = sub.add_parser("verify", help="validate a solution file")
    verify.add_argument("instance")
    verify.add_argument("solution")
    verify.add_argument(
        "--mode",
        choices=[HARD, SOFT],
        default=None,
        help="check in this mode instead of the instance's own",
    )
    verify.set_defaults(func=_cmd_verify)

    gen = sub.add_parser("gen", help="generate a built-in instance")
    fam = gen.add_subparsers(dest="family", required=True)

    fig1 = fam.add_parser("fig1")
    gap = fam.add_parser("gap")
    gap.add_argument("--k", type=parse_int, required=True)
    gap.add_argument("--nonuniform", action="store_true")
    x3c = fam.add_parser("x3c")
    x3c.add_argument("--universe", required=True, help="comma-separated labels")
    x3c.add_argument("--sets", required=True, help="semicolon-separated triples")
    rnd = fam.add_parser("random")
    rnd.add_argument("--n", type=parse_int, required=True)
    rnd.add_argument("--density", type=float, default=0.5)
    rnd.add_argument("--cap-lo", type=parse_int, default=1)
    rnd.add_argument("--cap-hi", type=parse_int, default=4)
    rnd.add_argument("--k", type=parse_int, required=True)
    rnd.add_argument("--seed", type=parse_int, default=0)
    rnd.add_argument("--mode", choices=[HARD, SOFT], default=HARD)
    for p in (fig1, gap, x3c, rnd):
        p.add_argument("--out", default=None)
        p.add_argument("--witness-out", default=None)
        p.set_defaults(func=_cmd_gen)

    oracle = sub.add_parser("oracle", help="query the brute-force solver")
    oracle.add_argument("instance")
    oracle.add_argument("--radius", default=None)
    oracle.add_argument("--mode", choices=[HARD, SOFT], default=None)
    oracle.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CapkcError as exc:
        # pipeline and validation failures are bugs or broken assertions,
        # not bad input; surface them distinctly
        print(f"failure: {exc}", file=sys.stderr)
        return 1
