"""Brute-force exact solver used as ground truth in tests.

Enumerates center sets in lexicographic order (k-subsets of the
positive-capacity vertices for hard capacities, k-multisets for soft)
and checks each with one bipartite seat flow at the queried distance.
Deliberately simple and exact; refuses instances whose enumeration
would exceed ten million candidate sets.
"""

import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from .errors import InputError
from .graph_core import HARD, SOFT, candidate_radii
from .x_rounding import Solution, seat_flow

__all__ = ["feasible_at", "exact_opt", "ENUMERATION_LIMIT"]

ENUMERATION_LIMIT = 10**7


def _solution_from_flow(inst, opened, cutoff):
    """Try to serve every vertex from `opened` within the scaled cutoff.

    opened is a list of (vertex, multiplicity); cutoff is inst.cutoff(d)
    for the queried distance d.  Returns the decoded
    Solution or None when the seat flow cannot place all clients.
    """
    _, phi = seat_flow(
        inst.scaled, cutoff, [(u, inst.capacities[u] * mult) for u, mult in opened]
    )
    if phi is None:
        return None
    reach = Fraction(max(inst.scaled[u][v] for v, u in enumerate(phi)), inst.scale)
    if reach.denominator == 1:
        reach = int(reach)
    centers = {}
    for u, mult in opened:
        centers[u] = centers.get(u, 0) + mult
    return Solution(
        k=sum(m for _, m in opened),
        radius=reach,
        centers=centers,
        phi=tuple(phi),
    )


def _refuse_beyond_limit(count):
    if count > ENUMERATION_LIMIT:
        raise InputError(
            f"exact search would enumerate {count} center sets;"
            f" refusing beyond {ENUMERATION_LIMIT}"
        )


def feasible_at(inst, d, mode=None):
    """First center set (lexicographic) serving everyone at distance d.

    Returns a Solution or None.  Hard mode enumerates k-subsets of the
    positive-capacity vertices, topping the set up to exactly k with
    unused vertices that simply carry no load; soft mode enumerates
    k-multisets.
    """
    mode = inst.mode if mode is None else mode
    if mode not in (HARD, SOFT):
        raise InputError(f"unknown mode {mode!r}")
    n = inst.vertex_count
    k = inst.k
    candidates = [v for v in range(n) if inst.capacities[v] > 0]
    cutoff = inst.cutoff(d)

    if mode == HARD:
        if k > n:
            return None
        size = min(k, len(candidates))
        _refuse_beyond_limit(math.comb(len(candidates), size))
        for chosen in combinations(candidates, size):
            sol = _solution_from_flow(inst, [(u, 1) for u in chosen], cutoff)
            if sol is None:
                continue
            taken = set(chosen)
            pad = [v for v in range(n) if v not in taken][: k - size]
            for v in pad:
                sol.centers[v] = 1
            sol.k = k
            return sol
        return None

    if not candidates:
        return None
    _refuse_beyond_limit(math.comb(len(candidates) + k - 1, k))
    for chosen in combinations_with_replacement(candidates, k):
        opened = []
        for u in chosen:
            if opened and opened[-1][0] == u:
                opened[-1] = (u, opened[-1][1] + 1)
            else:
                opened.append((u, 1))
        sol = _solution_from_flow(inst, opened, cutoff)
        if sol is not None:
            return sol
    return None


def exact_opt(inst, mode=None):
    """Minimal radius with a feasible center set, or None when there is none.

    Feasibility is monotone in the radius, so a binary search over the
    candidate radii (the pairwise distances, plus zero) finds the
    leftmost feasible one.
    """
    radii = [Fraction(0)]
    radii.extend(r for r in candidate_radii(inst) if r != 0)
    lo, hi = 0, len(radii) - 1
    if feasible_at(inst, radii[hi], mode) is None:
        return None
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        sol = feasible_at(inst, radii[mid], mode)
        if sol is None:
            lo = mid + 1
        else:
            best = (radii[mid], sol)
            hi = mid - 1
    radius, sol = best
    if radius.denominator == 1:
        radius = int(radius)
    return radius, sol
