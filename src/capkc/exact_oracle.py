"""Brute-force exact solver used as ground truth in tests.

Enumerates center sets in lexicographic order (k-subsets of the
positive-capacity vertices for hard capacities, k-multisets for soft)
and checks each with one bipartite seat flow at the queried distance.
Two necessary conditions rule a set out before its flow is built: every
client lies within the cutoff of some chosen center, and the chosen
centers offer at least n seats (Hall's condition on each single client
and on the whole client set).  Coverage is an OR of per-candidate int
bitmasks.  The enumeration also skips every set under a prefix that,
together with all later candidates, cannot cover every client.  Neither
test can reject a feasible set, and the surviving sets keep their
lexicographic order, so the first feasible set is the same as without
them.  Deliberately simple and exact.

It refuses an instance whose work bound, the number of candidate sets
times the n clients, exceeds ENUMERATION_LIMIT = ten million: every set
that survives both tests costs one seat flow, which reads the n entries
of each chosen center's row to group the clients before its flow runs
on the client classes.  The
277-vertex hub-sparse benchmark instance (25 positive-capacity vertices,
k = 18) has C(25, 18) = 480,700 sets, about 1.3e8 set-client pairs, so
it is refused at once; counting sets alone let it run for more than four
minutes without finishing.
"""

import math
from itertools import groupby

from .errors import InputError
from .graph_core import HARD, SOFT, candidate_radii
from .x_rounding import Solution, open_unused, seat_flow

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
    centers = {}
    for u, mult in opened:
        centers[u] = centers.get(u, 0) + mult
    return Solution(
        k=sum(m for _, m in opened),
        radius=inst.reach(phi),
        centers=centers,
        phi=tuple(phi),
    )


def _refuse_beyond_limit(count, n):
    if count * n > ENUMERATION_LIMIT:
        raise InputError(
            f"exact search would enumerate {count} center sets for {n} clients;"
            f" refusing beyond {ENUMERATION_LIMIT} set-client pairs"
        )


def _covering_sets(masks, seats, size, step, full, need):
    """Covering center sets of `size` candidate indices, in lexicographic order.

    Yields the index tuples that cover every client and offer at least
    `need` seats.  masks[i] is the client bitmask of candidate i and
    seats[i] its capacity; a set covers when the OR of its masks is
    `full`.  step 1 draws strictly increasing indices (subsets), step 0
    lets an index repeat (multisets).  A prefix whose cover, ORed with every mask from
    its next index on, still misses a client has no covering set below
    it, so the walk backs out of it; the suffix ORs only shrink as the
    next index grows, so its later siblings are skipped too.
    """
    m = len(masks)
    suffix = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] | masks[i]
    picks, covers = [], [0]
    i = 0
    while True:
        t = len(picks)
        if t == size:
            if covers[t] == full and sum(seats[j] for j in picks) >= need:
                yield tuple(picks)
        elif i <= m - 1 - step * (size - t - 1) and covers[t] | suffix[i] == full:
            picks.append(i)
            covers.append(covers[t] | masks[i])
            i += step
            continue
        if not picks:
            return
        i = picks.pop() + 1
        covers.pop()


def feasible_at(inst, d, mode=None):
    """First center set (lexicographic) serving everyone at distance d.

    Returns a Solution or None.  Hard mode enumerates k-subsets of the
    positive-capacity vertices, topping the set up to exactly k with
    unused vertices that simply carry no load; soft mode enumerates
    k-multisets.  Only sets that cover every client and offer n seats
    reach the seat flow.  A negative distance is refused with InputError.
    """
    mode = inst.mode if mode is None else mode
    if mode not in (HARD, SOFT):
        raise InputError(f"unknown mode {mode!r}")
    if d < 0:
        raise InputError("radius must be >= 0")
    n = inst.vertex_count
    k = inst.k
    candidates = [v for v in range(n) if inst.capacities[v] > 0]
    cutoff = inst.cutoff(d)

    if mode == HARD:
        if k > n:
            return None
        size = min(k, len(candidates))
        _refuse_beyond_limit(math.comb(len(candidates), size), n)
    else:
        if not candidates:
            return None
        size = k
        _refuse_beyond_limit(math.comb(len(candidates) + k - 1, k), n)
    # client v is within reach of u iff scaled[u][v] <= cutoff, as in seat_flow
    masks = [
        sum(1 << v for v, dist in enumerate(inst.scaled[u]) if dist <= cutoff)
        for u in candidates
    ]
    seats = [inst.capacities[u] for u in candidates]
    step = 1 if mode == HARD else 0
    for picks in _covering_sets(masks, seats, size, step, (1 << n) - 1, n):
        opened = [(candidates[i], len(list(copies))) for i, copies in groupby(picks)]
        sol = _solution_from_flow(inst, opened, cutoff)
        if sol is None:
            continue
        open_unused(sol, k)  # a hard set smaller than k opens unused vertices
        return sol
    return None


def exact_opt(inst, mode=None):
    """Minimal radius with a feasible center set, or None when there is none.

    Feasibility is monotone in the radius, so a binary search over the
    candidate radii (the pairwise distances, zero included) finds the
    leftmost feasible one.  The top radius is probed first; when it is
    feasible its solution stands until a smaller radius beats it.
    """
    radii = candidate_radii(inst)
    top = feasible_at(inst, radii[-1], mode)
    if top is None:
        return None
    best = (radii[-1], top)
    lo, hi = 0, len(radii) - 2
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
