"""Infeasibility witnesses for uniform capacities.

With a uniform capacity L, a set V0 of pairwise far-apart vertices gives
a checkable reason why no fractional opening of k centers can serve
everyone at distance 1: the closed neighborhoods of V0 are disjoint and
each must hold a full unit of opening mass, while the vertices that are
far from all of V0 need at least 1/L of mass per head from elsewhere.
If those two demands together exceed k, the relaxation is infeasible.
The verifier checks exactly that inequality; a small greedy searcher
produces candidate sets for test data but carries no guarantee.
"""

from fractions import Fraction

from .errors import InputError
from .graph_core import INF
from .rational import parse_int, read_text, records, write_text

__all__ = [
    "verify_uniform_witness",
    "greedy_witness_search",
    "format_witness",
    "parse_witness_text",
    "write_witness",
    "read_witness",
]

# Vertices at hop distance >= _FAR from every V0 member count as remote;
# V0 itself must be pairwise >= _FAR apart so the unit balls are disjoint.
_FAR = 3


def verify_uniform_witness(graph, capacity, k, core):
    """Check whether core certifies that k centers cannot suffice.

    Returns False when the set is not pairwise far apart or the counting
    bound does not clear k; never raises on a bad candidate.  An empty
    core is legal and reduces the bound to |V| / L.
    """
    if capacity < 1:
        raise InputError(f"uniform capacity must be at least 1, got {capacity}")
    n = graph.vertex_count
    core = sorted(set(core))
    if any(not 0 <= u < n for u in core):
        raise InputError("witness names a vertex outside the graph")
    hops = graph.hop_distances()
    for i, u in enumerate(core):
        for w in core[i + 1 :]:
            if hops[u][w] != INF and hops[u][w] < _FAR:
                return False
    remote = sum(
        1 for v in range(n) if all(hops[u][v] == INF or hops[u][v] >= _FAR for u in core)
    )
    return len(core) + Fraction(remote, capacity) > k


def greedy_witness_search(graph, capacity, k):
    """Try to find a certifying core by farthest-point insertion.

    Seeds on each vertex in turn, repeatedly adds the vertex that
    maximizes the hop distance to the current core while staying at
    least 3 away from all of it, and keeps the first core (including
    prefixes) that verifies.  Returns that core as a sorted tuple, the
    form verify_uniform_witness and the witness file take; () is a valid
    core, so test the result against None.  Heuristic only: None means
    the search failed, which proves nothing.
    """
    n = graph.vertex_count
    hops = graph.hop_distances()
    if verify_uniform_witness(graph, capacity, k, ()):
        return ()
    for seed in range(n):
        core = [seed]
        while True:
            if verify_uniform_witness(graph, capacity, k, core):
                return tuple(sorted(core))
            best = None
            for v in range(n):
                gap = min(
                    (hops[u][v] for u in core),
                    key=lambda d: n + 1 if d == INF else d,
                )
                if gap != INF and gap < _FAR:
                    continue
                rank = n + 1 if gap == INF else gap
                if best is None or rank > best[0]:
                    best = (rank, v)
            if best is None:
                break
            core.append(best[1])
    return None


def format_witness(core):
    lines = ["witness"]
    for u in sorted(core):
        lines.append(f"v {u}")
    return "\n".join(lines) + "\n"


def parse_witness_text(text):
    core = []
    seen_header = False
    for lineno, parts in records(text):
        if parts[0] == "witness":
            if seen_header:
                raise InputError(f"line {lineno}: repeated witness header")
            seen_header = True
        elif parts[0] == "v":
            if not seen_header:
                raise InputError(f"line {lineno}: vertex before witness header")
            if len(parts) != 2:
                raise InputError(f"line {lineno}: expected 'v <id>'")
            try:
                core.append(parse_int(parts[1]))
            except ValueError as exc:
                raise InputError(f"line {lineno}: {exc}") from exc
        else:
            raise InputError(f"line {lineno}: unknown directive '{parts[0]}'")
    if not seen_header:
        raise InputError("missing 'witness' header line")
    return tuple(sorted(set(core)))


def write_witness(core, path):
    write_text(path, format_witness(core))


def read_witness(path):
    return parse_witness_text(read_text(path, "witness"))
