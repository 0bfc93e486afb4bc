"""Turn an integral opening vector into a concrete center/client solution.

Once every y value is 0 or 1, assigning clients to open centers is a
bipartite b-matching: each open center offers as many seats as its
capacity, each client takes exactly one seat at a center within the
allowed hop radius.  A maximum flow that saturates all clients always
exists when the fractional assignment was feasible at the same radius,
so anything short of that is an upstream bug, not bad input.

The soft solver and the exact oracle end with the same b-matching, so
seat_flow is the one place that lays it out, and reads the seating off
the flows of flownet.bipartite_flow, which also builds the LP's separation
flow.  The module also owns the Solution record, the hard-mode top-up to
k centers (open_unused), its independent validator, and the solution text
format shared by the soft solver, the exact oracle and the command line
tools.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError, PipelineError, ValidationError
from .flownet import bipartite_flow
from .graph_core import INF
from .rational import (
    format_rational, parse_int, parse_rational, read_text, records, write_text
)

__all__ = [
    "Solution",
    "open_unused",
    "seat_flow",
    "round_x",
    "validate_solution",
    "format_solution",
    "parse_solution_text",
    "write_solution",
    "read_solution",
]


@dataclass
class Solution:
    """Opened centers plus a full client assignment.

    centers maps a vertex to its multiplicity: always 1 in hard mode,
    possibly larger in soft mode.  phi[v] is the center vertex serving
    client v.  radius bounds dist(v, phi[v]) for every client; it is a
    hop count when produced against an unweighted graph and an exact
    rational when expressed in a weighted metric.
    """

    k: int
    radius: object
    centers: dict = field(default_factory=dict)
    phi: tuple = ()

    def __post_init__(self):
        self.centers = dict(self.centers)
        self.phi = tuple(self.phi)

    def open_count(self):
        """Number of opened centers counted with multiplicity."""
        return sum(self.centers.values())

    def loads(self):
        """Client count per center, recomputed from phi."""
        out = {u: 0 for u in self.centers}
        for u in self.phi:
            out[u] = out.get(u, 0) + 1
        return out


def open_unused(solution, k):
    """Top a hard-mode solution up to k centers with unused, unloaded vertices.

    Opens the lowest-id vertices that are not yet centers, once each,
    and relabels the solution with k.  Raises InputError when too few
    vertices are left.
    """
    n = len(solution.phi)
    spare = k - solution.open_count()
    free = [v for v in range(n) if v not in solution.centers][:spare]
    if len(free) < spare:
        raise InputError(f"cannot open {k} distinct centers on {n} vertices")
    for v in free:
        solution.centers[v] = 1
    solution.k = k


def validate_solution(dist, capacities, k, solution, soft=False, scale=1):
    """Re-derive every promise a Solution makes and raise on the first lie.

    dist is an int table of pairwise distances times scale, INF where
    unreachable: hop rows from Graph.hop_distances (scale 1) or an
    instance's scaled metric with its scale.  Client v is within the
    radius r of center u iff dist[u][v] <= floor(r * scale), one int
    comparison.  Loads are recounted from phi rather than trusted.
    Raises ValidationError.
    """
    n = len(capacities)
    if solution.k != k:
        raise ValidationError(
            f"solution: labeled k = {solution.k}, expected {k}"
        )
    if solution.open_count() != k:
        raise ValidationError(
            f"solution: opens {solution.open_count()} centers, expected {k}"
        )
    for u, mult in solution.centers.items():
        if not 0 <= u < n:
            raise ValidationError(f"solution: center {u} out of range")
        if mult < 1:
            raise ValidationError(
                f"solution: center {u} has multiplicity {mult}"
            )
        if not soft and mult != 1:
            raise ValidationError(
                f"solution: hard mode cannot open {mult} centers at {u}"
            )
    if len(solution.phi) != n:
        raise ValidationError(
            f"solution: assigns {len(solution.phi)} clients, expected {n}"
        )
    radius = Fraction(solution.radius)
    if radius < 0:
        raise ValidationError("solution: negative radius")
    cutoff = radius.numerator * scale // radius.denominator
    loads = {u: 0 for u in solution.centers}
    for v, u in enumerate(solution.phi):
        if u not in loads:
            raise ValidationError(
                f"solution: client {v} assigned to closed vertex {u}"
            )
        loads[u] += 1
        d = dist[u][v]
        if d > cutoff:
            shown = d if d == INF else Fraction(d, scale)
            raise ValidationError(
                f"solution: client {v} sits at distance {shown} from center {u},"
                f" beyond the radius {format_rational(radius)}"
            )
    for u, mult in solution.centers.items():
        room = capacities[u] * mult
        if loads[u] > room:
            raise ValidationError(
                f"solution: center {u} carries {loads[u]} clients"
                f" but fits {room}"
            )


def seat_flow(dist, bound, offers):
    """Seat every client at an offered center within `bound`, by one max flow.

    dist is any table indexable by center with len n: Graph's hop table
    (rows built on first read, so only the offered centers' rows are) or
    an instance's scaled metric.  offers lists (center, seats); client v
    may sit at center u iff dist[u][v] <= bound, which INF never is.  The
    network is flownet.bipartite_flow's, with seats as each offer's
    supply and unit arcs to the clients and the sink.  Returns (seated,
    phi): the flow value, and phi[v] the one center with flow to client
    v, or None when some client stays unseated.
    """
    n = len(dist)
    seated, flows, _ = bipartite_flow(n, [
        (seats, [v for v, d in enumerate(dist[u]) if d <= bound], 1)
        for u, seats in offers
    ], 1)
    if flows is None:
        return seated, None
    phi = [-1] * n
    for (u, _), pairs in zip(offers, flows):
        for v, _ in pairs:
            phi[v] = u
    return seated, phi


def round_x(graph, capacities, assignment, delta):
    """Assign every client to an open center within `delta` hops.

    The opening vector must already be 0/1.  Each open center offers
    capacity L many seats in one seat_flow.  A flow below the client
    count means the caller handed over an opening vector that was never
    delta-feasible, which the rounding pipeline rules out; that case
    raises PipelineError.
    """
    n = graph.vertex_count
    centers = []
    for v in range(n):
        y = assignment.y[v]
        if y.denominator != 1 or y < 0:
            raise ValidationError(
                f"client assignment needs integral openings, got y[{v}] = "
                f"{format_rational(y)}"
            )
        if y > 1:
            raise ValidationError(f"hard mode cannot open {y} centers at {v}")
        if y == 1:
            centers.append(v)

    hops = graph.hop_distances()
    seated, phi = seat_flow(hops, delta, [(u, capacities[u]) for u in centers])
    if phi is None:
        raise PipelineError(
            f"client flow placed {seated} of {n} clients at radius {delta};"
            " the opening vector was not feasible there"
        )
    reach = max(hops[phi[v]][v] for v in range(n))
    return Solution(
        k=len(centers),
        radius=reach,
        centers=dict.fromkeys(centers, 1),
        phi=tuple(phi),
    )


def format_solution(solution):
    lines = [f"solution {solution.k} {format_rational(solution.radius)}"]
    for u in sorted(solution.centers):
        lines.append(f"center {u} {solution.centers[u]}")
    for v, u in enumerate(solution.phi):
        lines.append(f"assign {v} {u}")
    return "\n".join(lines) + "\n"


def parse_solution_text(text):
    """Parse the solution format; InputError messages carry line numbers."""
    k = None
    radius = None
    centers = {}
    assigns = {}
    for lineno, parts in records(text):
        tag = parts[0]
        try:
            if tag == "solution":
                if k is not None:
                    raise InputError(f"line {lineno}: repeated solution header")
                if len(parts) != 3:
                    raise InputError(
                        f"line {lineno}: expected 'solution <k> <radius>'"
                    )
                k = parse_int(parts[1])
                radius = parse_rational(parts[2])
            elif tag == "center":
                if len(parts) != 3:
                    raise InputError(
                        f"line {lineno}: expected 'center <vertex> <multiplicity>'"
                    )
                u, mult = parse_int(parts[1]), parse_int(parts[2])
                if u in centers:
                    raise InputError(f"line {lineno}: center {u} repeats")
                centers[u] = mult
            elif tag == "assign":
                if len(parts) != 3:
                    raise InputError(
                        f"line {lineno}: expected 'assign <client> <center>'"
                    )
                v, u = parse_int(parts[1]), parse_int(parts[2])
                if v in assigns:
                    raise InputError(f"line {lineno}: client {v} repeats")
                assigns[v] = u
            else:
                raise InputError(f"line {lineno}: unknown directive '{tag}'")
        except ValueError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
    if k is None:
        raise InputError("missing 'solution' header line")
    if sorted(assigns) != list(range(len(assigns))):
        missing = next(i for i in range(len(assigns) + 1) if i not in assigns)
        raise InputError(f"assign lines skip client {missing}")
    phi = tuple(assigns[v] for v in range(len(assigns)))
    if radius.denominator == 1:
        radius = int(radius)
    return Solution(k=k, radius=radius, centers=centers, phi=phi)


def write_solution(solution, path):
    write_text(path, format_solution(solution))


def read_solution(path):
    return parse_solution_text(read_text(path, "solution"))
