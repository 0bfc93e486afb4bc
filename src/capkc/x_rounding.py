"""Turn an integral opening vector into a concrete center/client solution.

Once every y value is a nonnegative integer, assigning clients to open
centers is a bipartite b-matching: each center vertex offers capacity
times multiplicity many seats, each client takes exactly one seat at a
center within the allowed hop radius.  A maximum flow that saturates all
clients always exists when the fractional assignment was feasible at the
same radius, so anything short of that is an upstream bug, not bad input.

The soft solver and the exact oracle end with the same b-matching, so
seat_flow is the one builder of that network.  The module also owns the
Solution record, its independent validator, and the solution text format
shared by the soft solver, the exact oracle and the command line tools.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError, PipelineError, ValidationError
from .flownet import MaxFlowNetwork
from .graph_core import SOFT
from .rational import format_rational, parse_rational

__all__ = [
    "Solution",
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
    rational when expressed in a weighted metric.  trace optionally
    carries the replayable certificate of the rounding run that produced
    the solution.
    """

    k: int
    radius: object
    centers: dict = field(default_factory=dict)
    phi: tuple = ()
    trace: str = ""

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


def validate_solution(dist, capacities, k, solution, soft=False):
    """Re-derive every promise a Solution makes and raise on the first lie.

    dist is any matrix-like table of pairwise distances (hop rows from
    Graph.hop_distances or the exact metric of an instance); loads are
    recounted from phi rather than trusted.  Raises ValidationError.
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
    loads = {u: 0 for u in solution.centers}
    for v, u in enumerate(solution.phi):
        if u not in loads:
            raise ValidationError(
                f"solution: client {v} assigned to closed vertex {u}"
            )
        loads[u] += 1
        d = dist[u][v]
        if d > radius:
            raise ValidationError(
                f"solution: client {v} sits at distance {d} from center {u},"
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

    offers lists (center, seats); client v may sit at center u iff
    dist[u][v] <= bound, which INF never is.  The network is source ->
    offer (seats) -> client -> sink, its arcs added in offer order, then
    client order.  Returns (seated, phi): the flow value, and phi[v] the
    center seating client v, or None when some client stays unseated.
    """
    n = len(dist)
    # Node layout: 0 source, 1..len(offers) offers, then clients, then sink.
    base = 1 + len(offers)
    sink = base + n
    net = MaxFlowNetwork(sink + 1)
    seat_arcs = []
    for i, (u, seats) in enumerate(offers):
        net.add_edge(0, 1 + i, seats)
        row = dist[u]
        for v in range(n):
            if row[v] <= bound:
                seat_arcs.append((u, v, net.add_edge(1 + i, base + v, 1)))
    for v in range(n):
        net.add_edge(base + v, sink, 1)
    seated = net.max_flow(0, sink)
    if seated < n:
        return seated, None
    phi = [-1] * n
    for u, v, arc in seat_arcs:
        if net.flow_on(arc) > 0:
            phi[v] = u
    return seated, phi


def round_x(graph, capacities, assignment, delta):
    """Assign every client to an open center within `delta` hops.

    The opening vector must already be integral (0/1 in hard mode,
    any nonnegative integers in soft mode).  Each open center offers
    capacity L times multiplicity seats in one seat_flow.  A flow below
    the client count means the caller handed over an opening vector that
    was never delta-feasible, which the rounding pipeline rules out; that
    case raises PipelineError.
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
        mult = int(y)
        if mult == 0:
            continue
        if assignment.mode != SOFT and mult > 1:
            raise ValidationError(
                f"hard mode cannot open {mult} centers at {v}"
            )
        centers.append((v, mult))

    hops = graph.hop_distances()
    seated, phi = seat_flow(
        hops, delta, [(u, capacities[u] * mult) for u, mult in centers]
    )
    if phi is None:
        raise PipelineError(
            f"client flow placed {seated} of {n} clients at radius {delta};"
            " the opening vector was not feasible there"
        )
    reach = max(hops[phi[v]][v] for v in range(n))
    return Solution(
        k=sum(mult for _, mult in centers),
        radius=reach,
        centers={u: mult for u, mult in centers},
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        try:
            if tag == "solution":
                if k is not None:
                    raise InputError(f"line {lineno}: repeated solution header")
                if len(parts) != 3:
                    raise InputError(
                        f"line {lineno}: expected 'solution <k> <radius>'"
                    )
                k = int(parts[1])
                radius = parse_rational(parts[2])
            elif tag == "center":
                if len(parts) != 3:
                    raise InputError(
                        f"line {lineno}: expected 'center <vertex> <multiplicity>'"
                    )
                u, mult = int(parts[1]), int(parts[2])
                if u in centers:
                    raise InputError(f"line {lineno}: center {u} repeats")
                centers[u] = mult
            elif tag == "assign":
                if len(parts) != 3:
                    raise InputError(
                        f"line {lineno}: expected 'assign <client> <center>'"
                    )
                v, u = int(parts[1]), int(parts[2])
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
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_solution(solution))


def read_solution(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            return parse_solution_text(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read solution file {path}: {exc}") from exc
