"""The fractional (x, y) state threaded through rounding, plus radius bookkeeping.

x is sparse: only strictly positive entries are stored, keyed center ->
client class.  A class is a set of clients that get equal x from every
center.  classes maps each class of two or more clients, keyed by its
first (least) member, to its members in ascending order; every other
client is a class of its own, keyed by itself.  So x[u][c] is the x value
that each member of class c gets from u, and an Assignment built client
by client, with no classes, is keyed center -> client.
solve_feasibility keys its LP point by the cut loop's client classes, the
clients that reach the same centers: 25 entries over 13 classes instead
of 541 client entries on the hub-sparse benchmark input, and 213 over 97
instead of 238 on the hub-dense one.  The y-moves of shifting.py move x
in proportion to y, so x that is equal across a class stays equal across
it, and the class key holds through the y-rounding.  x_items,
dump_assignment and copy give the client view.

All values are exact rationals.  Mutation happens through set_x/add_x so the
positivity invariant can't silently break.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError, PipelineError
from .graph_core import INF
from .rational import (
    format_rational, parse_int, parse_rational, records, write_text
)

__all__ = [
    "Assignment",
    "radius_of",
    "global_delta",
    "dump_assignment",
    "write_assignment",
    "parse_assignment_text",
]


class Assignment:
    __slots__ = ("y", "x", "classes")

    def __init__(self, vertex_count, y=None, classes=None):
        if y is None:
            self.y = [Fraction(0)] * vertex_count
        else:
            if len(y) != vertex_count:
                raise InputError("y length mismatch")
            self.y = [Fraction(q) for q in y]
        # center -> {class key: positive rational}
        self.x = {}
        # class key -> its members, for each class of two or more clients
        self.classes = {} if classes is None else classes

    @property
    def vertex_count(self):
        return len(self.y)

    def get_x(self, u, c):
        row = self.x.get(u)
        if row is None:
            return Fraction(0)
        return row.get(c, Fraction(0))

    def x_row(self, u):
        """Live view of center u's row, keyed by class; treat as read-only."""
        return self.x.get(u, {})

    def set_x(self, u, c, value):
        if value < 0:
            raise PipelineError(f"x[{u},{c}] would become negative ({value})")
        row = self.x.get(u)
        if value == 0:
            if row is not None:
                row.pop(c, None)
                if not row:
                    del self.x[u]
            return
        if row is None:
            row = self.x[u] = {}
        row[c] = value

    def add_x(self, u, c, delta):
        self.set_x(u, c, self.get_x(u, c) + delta)

    def _client_row(self, row):
        """A new dict of row over clients: each class's value on each member."""
        classes = self.classes
        if not classes:
            return dict(row)
        return {v: q for c, q in row.items() for v in classes.get(c, (c,))}

    def x_items(self):
        """All positive client entries as (u, v, value), sorted for determinism."""
        for u in sorted(self.x):
            row = self._client_row(self.x[u])
            for v in sorted(row):
                yield u, v, row[v]

    def sum_y(self):
        # most y entries of a rounded vector are 0: adding them costs a
        # Fraction operation each and changes nothing
        return sum((q for q in self.y if q), Fraction(0))

    def copy(self):
        """The client view: a deep copy keyed center -> client, with no classes."""
        dup = Assignment(self.vertex_count, self.y)
        dup.x = {u: self._client_row(row) for u, row in self.x.items()}
        return dup

    def __repr__(self):
        nx = sum(len(r) for r in self.x.values())
        return f"Assignment(n={self.vertex_count}, |x|={nx})"


def radius_of(assignment, graph, u):
    """Hop distance to the farthest client fractionally served by u; 0 if none.

    A class entry reaches every member of its class.
    """
    row = assignment.x.get(u)
    if not row:
        return 0
    hops = graph.hop_distances()[u]
    r = 0
    for v in row:
        d = hops[v]
        if d > r:
            r = d
    classes = assignment.classes
    if classes:
        for c in classes.keys() & row.keys():
            r = max(r, max(map(hops.__getitem__, classes[c])))
    if r == INF:
        v = next(v for v in assignment._client_row(row) if hops[v] == INF)
        raise PipelineError(f"x[{u},{v}] > 0 across components")
    return r


def global_delta(assignment, graph):
    """Max radius over all centers; the solution is feasible on G^delta."""
    return max((radius_of(assignment, graph, u) for u in assignment.x), default=0)


# ---------------------------------------------------------------------------
# debug dump format: `y <v> <p/q>` for every vertex, then `x <u> <v> <p/q>`
# for every positive client entry (the client view), both sorted.


def dump_assignment(assignment):
    out = []
    for v, q in enumerate(assignment.y):
        out.append(f"y {v} {format_rational(q)}")
    for u, v, q in assignment.x_items():
        out.append(f"x {u} {v} {format_rational(q)}")
    return "\n".join(out) + "\n"


def write_assignment(assignment, path):
    write_text(path, dump_assignment(assignment))


def parse_assignment_text(text, vertex_count):
    a = Assignment(vertex_count)
    for lineno, parts in records(text):
        try:
            if parts[0] == "y" and len(parts) == 3:
                v = parse_int(parts[1])
                if not 0 <= v < vertex_count:
                    raise InputError(f"line {lineno}: vertex {v} out of range")
                a.y[v] = parse_rational(parts[2])
            elif parts[0] == "x" and len(parts) == 4:
                u, v = parse_int(parts[1]), parse_int(parts[2])
                if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                    raise InputError(f"line {lineno}: pair ({u},{v}) out of range")
                q = parse_rational(parts[3])
                if q <= 0:
                    raise InputError(f"line {lineno}: x entries must be positive")
                a.set_x(u, v, q)
            else:
                raise InputError(f"line {lineno}: expected 'y <v> <p/q>' or 'x <u> <v> <p/q>'")
        except ValueError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
    return a

