"""The fractional (x, y) state threaded through rounding, plus radius bookkeeping.

x is sparse: only strictly positive entries are stored, keyed center -> client.
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
    __slots__ = ("y", "x")

    def __init__(self, vertex_count, y=None):
        if y is None:
            self.y = [Fraction(0)] * vertex_count
        else:
            if len(y) != vertex_count:
                raise InputError("y length mismatch")
            self.y = [Fraction(q) for q in y]
        # center -> {client: positive rational}
        self.x = {}

    @property
    def vertex_count(self):
        return len(self.y)

    def get_x(self, u, v):
        row = self.x.get(u)
        if row is None:
            return Fraction(0)
        return row.get(v, Fraction(0))

    def x_row(self, u):
        """Live view of center u's row; treat as read-only."""
        return self.x.get(u, {})

    def set_x(self, u, v, value):
        if value < 0:
            raise PipelineError(f"x[{u},{v}] would become negative ({value})")
        row = self.x.get(u)
        if value == 0:
            if row is not None:
                row.pop(v, None)
                if not row:
                    del self.x[u]
            return
        if row is None:
            row = self.x[u] = {}
        row[v] = value

    def add_x(self, u, v, delta):
        self.set_x(u, v, self.get_x(u, v) + delta)

    def x_items(self):
        """All positive entries as (u, v, value), sorted for determinism."""
        for u in sorted(self.x):
            row = self.x[u]
            for v in sorted(row):
                yield u, v, row[v]

    def sum_y(self):
        # most y entries of a rounded vector are 0: adding them costs a
        # Fraction operation each and changes nothing
        return sum((q for q in self.y if q), Fraction(0))

    def copy(self):
        dup = Assignment(self.vertex_count, self.y)
        dup.x = {u: dict(row) for u, row in self.x.items()}
        return dup

    def __repr__(self):
        nx = sum(len(r) for r in self.x.values())
        return f"Assignment(n={self.vertex_count}, |x|={nx})"


def radius_of(assignment, graph, u):
    """Hop distance to the farthest client fractionally served by u; 0 if none."""
    row = assignment.x.get(u)
    if not row:
        return 0
    hops = graph.hop_distances()[u]
    r = 0
    for v in row:
        d = hops[v]
        if d == INF:
            raise PipelineError(f"x[{u},{v}] > 0 across components")
        if d > r:
            r = d
    return r


def global_delta(assignment, graph):
    """Max radius over all centers; the solution is feasible on G^delta."""
    return max((radius_of(assignment, graph, u) for u in assignment.x), default=0)


# ---------------------------------------------------------------------------
# debug dump format: `y <v> <p/q>` for every vertex, then `x <u> <v> <p/q>`
# for every positive entry, both sorted.


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

