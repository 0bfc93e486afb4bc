"""y-mass transfer primitives: shift, group shift, and chain shift over y-flows.

Every primitive re-checks its algebraic laws after mutating (exact rational
comparisons, zero tolerance); a failed law is a PipelineError because only a
bug can cause it.  Precondition violations raise ValidationError naming the
violated clause.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .assignment import global_delta, radius_of
from .errors import PipelineError, ValidationError
from .graph_core import INF
from .lp_feasibility import verify_assignment_feasible
from .rational import format_rational, parse_int, parse_rational, records


class TraceLog:
    """Certificate trail: one line per primitive, enough to replay a rounding."""

    def __init__(self):
        self.lines = []

    def record(self, line):
        self.lines.append(line)

    def to_text(self):
        return "\n".join(self.lines) + ("\n" if self.lines else "")


class RoundingContext:
    """Bundles the graph, capacities, and optional trace for a hard rounding run."""

    __slots__ = ("graph", "capacities", "trace")

    def __init__(self, graph, capacities, trace=None):
        if len(capacities) != graph.vertex_count:
            raise ValidationError("capacity list length mismatch")
        self.graph = graph
        self.capacities = tuple(capacities)
        self.trace = trace

    def L(self, v):
        return self.capacities[v]

    def dist(self, u, v):
        return self.graph.hop_distances()[u][v]


def shift(ctx, assignment, a, b, alpha, record=True):
    """Move alpha of y (and the proportional share of x) from a to b.

    Requires L(a) <= L(b) and 0 < alpha <= min(y_a, 1 - y_b).  Radius law
    asserted: only b's radius may grow, by at most radius(a) + dist(a, b).
    """
    y = assignment.y
    if a == b:
        raise ValidationError("shift endpoints must differ")
    if ctx.L(a) > ctx.L(b):
        raise ValidationError(f"shift requires L({a}) <= L({b})")
    if y[a] <= 0:
        raise ValidationError(f"shift source {a} has no y mass")
    if alpha <= 0 or alpha > y[a]:
        raise ValidationError(f"shift amount {alpha} outside (0, y_{a}]")
    if alpha > 1 - y[b]:
        raise ValidationError(f"shift amount {alpha} would push y_{b} above 1")

    graph = ctx.graph
    pre_ra = radius_of(assignment, graph, a)
    pre_rb = radius_of(assignment, graph, b)
    d_ab = ctx.dist(a, b)
    if d_ab == INF:
        raise ValidationError(f"shift endpoints {a},{b} in different components")

    eps = Fraction(alpha) / y[a]
    row = assignment.x.get(a)
    if row is not None:
        for v, q in sorted(row.items()):
            moved = eps * q
            assignment.set_x(a, v, q - moved)
            assignment.add_x(b, v, moved)
    y[a] -= alpha
    y[b] += alpha

    if radius_of(assignment, graph, a) > pre_ra:
        raise PipelineError("shift grew the source radius")
    if radius_of(assignment, graph, b) > max(pre_ra + d_ab, pre_rb):
        raise PipelineError("shift grew the target radius beyond the law")
    if record and ctx.trace is not None:
        ctx.trace.record(
            f"shift {a} {b} {format_rational(alpha)} delta {global_delta(assignment, graph)}"
        )


def group_shift(ctx, assignment, group):
    """Concentrate the group's fractional y until at most one member is fractional.

    Members ordered by (capacity, id); mass always flows from the lowest
    fractional to the highest fractional member, so capacities never decrease
    along a shift.  Global radius grows by at most the largest pairwise hop
    distance inside the group.
    """
    members = sorted(set(group))
    if not members:
        raise ValidationError("group shift needs a nonempty group")
    order = sorted(members, key=lambda v: (ctx.L(v), v))
    graph = ctx.graph
    pre_delta = global_delta(assignment, graph)
    max_pair = 0
    for i, u in enumerate(members):
        for v in members[i + 1 :]:
            d = ctx.dist(u, v)
            if d == INF:
                raise ValidationError("group spans multiple components")
            max_pair = max(max_pair, d)
    y = assignment.y
    while True:
        fractional = [v for v in order if 0 < y[v] < 1]
        if len(fractional) <= 1:
            break
        a, b = fractional[0], fractional[-1]
        alpha = min(y[a], 1 - y[b])
        shift(ctx, assignment, a, b, alpha, record=False)
    if global_delta(assignment, graph) > pre_delta + max_pair:
        raise PipelineError("group shift exceeded the pairwise-distance radius law")
    if ctx.trace is not None:
        ids = " ".join(str(v) for v in members)
        ctx.trace.record(
            f"group {len(members)} {ids} delta {global_delta(assignment, graph)}"
        )


# ---------------------------------------------------------------------------
# y-flows


@dataclass(frozen=True)
class YFlow:
    paths: tuple  # ((alpha, (v1, ..., vt)), ...)
    sources: frozenset
    sinks: frozenset

    @staticmethod
    def from_paths(paths):
        norm = tuple((Fraction(a), tuple(p)) for a, p in paths)
        sources = frozenset(p[0] for _, p in norm)
        sinks = frozenset(p[-1] for _, p in norm)
        return YFlow(norm, sources, sinks)

    def is_empty(self):
        return not self.paths


def validate_yflow(ctx, assignment, flow):
    """Full transfer-plan validation; raises ValidationError naming the clause."""
    if flow.sources & flow.sinks:
        raise ValidationError("y-flow: sources and sinks overlap")
    y = assignment.y
    out_at = {}
    in_at = {}
    through = {}
    for alpha, path in flow.paths:
        if alpha <= 0:
            raise ValidationError("y-flow: path weight must be positive")
        if len(path) < 2:
            raise ValidationError("y-flow: path needs at least two vertices")
        if len(set(path)) != len(path):
            raise ValidationError("y-flow: path revisits a vertex")
        s, t = path[0], path[-1]
        if s not in flow.sources:
            raise ValidationError("y-flow: path start outside the source set")
        if t not in flow.sinks:
            raise ValidationError("y-flow: path end outside the sink set")
        if ctx.L(s) > ctx.L(t):
            raise ValidationError(
                f"y-flow: capacity decreases from source {s} to sink {t}"
            )
        for v in path[1:-1]:
            if v in flow.sources or v in flow.sinks:
                raise ValidationError(f"y-flow: internal vertex {v} lies in S or T")
            if y[v] != 1:
                raise ValidationError(f"y-flow: internal vertex {v} must have y = 1")
            if ctx.L(v) < ctx.L(s):
                raise ValidationError(
                    f"y-flow: internal vertex {v} capacity below source {s}"
                )
            through[v] = through.get(v, Fraction(0)) + alpha
        out_at[s] = out_at.get(s, Fraction(0)) + alpha
        in_at[t] = in_at.get(t, Fraction(0)) + alpha
    for s, q in out_at.items():
        if q > y[s]:
            raise ValidationError(f"y-flow: outflow {q} exceeds y at source {s}")
    for t, q in in_at.items():
        if q > 1 - y[t]:
            raise ValidationError(f"y-flow: inflow {q} exceeds 1 - y at sink {t}")
    for v, q in through.items():
        if q > 1:
            raise ValidationError(f"y-flow: through-flow {q} exceeds 1 at vertex {v}")


def build_flow_graph(flow, capacities):
    """Arc flows of a y-flow, as {(u, w): [f, fl]}; rejects cycles.

    f sums the path amounts alpha over the arc and fl the capacity-weighted
    amounts L(source) * alpha.
    """
    arcs = {}
    for alpha, path in flow.paths:
        w_src = capacities[path[0]] * alpha
        for i in range(len(path) - 1):
            key = (path[i], path[i + 1])
            cell = arcs.get(key)
            if cell is None:
                arcs[key] = [Fraction(alpha), Fraction(w_src)]
            else:
                cell[0] += alpha
                cell[1] += w_src
    # peel off vertices with no arc left in; a cycle is what remains
    succ = {}
    indeg = {}
    for (u, w) in arcs:
        succ.setdefault(u, []).append(w)
        indeg[w] = indeg.get(w, 0) + 1
    free = [u for u in succ if u not in indeg]
    while free:
        for w in succ.get(free.pop(), ()):
            indeg[w] -= 1
            if indeg[w] == 0:
                free.append(w)
    if any(indeg.values()):
        raise ValidationError("y-flow graph has a cycle")
    for (u, _w), (f, fl) in arcs.items():
        if fl > capacities[u] * f:
            raise PipelineError("arc carries more capacity-weighted flow than its tail allows")
    return arcs


def chain_shift(ctx, assignment, flow):
    """Apply a whole y-flow: x moves along every arc, y moves source -> sink.

    Per-arc x transfer is x[u][v] * fl(u, arc) / (L(u) * y_u), computed from
    the pre-state for every arc and applied at once.  Interior y values stay
    untouched; the result is (delta + d)-feasible where d is the largest arc
    hop distance.
    """
    if flow.is_empty():
        return
    validate_yflow(ctx, assignment, flow)
    arcs = build_flow_graph(flow, ctx.capacities)
    graph = ctx.graph
    y = assignment.y

    pre_delta = global_delta(assignment, graph)
    k_pre = assignment.sum_y()
    d_max = 0
    for (u, w) in arcs:
        d = ctx.dist(u, w)
        if d == INF:
            raise ValidationError(f"y-flow arc ({u},{w}) spans components")
        d_max = max(d_max, d)

    # all transfer amounts from the pre-state, then a single application pass
    snapshot = {}
    for (u, _w) in arcs:
        if u not in snapshot:
            snapshot[u] = dict(assignment.x_row(u))
    net = {}
    for (u, w), (f, fl) in arcs.items():
        if fl == 0:
            continue
        denom = ctx.L(u) * y[u]
        if denom == 0:
            raise PipelineError(f"arc tail {u} has fl > 0 but no serving capacity")
        scale = Fraction(fl) / denom
        for v, q in snapshot[u].items():
            amt = scale * q
            net[(u, v)] = net.get((u, v), Fraction(0)) - amt
            net[(w, v)] = net.get((w, v), Fraction(0)) + amt
    for (p, v) in sorted(net):
        dq = net[(p, v)]
        if dq != 0:
            assignment.add_x(p, v, dq)

    out_f = {}
    in_f = {}
    for (u, w), (f, _fl) in arcs.items():
        out_f[u] = out_f.get(u, Fraction(0)) + f
        in_f[w] = in_f.get(w, Fraction(0)) + f
    for s in flow.sources:
        y[s] -= out_f.get(s, Fraction(0))
    for t in flow.sinks:
        y[t] += in_f.get(t, Fraction(0))

    if assignment.sum_y() != k_pre:
        raise PipelineError("chain shift changed the y total")
    if not verify_assignment_feasible(
        graph, ctx.capacities, k_pre, assignment, pre_delta + d_max
    ):
        raise PipelineError("chain shift broke the LP constraints")
    if ctx.trace is not None:
        ctx.trace.record(
            f"chain {len(flow.paths)} delta {global_delta(assignment, graph)}"
        )
        for alpha, path in flow.paths:
            ctx.trace.record(
                f"path {format_rational(alpha)} " + " ".join(str(v) for v in path)
            )


# ---------------------------------------------------------------------------
# certificate replay


def _malformed(lineno, exc):
    return ValidationError(f"trace replay: line {lineno}: {exc}")


def _parse_path(record):
    """(weight, vertices) of a 'path' line of a chain step."""
    lineno, parts = record
    try:
        if parts[0] != "path" or len(parts) < 2:
            raise ValueError("expected a path line")
        return parse_rational(parts[1]), tuple(parse_int(v) for v in parts[2:])
    except ValueError as exc:
        raise _malformed(lineno, exc) from exc


def _parse_step(lines, i):
    """The trace step at lines[i]: (primitive, arguments, recorded delta, lines used).

    lines holds (lineno, fields) records; a chain step also reads the path
    lines after it.  A malformed line raises ValidationError naming it.
    """
    lineno, parts = lines[i]
    used = 1
    try:
        op = parts[0]
        if op == "shift":
            _, a, b, alpha, kw, d = parts
            fn, args = shift, (parse_int(a), parse_int(b), parse_rational(alpha))
        elif op == "group":
            _, count, *members, kw, d = parts
            if parse_int(count) != len(members):
                raise ValueError(f"{count} members announced, {len(members)} listed")
            fn, args = group_shift, ([parse_int(v) for v in members],)
        elif op == "chain":
            _, count, kw, d = parts
            body = lines[i + 1 : i + 1 + parse_int(count)]
            if parse_int(count) != len(body):  # too few lines left, or count < 0
                raise ValueError(f"{count} paths announced, {len(body)} lines follow")
            fn, args = chain_shift, (YFlow.from_paths(map(_parse_path, body)),)
            used += len(body)
        else:
            raise ValueError(f"unknown op {op!r}")
        if kw != "delta":
            raise ValueError(f"expected 'delta', got {kw!r}")
        return fn, args, parse_int(d), used
    except ValueError as exc:
        raise _malformed(lineno, exc) from exc


def replay_trace(ctx, assignment, text):
    """Re-execute a trace on a copy of `assignment`; checks every recorded delta.

    '#' starts a comment, so a certificate's '# component' header is skipped.
    """
    result = assignment.copy()
    quiet = RoundingContext(ctx.graph, ctx.capacities)
    lines = list(records(text))
    i = 0
    while i < len(lines):
        fn, args, delta, used = _parse_step(lines, i)
        fn(quiet, result, *args)
        got = global_delta(result, ctx.graph)
        if got != delta:
            raise ValidationError(
                f"trace replay diverged: recorded delta {delta}, got {got}"
            )
        i += used
    return result
