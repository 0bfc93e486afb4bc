"""y-mass transfer primitives: shift, group shift, and chain shift over y-flows.

A y-flow is a list of (alpha, path) pairs: alpha of y moves from the path's
first vertex to its last, through full (y = 1) vertices in between.  Its
source and sink sets are the path starts and ends.  A shift of alpha from a
to b is the one-arc y-flow (alpha, (a, b)): in every primitive x follows y
in proportion, through one transfer (_move_x), and every step writes its
certificate line, with the delta it leaves, through one recorder (_record).

Every primitive re-checks its algebraic laws after mutating (exact rational
comparisons, zero tolerance); a failed law is a PipelineError because only a
bug can cause it.  Precondition violations raise ValidationError naming the
violated clause.
"""

from __future__ import annotations

from fractions import Fraction

from .assignment import global_delta, radius_of
from .errors import PipelineError, ValidationError
from .graph_core import INF
from .lp_feasibility import verify_assignment_feasible
from .rational import format_rational, parse_int, parse_rational, records


class RoundingContext:
    """Bundles the graph, capacities, and optional trace for a hard rounding run.

    trace is None or a list that each primitive appends its certificate
    lines to: one line per step, enough to replay a rounding.
    """

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


def _move_x(assignment, moves):
    """For each (u, w, share), move share of u's pre-state x row to w.

    Every amount is read before any is applied (x rows are read in place).
    The net changes are applied in insertion order: every reader of x either
    sorts it (x_items) or folds it with max or exact sums, so the order of
    x's rows and entries reaches no output.
    """
    net = {}
    for u, w, share in moves:
        for v, q in assignment.x_row(u).items():
            amt = share * q
            net[(u, v)] = net.get((u, v), Fraction(0)) - amt
            net[(w, v)] = net.get((w, v), Fraction(0)) + amt
    for (p, v), dq in net.items():
        if dq != 0:
            assignment.add_x(p, v, dq)


def _record(ctx, assignment, step, paths=()):
    """Append step's certificate line, with the delta it leaves, and a chain's path lines."""
    if ctx.trace is None:
        return
    ctx.trace.append(f"{step} delta {global_delta(assignment, ctx.graph)}")
    for alpha, path in paths:
        ctx.trace.append(f"path {format_rational(alpha)} " + " ".join(str(v) for v in path))


def shift(ctx, assignment, a, b, alpha):
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

    _move_x(assignment, [(a, b, Fraction(alpha) / y[a])])
    y[a] -= alpha
    y[b] += alpha

    if radius_of(assignment, graph, a) > pre_ra:
        raise PipelineError("shift grew the source radius")
    if radius_of(assignment, graph, b) > max(pre_ra + d_ab, pre_rb):
        raise PipelineError("shift grew the target radius beyond the law")
    _record(ctx, assignment, f"shift {a} {b} {format_rational(alpha)}")


def group_shift(ctx, assignment, group):
    """Concentrate the group's fractional y until at most one member is fractional.

    Members ordered by (capacity, id); mass always flows from the lowest
    fractional to the highest fractional member, so capacities never decrease
    along a shift.  Global radius grows by at most the largest pairwise hop
    distance inside the group.  The inner shifts run on a trace-less
    context, so the group writes one certificate line.
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
    quiet = RoundingContext(graph, ctx.capacities)
    while True:
        fractional = [v for v in order if 0 < y[v] < 1]
        if len(fractional) <= 1:
            break
        a, b = fractional[0], fractional[-1]
        shift(quiet, assignment, a, b, min(y[a], 1 - y[b]))
    if global_delta(assignment, graph) > pre_delta + max_pair:
        raise PipelineError("group shift exceeded the pairwise-distance radius law")
    _record(ctx, assignment, f"group {len(members)} " + " ".join(str(v) for v in members))


# ---------------------------------------------------------------------------
# y-flows


def validate_yflow(ctx, assignment, paths):
    """Validate a y-flow's (alpha, path) list in one walk and aggregate it.

    Every path needs two vertices; the sources S and sinks T are the path
    starts and ends, and must not overlap.  Raises ValidationError naming
    the violated clause, a cycle included.  Returns (arcs, out_at, in_at):
    arcs maps (u, w) to fl, the capacity-weighted amounts L(source) * alpha
    of the paths over the arc, the only arc sum chain_shift applies; out_at
    and in_at total alpha per source and per sink.  The interior clause
    keeps fl <= L(u) * f on every arc (u, w), where f sums the path amounts.
    """
    if any(len(path) < 2 for _, path in paths):
        raise ValidationError("y-flow: path needs at least two vertices")
    sources = {path[0] for _, path in paths}
    sinks = {path[-1] for _, path in paths}
    if sources & sinks:
        raise ValidationError("y-flow: sources and sinks overlap")
    y = assignment.y
    arcs = {}
    out_at = {}
    in_at = {}
    through = {}
    for alpha, path in paths:
        if alpha <= 0:
            raise ValidationError("y-flow: path weight must be positive")
        if len(set(path)) != len(path):
            raise ValidationError("y-flow: path revisits a vertex")
        s, t = path[0], path[-1]
        if ctx.L(s) > ctx.L(t):
            raise ValidationError(
                f"y-flow: capacity decreases from source {s} to sink {t}"
            )
        for v in path[1:-1]:
            if v in sources or v in sinks:
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
        w_src = ctx.L(s) * alpha
        for key in zip(path, path[1:]):
            arcs[key] = arcs.get(key, Fraction(0)) + w_src
    for s, q in out_at.items():
        if q > y[s]:
            raise ValidationError(f"y-flow: outflow {q} exceeds y at source {s}")
    for t, q in in_at.items():
        if q > 1 - y[t]:
            raise ValidationError(f"y-flow: inflow {q} exceeds 1 - y at sink {t}")
    for v, q in through.items():
        if q > 1:
            raise ValidationError(f"y-flow: through-flow {q} exceeds 1 at vertex {v}")
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
    return arcs, out_at, in_at


def chain_shift(ctx, assignment, paths):
    """Apply a y-flow's (alpha, path) list: x moves along every arc, y source -> sink.

    The paths are walked once, by validate_yflow, which returns the arc
    flows fl and the per-source and per-sink totals.  Every arc (u, w)
    with fl > 0 moves the share fl / (L(u) * y_u) of u's pre-state x row
    to w, all in one _move_x; each source then gives up its outflow and
    each sink takes its inflow.  Interior y values stay untouched; the
    result is (delta + d)-feasible where d is the largest arc hop distance.
    """
    if not paths:
        return
    arcs, out_at, in_at = validate_yflow(ctx, assignment, paths)
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

    # fl > 0 needs a source with L(s) > 0, so the tail (that source, with
    # y >= its outflow, or an interior vertex with y = 1 and L >= L(s))
    # serves: L(u) * y_u > 0
    _move_x(assignment, [(u, w, fl / (ctx.L(u) * y[u])) for (u, w), fl in arcs.items() if fl])

    for s, q in out_at.items():
        y[s] -= q
    for t, q in in_at.items():
        y[t] += q

    if not verify_assignment_feasible(
        graph, ctx.capacities, k_pre, assignment, pre_delta + d_max
    ):
        raise PipelineError("chain shift broke the LP constraints")
    _record(ctx, assignment, f"chain {len(paths)}", paths)


# ---------------------------------------------------------------------------
# certificate replay


def _line_error(lineno, reason):
    return ValidationError(f"trace replay: line {lineno}: {reason}")


def _vertex(token, n):
    """A vertex id of an n-vertex context; ValueError outside 0..n-1."""
    v = parse_int(token)
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} outside 0..{n - 1}")
    return v


def _parse_path(record, n):
    """(weight, vertices) of a 'path' line of a chain step."""
    lineno, parts = record
    try:
        if parts[0] != "path" or len(parts) < 2:
            raise ValueError("expected a path line")
        alpha = parse_rational(parts[1])
        path = tuple(_vertex(v, n) for v in parts[2:])
        if len(path) < 2:
            raise ValueError("a path needs at least two vertices")
        return alpha, path
    except ValueError as exc:
        raise _line_error(lineno, exc) from exc


def _parse_step(lines, i, n):
    """The trace step at lines[i]: (primitive, arguments, recorded delta, lines used).

    lines holds (lineno, fields) records; a chain step also reads the path
    lines after it.  A malformed line, a vertex outside 0..n-1 included,
    raises ValidationError naming it.
    """
    lineno, parts = lines[i]
    used = 1
    try:
        op = parts[0]
        if op == "shift":
            _, a, b, alpha, kw, d = parts
            fn, args = shift, (_vertex(a, n), _vertex(b, n), parse_rational(alpha))
        elif op == "group":
            _, count, *members, kw, d = parts
            if parse_int(count) != len(members):
                raise ValueError(f"{count} members announced, {len(members)} listed")
            fn, args = group_shift, ([_vertex(v, n) for v in members],)
        elif op == "chain":
            _, count, kw, d = parts
            body = lines[i + 1 : i + 1 + parse_int(count)]
            if parse_int(count) != len(body):  # too few lines left, or count < 0
                raise ValueError(f"{count} paths announced, {len(body)} lines follow")
            fn, args = chain_shift, ([_parse_path(r, n) for r in body],)
            used += len(body)
        else:
            raise ValueError(f"unknown op {op!r}")
        if kw != "delta":
            raise ValueError(f"expected 'delta', got {kw!r}")
        return fn, args, parse_int(d), used
    except ValueError as exc:
        raise _line_error(lineno, exc) from exc


def replay_trace(ctx, assignment, text):
    """Re-execute a trace on a copy of `assignment`; checks every recorded delta.

    '#' starts a comment, so a certificate's '# component' header is skipped.
    A malformed line, a step its primitive refuses and a step whose recorded
    delta diverges raise ValidationError naming the step's first line.
    """
    result = assignment.copy()
    quiet = RoundingContext(ctx.graph, ctx.capacities)
    lines = list(records(text))
    i = 0
    while i < len(lines):
        fn, args, delta, used = _parse_step(lines, i, ctx.graph.vertex_count)
        lineno = lines[i][0]
        try:
            fn(quiet, result, *args)
        except (ValidationError, PipelineError) as exc:
            raise _line_error(lineno, exc) from exc
        got = global_delta(result, ctx.graph)
        if got != delta:
            raise _line_error(lineno, f"diverged: recorded delta {delta}, got {got}")
        i += used
    return result
