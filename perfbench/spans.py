"""In-memory spans around capkc's public functions, and what they add up to.

The tracer wraps functions from the outside: each module attribute a
caller looks a function up by (``from .x import f`` binds one name per
importing module, so ``capkc.cli.round_y`` and ``capkc.caterpillar.round_y``
are separate attributes), and a few methods on their classes.  Nothing in
capkc changes.  Pivot counts and intermediate bit lengths are not visible
from public calls, so they are not measured here.
"""

import functools
import json
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "call", "attrs")

    def __init__(self, name, start, parent, call):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent  # index of the enclosing span, or None
        self.call = call  # id of the capkc.cli.main call this span belongs to
        self.attrs = {}

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "call": self.call, **self.attrs}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.call = 0
        self.radius = None  # threshold radius of the graph built last

    def wrap(self, name, fn, on_result=None):
        """fn, recording one span per call; on_result(span, args, result) adds attrs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, None, self._stack[-1] if self._stack else None, self.call)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(span, args, result)
            return result

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def _bits(q):
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _on_threshold(tracer, span, args, result):
    tracer.radius = args[1]


def _on_lp(tracer, span, args, result):
    span.attrs["radius0"] = tracer.radius == 0
    span.attrs["singleton"] = args[0].graph.vertex_count == 1
    span.attrs["feasible"] = result.feasible
    if result.feasible:
        a = result.assignment
        span.attrs["bits"] = max([_bits(q) for q in a.y] + [_bits(q) for _, _, q in a.x_items()])


def _on_found(tracer, span, args, result):
    span.attrs["feasible"] = result is not None


def _on_stretch(tracer, span, args, result):
    span.attrs["stretch"] = result


# (owner inside the capkc package, attribute, span name, result hook).  A
# function imported with ``from .x import f`` is wrapped once per module
# that looks it up.
PATCHES = [
    ("cli", "main", "cli.main", None),
    ("cli", "read_instance", "graph_core.read_instance", None),
    ("cli", "candidate_radii", "graph_core.candidate_radii", None),
    ("exact_oracle", "candidate_radii", "graph_core.candidate_radii", None),
    ("cli", "threshold_graph", "graph_core.threshold_graph", _on_threshold),
    ("cli", "connected_components", "graph_core.components", None),
    ("cli", "induced_subgraph", "graph_core.induced_subgraph", None),
    ("graph_core.Graph", "hop_distances", "graph_core.hop_distances", None),
    ("cli", "build_lp1", "lp_feasibility.build_lp1", None),
    ("cli", "solve_feasibility", "lp_feasibility.solve", _on_lp),
    ("lp_feasibility.Phase1Tableau", "solve", "lp_feasibility.tableau", None),
    ("lp_feasibility.Phase1Tableau", "add_row", "lp_feasibility.add_row", None),
    ("flownet.MaxFlowNetwork", "max_flow", "flownet.max_flow", None),
    ("cli", "round_y", "caterpillar.round_y", _on_stretch),
    ("caterpillar", "build_caterpillar", "caterpillar.build_caterpillar", None),
    ("caterpillar", "separate", "caterpillar.separate", None),
    ("caterpillar", "make_safe", "caterpillar.make_safe", None),
    ("caterpillar", "build_rounding_flow", "caterpillar.build_rounding_flow", None),
    ("caterpillar", "chain_shift", "shifting.chain_shift", None),
    ("cli", "round_x", "x_rounding.round_x", None),
    ("cli", "validate_solution", "x_rounding.validate_solution", None),
    ("soft_solver", "validate_solution", "x_rounding.validate_solution", None),
    ("cli", "solve_soft", "soft_solver.solve_soft", None),
    ("cli", "exact_opt", "exact_oracle.exact_opt", None),
    ("cli", "feasible_at", "exact_oracle.feasible_at", _on_found),
    ("exact_oracle", "feasible_at", "exact_oracle.feasible_at", _on_found),
] + [(mod, "verify_assignment_feasible", "lp_feasibility.verify_assignment", None)
     for mod in ("lp_feasibility", "caterpillar", "shifting", "soft_solver")]


def install(tracer, capkc):
    """Patch the tracer into the capkc modules; returns an undo function."""
    undo = []
    for owner_path, attr, name, hook in PATCHES:
        owner = capkc
        for part in owner_path.split("."):
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        undo.append((owner, attr, original))
        on_result = None if hook is None else functools.partial(hook, tracer)
        setattr(owner, attr, tracer.wrap(name, original, on_result))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def percentile(values, p):
    """p-th percentile (0..100), linear between the closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def self_times(spans):
    """Per span: its duration minus the durations of its direct children.

    Spans come from one thread, so the children of a span never overlap
    and their durations can simply be subtracted.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


_FLOW_CALLERS = {
    "lp_feasibility.solve": "lp",
    "x_rounding.round_x": "round_x",
    "soft_solver.solve_soft": "soft",
    "exact_oracle.feasible_at": "oracle",
}


def layer_metrics(spans, passes):
    """Per-layer metrics, every time and count given per pass.

    Each span name X gives ``X_s`` (total time) and ``X.calls``; the
    other metrics are derived below.  Spans that never ran count 0.
    """
    own = self_times(spans)
    names = {name for _, _, name, _ in PATCHES}
    total, calls, self_s = (dict.fromkeys(names, 0) for _ in range(3))
    for s, own_s in zip(spans, own):
        total[s.name] += s.end - s.start
        calls[s.name] += 1
        self_s[s.name] += own_s

    def flow_caller(i):
        while i is not None:
            layer = _FLOW_CALLERS.get(spans[i].name)
            if layer:
                return layer
            i = spans[i].parent
        return None

    out = {}
    for name in names:
        out[f"{name}_s"] = total[name]
        out[f"{name}.calls"] = calls[name]
    lp = [s for s in spans if s.name == "lp_feasibility.solve"]
    oracle = [s for s in spans if s.name == "exact_oracle.feasible_at"]
    out["cli.radii_probed"] = calls["graph_core.threshold_graph"]
    out["cli.budget_probes"] = sum(1 for s in lp if not s.attrs["singleton"])
    out["cli.singleton_probes"] = sum(1 for s in lp if s.attrs["singleton"])
    out["cli.self_s"] = self_s["cli.main"]
    out["lp_feasibility.solve_s.radius0"] = sum(s.end - s.start for s in lp if s.attrs["radius0"])
    out["lp_feasibility.solve_s.radius_pos"] = sum(
        s.end - s.start for s in lp if not s.attrs["radius0"])
    out["lp_feasibility.tableau_s"] = self_s["lp_feasibility.tableau"]
    out["lp_feasibility.cut_rounds"] = calls["lp_feasibility.tableau"]
    out["lp_feasibility.rows_added"] = calls["lp_feasibility.add_row"]
    for layer in _FLOW_CALLERS.values():
        out[f"flownet.max_flow_s.{layer}"] = 0.0
        out[f"flownet.max_flow.calls.{layer}"] = 0
    for s in spans:
        if s.name == "flownet.max_flow":
            layer = flow_caller(s.parent)
            if layer:
                out[f"flownet.max_flow_s.{layer}"] += s.end - s.start
                out[f"flownet.max_flow.calls.{layer}"] += 1
    out["exact_oracle.self_s"] = self_s["exact_oracle.exact_opt"] + self_s["exact_oracle.feasible_at"]
    out["trace.spans"] = len(spans)
    out = {name: value / passes for name, value in out.items()}

    # maxima and ratios are not per pass
    out["lp_feasibility.feasible_frac"] = (
        sum(1 for s in lp if s.attrs["feasible"]) / len(lp) if lp else 0.0)
    out["lp_feasibility.result_bits.max"] = max(
        (s.attrs["bits"] for s in lp if "bits" in s.attrs), default=0)
    out["caterpillar.stretch.max"] = max(
        (s.attrs["stretch"] for s in spans if s.name == "caterpillar.round_y"), default=0)
    out["exact_oracle.feasible_frac"] = (
        sum(1 for s in oracle if s.attrs["feasible"]) / len(oracle) if oracle else 0.0)
    return out
