"""LP1 construction and exact feasibility testing (zero-tolerance rational answers).

solve_feasibility is the cut loop: a master LP over y only, solved by the
exact phase-1 simplex below, with lazily separated client-set inequalities
sum_u min(L(u), |N[u] cap W|) * y_u >= |W|.  Separation is an exact
max-flow on ints over flownet.bipartite_flow, the network that also
seats clients: source -> center u (L(u) * y_u) -> client v in N[u]
(y_u) -> sink (1), for each center with y_u > 0.  The master point is
put over its common denominator D, so every capacity is D times the
rational one; Dinic only compares and adds capacities, so every flow
and the min cut scale with them.  Each round runs one such flow over the
client classes (the clients that reach the same centers), one node per
class weighted by its size.  If it serves every client, each class's
flow from u, split evenly over the class's clients and put over D, is
x; otherwise its short classes, the sink side of its min cut expanded to
clients, are the W of the next inequality.
Every generated inequality is implied by LP1 (constraints 2+3+4), and each
round adds an inequality violated by the current master point, so the loop
terminates: there are finitely many client sets.  A violated inequality is
new, as the master point meets every row the tableau holds.  In hard mode
the master's y_u <= 1 are the tableau's implicit column bounds (its
bounded-variable simplex), not rows; soft mode has no upper bound.
When the twin classes of centers (equal capacity, and equal open or equal
closed neighbourhoods) at least halve the centers, the master holds one
column per class, the y its members share, and each round expands its
point to the centers before the flow; otherwise one column per center.

Vertices with capacity 0 get y pinned to 0 up front; with the pin, k larger
than the number of positive-capacity vertices is naturally infeasible in
hard mode.  _lp1_rows lays out the full LP1 over (x, y) for the text dump.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from .assignment import Assignment
from .errors import InputError, PipelineError
from .flownet import bipartite_flow
from .graph_core import INF, check_capacities
from .rational import write_text

_MAX_PIVOTS = 500_000
_MAX_ROUNDS = 10_000
_BLAND_AFTER = 50  # degenerate pivots before switching to Bland's rule


LPModel = namedtuple("LPModel", "graph capacities k soft")


class FeasibilityResult(namedtuple("FeasibilityResult", "assignment")):
    """assignment is the LP point (an Assignment) when feasible, None otherwise."""

    __slots__ = ()

    @property
    def feasible(self):
        return self.assignment is not None


def build_lp1(graph, capacities, k, soft=False):
    n = graph.vertex_count
    if n == 0:
        raise InputError("the graph has no vertex")
    check_capacities(capacities, n)
    if k < 1:
        raise InputError("k must be >= 1")
    if not soft and k > n:
        raise InputError(f"hard mode needs k <= |V| ({k} > {n})")
    return LPModel(graph, tuple(capacities), k, soft)


# ---------------------------------------------------------------------------
# exact sparse phase-1 simplex


def _reduce(row, rhs, den):
    """Divide an integer row, its rhs and its denominator by their one gcd."""
    if den == 1:
        return row, rhs, den
    g = gcd(den, rhs, *row.values())
    if g == 1:
        return row, rhs, den
    return {c: v // g for c, v in row.items()}, rhs // g, den // g


def _eliminate(row, rhs, den, col, prow, prhs, pden):
    """row - (row[col] / den) * (prow / pden), as an integer row.

    prow holds pden at col, so col drops out.  The row is scaled by pden / g
    rather than divided, g = gcd(row[col], pden), and reduced only when that
    scale grew its denominator; with den unchanged its entries stay the
    exact values times den, so skipping the gcd cannot blow them up.  row may
    be mutated in place.
    """
    a = row[col]
    g = gcd(a, pden)
    s, t = pden // g, a // g
    if s != 1:
        row = {c: s * v for c, v in row.items()}
        rhs *= s
        den *= s
    for c, v in prow.items():
        nv = row.get(c, 0) - t * v
        if nv:
            row[c] = nv
        else:
            del row[c]
    rhs -= t * prhs
    if s == 1:
        return row, rhs, den
    return _reduce(row, rhs, den)


def _entering(wrow, art_cols, bland):
    """The pricing step: the column whose rise lowers w, or None at the optimum.

    Dantzig's rule takes the largest wrow entry, ties to the smallest column;
    Bland's rule, the anti-cycling fallback, the smallest improving column.
    """
    entering = None
    if bland:
        for c in sorted(wrow):
            if wrow[c] > 0 and c not in art_cols:
                return c
        return None
    best = None
    for c, v in wrow.items():
        if v <= 0 or c in art_cols:
            continue
        if best is None or v > best or (v == best and c < entering):
            best = v
            entering = c
    return entering


class Phase1Tableau:
    """Incremental exact phase-1 simplex over {x >= 0} plus appended rows.

    Rows may be added between solves; the basis carries over, so re-solving
    after one extra row usually takes a handful of pivots.  The cut loop in
    solve_feasibility leans on this: its master grows by one row per round,
    and a cold solve each round would repeat every pivot made so far.
    Anti-cycling: Dantzig entering, falling back to Bland's rule after a
    degenerate streak; leaving ties always break on the smallest basis column.

    Rows are fraction-free: row i is mat[i] (column -> nonzero int) over one
    positive int den[i], with right-hand side rhs[i] / den[i], so its basic
    column holds den[i].  add_row clears the denominators of its rational
    input with one lcm.  A pivot scales the other rows by the pivot entry
    instead of dividing (integer-preserving elimination, as in Bareiss), then
    divides each row whose denominator grew by one gcd over its entries, rhs
    and den, not entry by entry.
    Scaling a row by a positive number changes neither rhs/a nor any sign,
    so every pivot choice, and every returned value, is that of a tableau
    over plain rationals.

    With bounded=True every structural column also has the upper bound
    x <= 1, held implicitly rather than as a row (the upper-bounding
    technique: Dantzig 1955; Chvatal 1983, ch. 8).  A column at its upper
    bound is stored complemented, as x = 1 - x', in every row, so a
    nonbasic column always sits at 0 and rhs[i] / den[i] is always the
    basic value; the pivot and elimination code is that of the unbounded
    tableau.  The ratio test also stops where a bounded basic column
    would rise to 1, which complements it before the pivot, and at the
    entering column's own bound, a bound flip: the column is complemented
    and no row is eliminated.  A bound flip wins a tie with a row, and
    counts toward _MAX_PIVOTS like a pivot.
    add_row substitutes the complemented columns into its input, and
    values() maps them back.
    """

    def __init__(self, num_vars, bounded=False):
        self.num_vars = num_vars
        self.bounded = bounded
        self.next_col = num_vars
        self.mat = []  # sparse integer rows; the basis column holds den[i]
        self.rhs = []
        self.den = []
        self.basis = []
        self.art_cols = set()
        self.flipped = set()  # columns stored complemented, x = 1 - x'

    def add_row(self, coefs, sense, b):
        coefs = {c: v for c, v in coefs.items() if v != 0}
        den = lcm(b.denominator, *(q.denominator for q in coefs.values()))
        d = {c: q.numerator * (den // q.denominator) for c, q in coefs.items()}
        rb = b.numerator * (den // b.denominator)
        # a * x = a - a * x' for each complemented column, then substitute
        # out the current basic variables so the row enters in reduced form;
        # tableau rows hold no other basic columns, so one pass suffices
        for c in self.flipped & d.keys():
            rb -= d[c]
            d[c] = -d[c]
        for i, bc in enumerate(self.basis):
            if bc in d:
                d, rb, den = _eliminate(d, rb, den, bc, self.mat[i], self.rhs[i], self.den[i])
        if rb < 0:
            rb = -rb
            d = {c: -v for c, v in d.items()}
            sense = {"<=": ">=", ">=": "<=", "==": "=="}[sense]
        if sense == "<=":
            d[self.next_col] = den
            self.basis.append(self.next_col)
            self.next_col += 1
        elif sense in (">=", "=="):
            if sense == ">=":
                d[self.next_col] = -den
                self.next_col += 1
            d[self.next_col] = den
            self.basis.append(self.next_col)
            self.art_cols.add(self.next_col)
            self.next_col += 1
        else:
            raise PipelineError(f"bad sense {sense!r}")
        self.mat.append(d)
        self.rhs.append(rb)
        self.den.append(den)

    def values(self):
        vals = [Fraction(0)] * self.num_vars
        for i, bc in enumerate(self.basis):
            if bc < self.num_vars:
                vals[bc] = Fraction(self.rhs[i], self.den[i])
        for c in self.flipped:
            vals[c] = 1 - vals[c]
        return vals

    def _complement(self, col):
        """Substitute x = 1 - x' for column col in every row: a * x = a - a * x'."""
        rhs = self.rhs
        for i, row in enumerate(self.mat):
            v = row.get(col)
            if v is not None:
                row[col] = -v
                rhs[i] -= v
        self.flipped ^= {col}

    def _pivot(self, pr, entering):
        mat, rhs, den = self.mat, self.rhs, self.den
        prow, rp = mat[pr], rhs[pr]
        # entering moves to the end of the row's column order, which
        # _expel_artificials scans to pick its pivot column
        p = prow.pop(entering)
        prow[entering] = p
        if p < 0:
            prow = {c: -v for c, v in prow.items()}
            rp, p = -rp, -p
        # the pivot row reads prow / p: entering becomes basic at value 1
        prow, rp, p = _reduce(prow, rp, p)
        for i, row in enumerate(mat):
            if i != pr and entering in row:
                mat[i], rhs[i], den[i] = _eliminate(row, rhs[i], den[i], entering, prow, rp, p)
        mat[pr], rhs[pr], den[pr] = prow, rp, p
        self.basis[pr] = entering

    def _expel_artificials(self):
        """Degenerate-pivot every basic artificial out, then drop dead columns.

        Runs only at w = 0, where each basic artificial sits at rhs 0: the
        pivot moves no mass, but once an artificial is nonbasic it is pinned
        to 0 and later pivots cannot disturb the row it used to patch.  Rows
        with no structural entry left are redundant and inert; their
        artificial stays, marked live.
        """
        live = set()
        for i, bc in enumerate(self.basis):
            if bc not in self.art_cols:
                continue
            entering = None
            for c, v in self.mat[i].items():
                if c != bc and c not in self.art_cols and v != 0:
                    entering = c
                    break
            if entering is None:
                live.add(bc)
            else:
                self._pivot(i, entering)
        dead = self.art_cols - live
        if dead:
            for row in self.mat:
                for c in row.keys() & dead:
                    del row[c]
            self.art_cols = live

    def solve(self):
        """Drive the basic-artificial total to 0.  True iff feasible."""
        mat, rhs, den, basis = self.mat, self.rhs, self.den, self.basis
        art_cols = self.art_cols
        nb = self.num_vars if self.bounded else 0  # columns below nb are bounded
        # objective w = sum of basic artificials, over nonbasic columns:
        # w = (wrhs - sum wrow[c] * x_c) / wden, one integer row like the rest.
        # Eliminating each artificial from {a: 1} by its own row leaves
        # w = (sum wrow[c] * x_c - wrhs) / wden, hence the negation.
        arts = [i for i, bc in enumerate(basis) if bc in art_cols]
        wrow, wrhs, wden = {basis[i]: 1 for i in arts}, 0, 1
        for i in arts:
            wrow, wrhs, wden = _eliminate(wrow, wrhs, wden, basis[i], mat[i], rhs[i], den[i])
        wrow = {c: -v for c, v in wrow.items()}
        wrhs = -wrhs
        if wrhs == 0:
            self._expel_artificials()
            return True

        degenerate_streak = pivots = flips = 0
        for _ in range(_MAX_PIVOTS):
            entering = _entering(wrow, art_cols, degenerate_streak >= _BLAND_AFTER)
            if entering is None:
                return False  # w minimized at a positive value
            # ratio test: the least step t at which a basic value reaches a
            # bound, compared by cross-multiplying (den[i] cancels).  A row
            # with a > 0 falls to 0 at rhs[i] / a; a bounded basic column
            # with a < 0 rises to 1 at (den[i] - rhs[i]) / -a; a bounded
            # entering column stops at its own bound, t = 1 (pr = -1).
            # A bound flip wins ties, as it eliminates nothing.
            pr, best_r, best_a, best_c = None, 0, 1, 0
            if entering < nb:
                pr, best_r, best_a, best_c = -1, 1, 1, -1
            for i, row in enumerate(mat):
                a = row.get(entering)
                if a is None:
                    continue
                if a > 0:
                    r = rhs[i]
                elif basis[i] < nb:
                    r, a = den[i] - rhs[i], -a
                else:
                    continue
                if pr is None or r * best_a < best_r * a or (
                    r * best_a == best_r * a and basis[i] < best_c
                ):
                    pr, best_r, best_a, best_c = i, r, a, basis[i]
            if pr is None:
                raise PipelineError("phase-1 search direction unbounded; w >= 0 forbids this")
            degenerate_streak = degenerate_streak + 1 if best_r == 0 else 0

            if pr < 0:
                # bound flip: the entering column moves to its other bound
                flips += 1
                self._complement(entering)
                v = wrow[entering]
                wrow[entering] = -v
                wrhs -= v
            else:
                pivots += 1
                if mat[pr][entering] < 0:
                    self._complement(basis[pr])  # leaves at its upper bound
                self._pivot(pr, entering)
                if entering in wrow:
                    wrow, wrhs, wden = _eliminate(
                        wrow, wrhs, wden, entering, mat[pr], rhs[pr], den[pr]
                    )
            if wrhs == 0:
                self._expel_artificials()
                return True
        raise PipelineError(
            f"phase-1 simplex exceeded the pivot budget: {pivots} pivots"
            f" and {flips} bound flips over {len(mat)} rows"
        )


# ---------------------------------------------------------------------------
# verification (constraints 1-5 and 7 exactly, plus the distance rule)


def verify_assignment_feasible(graph, capacities, k, assignment, delta, soft=False):
    """True iff the assignment meets LP1 with every x entry within delta hops.

    Each y and x value's (numerator, denominator) is read once; scale is
    the lcm of the distinct denominators, and every value is put over it
    by one multiplication with scale // denominator, so every test runs on
    ints, both sides scale times the rational ones.  At delta 1 an x entry
    uv is tested against N[u] from graph.adjacency, so no hop row is built.
    """
    n = graph.vertex_count
    if assignment.vertex_count != n:
        return False
    xs = assignment.x
    y_ratios = [q.as_integer_ratio() for q in assignment.y]
    x_ratios = [q.as_integer_ratio() for row in xs.values() for q in row.values()]
    dens = {d for _, d in y_ratios}
    dens.update(d for _, d in x_ratios)
    scale = lcm(*dens)
    factor = {d: scale // d for d in dens}
    ys = [p * factor[d] for p, d in y_ratios]
    if any(q < 0 for q in ys) or (not soft and any(q > scale for q in ys)):
        return False
    if sum(ys) != k * scale:
        return False
    if delta == 1:
        adj = graph.adjacency

        def within(u, row):
            return {u, *adj[u]}.issuperset(row)
    else:
        hops = graph.hop_distances()

        def within(u, row):
            hu = hops[u]
            return all(hu[v] != INF and hu[v] <= delta for v in row)
    client_total = [0] * n
    ratios = iter(x_ratios)
    for u, row in xs.items():
        if not within(u, row):
            return False
        yu = ys[u]
        load = 0
        for v, (p, d) in zip(row, ratios):
            q = p * factor[d]
            if q <= 0 or q > yu:
                return False
            load += q
            client_total[v] += q
        if load > capacities[u] * yu:
            return False
    return all(t == scale for t in client_total)


# ---------------------------------------------------------------------------
# solver routes


def _finish(model, assignment):
    ok = verify_assignment_feasible(
        model.graph, model.capacities, model.k, assignment, 1, model.soft
    )
    if not ok:
        raise PipelineError("solver produced an assignment that fails verification")
    return FeasibilityResult(assignment)


def _twin_columns(graph, caps, centers):
    """Each center column's master column, one per twin class; None if that saves little.

    Twins are centers with equal capacity and equal open neighbourhoods
    (false twins, never adjacent) or equal closed ones (true twins, always
    adjacent).  No vertex has both kinds: a false twin u' and a true twin
    u'' of u would make u'' adjacent to u' but not u' to u''.  So a center
    is in its false twins' class if it has a false twin, else in its true
    twins' class.  Each kind is found by one sort, which puts a class in a
    run and compares neighbour lists in place; keying a dict by neighbour
    tuples read the mixed benchmark's peak_alloc_mib 3.5% higher, as freed
    small tuples stay on the interpreter's free lists.  Classes are
    numbered in first-seen center order, and None unless they at least
    halve the centers.
    """
    adj = graph.adjacency
    # twins have equal capacity and degree, so these pairs bound the classes
    # from below; that settles 25 of the 27 scans of a mixed benchmark pass,
    # where running every scan in full took 2% of the pass
    if 2 * len({(caps[u], len(adj[u])) for u in centers}) > len(centers):
        return None
    leader = {}  # center -> the first center of its class, where that is another

    def join(us, hood):
        us = sorted(us, key=lambda u: (caps[u], hood[u]))
        for a, b in zip(us, us[1:]):
            if caps[a] == caps[b] and hood[a] == hood[b]:
                leader[b] = leader.get(a, a)

    join(centers, adj)
    paired = leader.keys() | leader.values()
    solo = [u for u in centers if u not in paired]
    join(solo, {u: sorted(graph.closed_neighborhood(u)) for u in solo})
    classes = {}
    out = [classes.setdefault(leader.get(u, u), len(classes)) for u in centers]
    return out if 2 * len(classes) <= len(centers) else None


def _merge(twin, coefs):
    """Center-column coefficients summed onto their master columns."""
    out = {}
    for i, c in coefs.items():
        t = twin[i]
        out[t] = out.get(t, 0) + c
    return out


def solve_feasibility(model):
    """Decide LP1 by the cut loop; the FeasibilityResult holds a verified point."""
    graph, caps, k, soft = model.graph, model.capacities, model.k, model.soft
    n = graph.vertex_count
    centers = [u for u in range(n) if caps[u] > 0]
    if not centers:
        return FeasibilityResult(None)  # no capacity anywhere, yet k >= 1 clients
    col = {u: i for i, u in enumerate(centers)}
    m = len(centers)

    # one-client inequalities seeded up front: sum of y over N[v] >= 1.
    # Clients that reach the same centers (a class) give the same row,
    # added once; cls[v] is v's class, numbered in first-seen order.
    seeds = {}
    cls = []
    for v in range(n):
        cols = tuple(col[u] for u in sorted(graph.closed_neighborhood(v)) if u in col)
        if not cols:
            return FeasibilityResult(None)  # nobody can serve v
        cls.append(seeds.setdefault(cols, len(seeds)))

    # The master holds one column per twin class of centers when the
    # classes at least halve them, else one per center.  Swapping two
    # twins is an automorphism of the graph that keeps capacities, so it
    # maps LP1 onto itself; LP1 is convex, so if it is feasible, so is the
    # average of a feasible point over those swaps, whose y is constant on
    # each class.  A class column is that shared y, and its coefficient
    # in a row is the sum of its members' coefficients.  Every row is
    # implied by LP1, so an infeasible master still proves LP1
    # infeasible; each round expands the master point to the centers and
    # separates on it, so a violated cut is violated in the master too.
    twin = _twin_columns(graph, caps, centers)
    if twin is None:
        tab = Phase1Tableau(m, bounded=not soft)  # hard mode: y <= 1 as bounds
        tab.add_row({i: 1 for i in range(m)}, "==", k)
        for cols in seeds:
            tab.add_row({c: 1 for c in cols}, ">=", 1)
    else:
        tab = Phase1Tableau(max(twin) + 1, bounded=not soft)
        tab.add_row(_merge(twin, dict.fromkeys(range(m), 1)), "==", k)
        rows = {}  # distinct client rows can merge into one master row
        for cols in seeds:
            row = _merge(twin, dict.fromkeys(cols, 1))
            rows.setdefault(tuple(row.items()), row)
        for row in rows.values():
            tab.add_row(row, ">=", 1)

    # Each round separates on the client classes, one flow node per class
    # weighted by its size.  The short clients of a max flow, the sink side
    # of the minimal minimum cut, are the same set for every maximum flow.
    # Swapping two clients of a class maps the network onto itself, so that
    # set is a union of classes: the class network's cuts are the client
    # network's cuts that are unions of classes, at the same capacity, its
    # short classes expand to exactly the short clients, and |N[u] cap W|
    # is the total size of the short classes u serves.  When the flow serves
    # everyone, x_uv is class c's flow from u over D * |c| for each client v
    # of c: split evenly, that flow serves each client D and carries at most
    # y_u * D on an arc u -> v, so it is a serving flow of the client
    # network.  It is the average of any such flow over the swaps, as the
    # class master's y is over the twin swaps.  reach: center column -> its
    # classes.
    size = [0] * len(seeds)
    for c in cls:
        size[c] += 1
    reach = [[] for _ in range(m)]
    for c, cols in enumerate(seeds):
        for i in cols:
            reach[i].append(c)

    for _ in range(_MAX_ROUNDS):
        if not tab.solve():
            return FeasibilityResult(None)
        vals = tab.values()
        if twin is not None:
            vals = [vals[t] for t in twin]
        # the master point over its common denominator: y_i = ys[i] / scale
        scale = lcm(*(q.denominator for q in vals))
        ys = [q.numerator * (scale // q.denominator) for q in vals]
        live = [i for i in range(m) if ys[i] > 0]
        offers = [(caps[centers[i]] * ys[i], reach[i], ys[i]) for i in live]
        _, flows, short = bipartite_flow(len(size), offers, scale, size)
        if short is None:
            a = Assignment(n)
            for i, u in enumerate(centers):
                a.y[u] = vals[i]
            for i, pairs in zip(live, flows):
                u = centers[i]
                got = dict(pairs)  # class -> its flow from u
                for v, c in enumerate(cls):
                    q = got.get(c)
                    if q:
                        a.set_x(u, v, Fraction(q, scale * size[c]))
            return _finish(model, a)

        coefs = {}
        for i, u in enumerate(centers):
            c = min(caps[u], sum(size[p] for p in reach[i] if p in short))
            if c > 0:
                coefs[i] = c
        w_size = sum(size[p] for p in short)
        lhs = sum(c * ys[i] for i, c in coefs.items())
        if lhs >= w_size * scale:
            raise PipelineError("separated inequality is not violated; cut logic bug")
        tab.add_row(coefs if twin is None else _merge(twin, coefs), ">=", w_size)
    raise PipelineError(
        f"cut loop exceeded the round budget: {_MAX_ROUNDS} rounds over {len(tab.mat)} rows"
    )


def _lp1_rows(model):
    """Full LP1 row list over columns: y_u -> u, x pair j -> n + j.

    The pairs (u, v) with v in N[u] are laid out by u, then v, ascending;
    returns (rows, pair_col), pair_col mapping each pair to its column.
    """
    graph, caps, k, soft = model.graph, model.capacities, model.k, model.soft
    n = graph.vertex_count
    pair_col = {}
    for u in range(n):
        for v in sorted([u] + graph.neighbors(u)):
            pair_col[u, v] = n + len(pair_col)
    rows = []
    rows.append(({u: 1 for u in range(n)}, "==", k, "sum_y"))
    for (u, v), c in pair_col.items():
        rows.append(({c: 1, u: -1}, "<=", 0, f"open_{u}_{v}"))
    by_center = {u: [] for u in range(n)}
    by_client = {v: [] for v in range(n)}
    for (u, v), c in pair_col.items():
        by_center[u].append(c)
        by_client[v].append(c)
    for u in range(n):
        coefs = {c: 1 for c in by_center[u]}
        coefs[u] = coefs.get(u, 0) - caps[u]
        rows.append((coefs, "<=", 0, f"load_{u}"))
    for v in range(n):
        rows.append(({c: 1 for c in by_client[v]}, "==", 1, f"serve_{v}"))
    for u in range(n):
        if caps[u] == 0:
            rows.append(({u: 1}, "<=", 0, f"pin_{u}"))
        elif not soft:
            rows.append(({u: 1}, "<=", 1, f"cap1_{u}"))
    return rows, pair_col


# ---------------------------------------------------------------------------
# LP text dump (interchange format; documentation aid, nothing consumes it)


def format_lp_dump(model):
    n = model.graph.vertex_count
    rows, pair_col = _lp1_rows(model)
    pairs = list(pair_col)

    def var(col):
        if col < n:
            return f"y_{col}"
        u, v = pairs[col - n]
        return f"x_{u}_{v}"

    out = ["\\ LP1 feasibility model (no objective)", "Minimize", " obj: 0 y_0", "Subject To"]
    sense_txt = {"<=": "<=", ">=": ">=", "==": "="}
    for coefs, sense, b, name in rows:
        if name.startswith(("pin_", "cap1_")):
            continue  # bounds section below
        terms = []
        for c in sorted(coefs):
            q = coefs[c]
            if q == 0:
                continue
            sign = "+" if q > 0 else "-"
            mag = abs(q)
            coef_txt = "" if mag == 1 else f"{mag} "
            terms.append(f"{sign} {coef_txt}{var(c)}")
        expr = " ".join(terms)
        if expr.startswith("+ "):
            expr = expr[2:]
        out.append(f" {name}: {expr} {sense_txt[sense]} {b}")
    out.append("Bounds")
    for u in range(n):
        if model.capacities[u] == 0:
            out.append(f" y_{u} = 0")
        elif not model.soft:
            out.append(f" y_{u} <= 1")
    out.append("End")
    return "\n".join(out) + "\n"


def write_lp_dump(model, path):
    write_text(path, format_lp_dump(model))
