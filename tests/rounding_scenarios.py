"""Frozen inputs for the rounding cases that few LP points reach.

Among the first 400 seeded_lp_points(), only point 49 reaches the filled
stand-in leaf of caterpillar._rflow, only point 116 a middle leaf at
_split_at's split position (there v_i is refilled), and point 62 is the
first to reach _split_at's chain shift.  A change to the simplex's pivot
path reshuffles those points, so their inputs are kept here as literals:
the edges, the capacities, k and the LP point as dump_assignment text.  A
fourth scenario is built by hand: its middle leaf drains into v_i without
refilling it, so v_i steps down to be the left piece's end leaf.
"""

from fractions import Fraction

from capkc.assignment import Assignment, parse_assignment_text
from capkc.graph_core import Graph

F = Fraction

# name -> (n, edges, capacities, k, LP point)
FROZEN = {
    "filled-stand-in": (  # seeded_lp_points() point 49
        24,
        [
            (0, 1), (0, 2), (0, 16), (0, 17), (0, 19), (0, 21),
            (1, 2), (1, 5), (2, 3), (2, 4), (2, 9), (2, 10),
            (2, 11), (2, 13), (4, 6), (4, 8), (4, 10), (4, 15),
            (5, 6), (6, 7), (6, 11), (6, 12), (6, 13), (6, 16),
            (6, 17), (6, 18), (7, 12), (7, 22), (8, 12), (8, 13),
            (8, 21), (9, 11), (10, 15), (10, 22), (11, 14), (11, 15),
            (11, 16), (11, 20), (13, 15), (13, 19), (16, 23), (18, 20),
        ],
        [0, 8, 0, 1, 5, 2, 8, 1, 2, 1, 0, 8, 5, 1, 1, 2, 8, 3, 2, 1, 0, 2, 1, 1],
        11,
        """\
y 0 0
y 1 0
y 2 0
y 3 1
y 4 4/7
y 5 1
y 6 3/7
y 7 11/28
y 8 11/28
y 9 4/7
y 10 0
y 11 3/7
y 12 5/28
y 13 3/14
y 14 4/7
y 15 3/7
y 16 1/14
y 17 4/7
y 18 4/7
y 19 1
y 20 0
y 21 17/28
y 22 1
y 23 1
x 3 3 1
x 4 2 4/7
x 4 4 4/7
x 4 8 4/7
x 4 10 4/7
x 4 15 4/7
x 5 1 1
x 5 5 1
x 6 4 3/7
x 6 7 3/7
x 6 11 3/7
x 6 12 3/7
x 6 13 3/7
x 6 16 3/7
x 6 17 3/7
x 6 18 3/7
x 7 7 11/28
x 8 12 11/28
x 8 21 11/28
x 9 9 4/7
x 11 2 3/7
x 11 6 3/7
x 11 9 3/7
x 11 11 3/7
x 11 14 3/7
x 11 15 3/7
x 11 16 3/7
x 11 20 3/7
x 12 6 5/28
x 12 7 5/28
x 12 8 5/28
x 12 12 5/28
x 13 13 3/14
x 14 14 4/7
x 15 10 3/7
x 15 11 1/14
x 15 13 5/14
x 16 0 1/14
x 16 6 1/14
x 16 11 1/14
x 16 16 1/14
x 16 23 1/14
x 17 0 4/7
x 17 6 9/28
x 17 17 4/7
x 18 18 4/7
x 18 20 4/7
x 19 19 1
x 21 0 5/14
x 21 8 1/4
x 21 21 17/28
x 22 22 1
x 23 16 1/14
x 23 23 13/14
""",
    ),
    "split-chain": (  # seeded_lp_points() point 62
        27,
        [
            (0, 1), (0, 2), (0, 11), (1, 3), (1, 16), (2, 4),
            (2, 5), (2, 12), (2, 13), (3, 22), (4, 6), (4, 8),
            (4, 10), (4, 14), (4, 23), (5, 7), (5, 19), (6, 20),
            (6, 24), (7, 10), (7, 15), (8, 9), (8, 10), (9, 18),
            (9, 23), (10, 17), (11, 15), (12, 13), (14, 15), (14, 25),
            (16, 21), (16, 22), (19, 20), (19, 25), (20, 24), (22, 25),
            (25, 26),
        ],
        [1, 0, 3, 2, 2, 2, 3, 5, 1, 0, 1, 3, 3, 3, 0, 3, 1, 1, 2, 1, 3, 0, 2, 2, 5, 1, 2],
        13,
        """\
y 0 0
y 1 0
y 2 1/3
y 3 1
y 4 1
y 5 1
y 6 1
y 7 1/2
y 8 1
y 9 0
y 10 1/6
y 11 2/3
y 12 2/3
y 13 0
y 14 0
y 15 1/3
y 16 1
y 17 1
y 18 1
y 19 0
y 20 0
y 21 0
y 22 1
y 23 0
y 24 1/3
y 25 0
y 26 1
x 2 0 1/3
x 2 12 1/3
x 2 13 1/3
x 3 1 1
x 3 3 1
x 4 10 1/3
x 4 14 2/3
x 4 23 1
x 5 2 1/3
x 5 5 1/2
x 5 7 1/6
x 5 19 1
x 6 4 1
x 6 6 2/3
x 6 20 2/3
x 6 24 2/3
x 7 5 1/2
x 7 7 1/2
x 7 10 1/2
x 7 15 1/2
x 8 8 1
x 10 17 1/6
x 11 0 2/3
x 11 11 2/3
x 11 15 1/2
x 12 2 2/3
x 12 12 2/3
x 12 13 2/3
x 15 7 1/3
x 15 11 1/3
x 15 14 1/3
x 16 21 1
x 17 10 1/6
x 17 17 5/6
x 18 9 1
x 18 18 1
x 22 16 1
x 22 22 1
x 24 6 1/3
x 24 20 1/3
x 24 24 1/3
x 26 25 1
x 26 26 1
""",
    ),
    "middle-leaf-refills": (  # seeded_lp_points() point 116
        22,
        [
            (0, 1), (0, 2), (0, 3), (0, 11), (0, 13), (0, 14),
            (2, 4), (2, 5), (2, 20), (3, 6), (3, 8), (5, 7),
            (6, 10), (6, 11), (6, 13), (6, 14), (6, 15), (8, 9),
            (8, 16), (8, 18), (9, 15), (10, 12), (10, 18), (11, 12),
            (11, 13), (11, 21), (12, 17), (12, 21), (13, 14), (17, 19),
            (17, 20), (18, 20), (20, 21),
        ],
        [2, 5, 5, 5, 5, 2, 1, 1, 0, 8, 3, 1, 8, 1, 3, 8, 8, 1, 8, 3, 1, 3],
        10,
        """\
y 0 9/10
y 1 1/10
y 2 0
y 3 1/10
y 4 1
y 5 1/2
y 6 0
y 7 1
y 8 0
y 9 1/10
y 10 0
y 11 1/5
y 12 3/5
y 13 1/5
y 14 4/5
y 15 9/10
y 16 1
y 17 0
y 18 2/5
y 19 1
y 20 3/5
y 21 3/5
x 0 1 9/10
x 0 3 9/10
x 1 0 1/10
x 1 1 1/10
x 3 0 1/10
x 3 3 1/10
x 3 6 1/10
x 3 8 1/10
x 4 2 1
x 4 4 1
x 5 5 1/2
x 5 7 1/2
x 7 5 1/2
x 7 7 1/2
x 9 8 1/10
x 9 9 1/10
x 9 15 1/10
x 11 13 1/5
x 12 10 3/5
x 12 11 3/5
x 12 12 3/5
x 12 17 3/5
x 12 21 3/5
x 13 14 1/5
x 14 0 4/5
x 14 13 4/5
x 14 14 4/5
x 15 6 9/10
x 15 9 9/10
x 15 15 9/10
x 16 8 4/5
x 16 16 1
x 18 10 2/5
x 18 18 2/5
x 18 20 2/5
x 19 17 2/5
x 19 19 1
x 20 18 3/5
x 21 11 2/5
x 21 12 2/5
x 21 20 3/5
x 21 21 2/5
""",
    ),
}

# Hand-built: construction strings the anchors 0 - 4 - 8 into the spine, with
# the leaves 1, 5 and 9.  v_2 = 4 (capacity 4) is endangered between the
# capacity-5 leaves 1 and 9, and its right side holds 1/2, so separation
# pushes 1/2 from 4 into 9; 4's own leaf 5 (y = 1/10) then refills it only
# to 3/5.  The connectors 2, 3, 6 and 7 have capacity 0 and y = 0.
STEP_DOWN_EDGES = [(0, 1), (0, 2), (2, 3), (3, 4), (4, 5), (4, 6), (6, 7), (7, 8), (8, 9)]
STEP_DOWN_CAPS = [6, 5, 0, 0, 4, 2, 0, 0, 6, 5]
STEP_DOWN_Y = {0: F(1), 1: F(2, 5), 4: F(1), 5: F(1, 10), 8: F(1), 9: F(1, 2)}
STEP_DOWN_X = {
    (0, 0): F(1), (0, 1): F(3, 5), (1, 1): F(2, 5), (0, 2): F(1),
    (4, 3): F(1), (4, 4): F(9, 10), (5, 4): F(1, 10), (4, 5): F(9, 10), (5, 5): F(1, 10),
    (4, 6): F(1), (8, 7): F(1), (8, 8): F(1), (8, 9): F(1, 2), (9, 9): F(1, 2),
}


def step_down_case():
    a = Assignment(10)
    for v, q in STEP_DOWN_Y.items():
        a.y[v] = q
    for (u, v), q in STEP_DOWN_X.items():
        a.set_x(u, v, q)
    return Graph(10, STEP_DOWN_EDGES), list(STEP_DOWN_CAPS), 4, a


SCENARIOS = (*FROZEN, "middle-leaf-steps-down")


def scenario(name):
    """(graph, capacities, k, assignment) of a frozen or the hand-built scenario."""
    if name == "middle-leaf-steps-down":
        return step_down_case()
    n, edges, caps, k, point = FROZEN[name]
    return Graph(n, edges), list(caps), k, parse_assignment_text(point, n)
