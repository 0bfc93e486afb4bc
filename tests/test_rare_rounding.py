"""Each rare rounding case, on its frozen scenario: reached, with pinned outputs.

The scenarios live in rounding_scenarios.py.  Each one's round_y
certificate and final assignment are pinned, and spies check that it
still reaches its case.
"""

import hashlib

import pytest

import capkc.caterpillar as caterpillar
from capkc.assignment import dump_assignment
from capkc.caterpillar import round_y
from capkc.lp_feasibility import verify_assignment_feasible
from capkc.shifting import RoundingContext

from helpers import trace_text
from rounding_scenarios import SCENARIOS, scenario

# sha256 over (stretch, certificate, dump_assignment) of each scenario's round_y
PINS = {
    "filled-stand-in": "d3cae0aec6ef28ebfd4223999d3073940b5dfa8efb1a134d099acb3747f77b79",
    "middle-leaf-refills": "542a5f46e6f608e06cf855eb8bfaf3a0cf2d75e04325971eebba11ce9c539fc5",
    "middle-leaf-steps-down": "8c325c36f94f63e2f2db82a3e25779fb728e869dbf80b9e85431fc5e63e542ba",
    "split-chain": "9ae57a2b44c5bb596cadc34558bbc261ee34db6829100910cd0cd31d868b96fb",
}


def rare_cases_reached(monkeypatch, n, run):
    """run()'s result under spies, and the rare rounding cases it reached, with counts.

    split-chain: _split_at pushes a fractional right side up to an integer.
    middle-leaf-refills / -steps-down: _split_at shifts the middle leaf at
    its split position into v_i, which ends at y = 1 or stays fractional.
    filled-stand-in: an overshoot recursion fills _rflow's stand-in leaf,
    whose id is n or more.
    """
    seen = {}
    split_at, rflow, shift = caterpillar._split_at, caterpillar._rflow, caterpillar.shift
    pending = []  # (middle leaf, v_i) of each open _split_at call

    def hit(case):
        seen[case] = seen.get(case, 0) + 1

    def spy_split_at(ctx, assignment, cat, i, s2, *rest):
        if s2.denominator != 1:
            hit("split-chain")
        pending.append((cat.leaves[i], cat.vertex(i)))
        try:
            return split_at(ctx, assignment, cat, i, s2, *rest)
        finally:
            pending.pop()

    def spy_shift(ctx, assignment, a, b, alpha):
        shift(ctx, assignment, a, b, alpha)
        if pending and (a, b) == pending[-1]:
            hit("middle-leaf-refills" if assignment.y[b] == 1 else "middle-leaf-steps-down")

    def spy_rflow(spine, slots, fresh, budget):
        sub = rflow(spine, slots, fresh, budget)
        if slots[1] is not None and slots[1][0] >= n:
            if any(path[-1] == slots[1][0] for _, path in sub):
                hit("filled-stand-in")
        return sub

    monkeypatch.setattr(caterpillar, "_split_at", spy_split_at)
    monkeypatch.setattr(caterpillar, "shift", spy_shift)
    monkeypatch.setattr(caterpillar, "_rflow", spy_rflow)
    return run(), seen


class TestRareRoundingCases:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_case_is_reached_and_outputs_are_pinned(self, monkeypatch, name):
        g, caps, k, a = scenario(name)
        assert verify_assignment_feasible(g, caps, k, a, 1)
        trace = []
        ctx = RoundingContext(g, caps, trace=trace)
        stretch, seen = rare_cases_reached(monkeypatch, g.vertex_count, lambda: round_y(ctx, a, k))
        assert seen.get(name), seen
        assert all(q in (0, 1) for q in a.y) and a.sum_y() == k
        text = f"{stretch}\n{trace_text(trace)}{dump_assignment(a)}"
        assert hashlib.sha256(text.encode()).hexdigest() == PINS[name]
