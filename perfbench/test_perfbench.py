"""Tests of the benchmark's own arithmetic, checks and inputs.

    python3 -m pytest perfbench
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import spans
from checks import CheckError, check_call, check_solution
from corpus import WORKLOADS, Instance, hub_chain, workload_inputs


def _span(name, start, end, parent=None, **attrs):
    s = spans.Span(name, start, parent, 1)
    s.end = end
    s.attrs.update(attrs)
    return s


def test_percentile_interpolates_between_ranks():
    assert spans.percentile([3, 1, 2], 50) == 2
    assert spans.percentile([1, 2, 3, 4], 50) == 2.5
    assert spans.percentile([10, 20, 30, 40, 50], 90) == pytest.approx(46)
    assert spans.percentile([7], 99) == 7
    with pytest.raises(ValueError):
        spans.percentile([], 50)


def test_self_time_subtracts_direct_children_only():
    synthetic = [
        _span("cli.main", 0.0, 10.0),
        _span("lp_feasibility.solve", 1.0, 7.0, 0, radius0=False, singleton=False,
              feasible=True, bits=9),
        _span("lp_feasibility.tableau", 2.0, 5.0, 1),
        _span("flownet.max_flow", 5.5, 6.5, 1),
        _span("lp_feasibility.solve", 8.0, 9.0, 0, radius0=True, singleton=True,
              feasible=False),
    ]
    assert spans.self_times(synthetic) == [3.0, 2.0, 3.0, 1.0, 1.0]
    m = spans.layer_metrics(synthetic, passes=2)
    assert m["cli.self_s"] == 1.5
    assert m["lp_feasibility.solve_s"] == 3.5
    assert m["lp_feasibility.solve_s.radius0"] == 0.5
    assert m["lp_feasibility.solve_s.radius_pos"] == 3.0
    assert m["lp_feasibility.tableau_s"] == 1.5
    assert m["flownet.max_flow_s.lp"] == 0.5
    assert m["flownet.max_flow.calls.oracle"] == 0
    assert m["cli.budget_probes"] == 0.5 and m["cli.singleton_probes"] == 0.5
    assert m["lp_feasibility.feasible_frac"] == 0.5
    assert m["lp_feasibility.result_bits.max"] == 9
    with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        per_layer = {metric["name"] for metric in json.load(fh)["per_layer"]}
    assert per_layer - set(m) == {"trace.overhead_frac"}


# a path 0 - 1 - 2 with unit weights; capacity 2 everywhere, k = 2
PATH = Instance("path", (2, 2, 2), ((0, 1, 1), (1, 2, 1)), 2)
GOOD = "solution 2 1\ncenter 0 1\ncenter 2 1\nassign 0 0\nassign 1 0\nassign 2 2\n"
REPORT = "status: solved\nthreshold: 1\nstretch: 1\nradius: 1\n"


def test_checker_accepts_a_valid_solution():
    metric = PATH.metric()
    assert check_solution(PATH, metric, GOOD) == 1
    exp = {"exit": 0, "threshold": "1"}
    assert check_call("solve", PATH, metric, exp, 0, REPORT, GOOD) == 1


def test_checker_flags_a_client_moved_beyond_the_radius():
    tampered = GOOD.replace("assign 0 0", "assign 0 2")
    with pytest.raises(CheckError, match="beyond radius"):
        check_solution(PATH, PATH.metric(), tampered)


def test_checker_flags_a_wrong_threshold_and_exit_code():
    metric = PATH.metric()
    with pytest.raises(CheckError, match="threshold"):
        check_call("solve", PATH, metric, {"exit": 0, "threshold": "2"}, 0, REPORT, GOOD)
    with pytest.raises(CheckError, match="exit code"):
        check_call("solve", PATH, metric, {"exit": 2}, 0, REPORT, GOOD)


def test_checker_flags_overloaded_center_and_stretch_violation():
    metric = PATH.metric()
    overloaded = GOOD.replace("assign 2 2", "assign 2 0").replace("solution 2 1", "solution 2 2")
    with pytest.raises(CheckError, match="serves 3 clients"):
        check_solution(PATH, metric, overloaded)
    roomy = Instance("roomy", (3, 3, 3), PATH.edges, 2)
    far = "solution 2 2\ncenter 0 1\ncenter 2 1\nassign 0 2\nassign 1 2\nassign 2 2\n"
    report = REPORT.replace("radius: 1", "radius: 2")
    with pytest.raises(CheckError, match="stretch"):
        check_call("solve", roomy, roomy.metric(), {"exit": 0, "threshold": "1"}, 0, report, far)


def test_oracle_check_wants_the_recorded_optimum():
    metric = PATH.metric()
    out = "radius: 1\n" + GOOD
    assert check_call("oracle", PATH, metric, {"exit": 0, "optimum": "1"}, 0, out, "") == 1
    with pytest.raises(CheckError, match="optimum"):
        check_call("oracle", PATH, metric, {"exit": 0, "optimum": "2"}, 0, out, "")


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_each_seed_gives_the_same_bytes_twice(workload):
    first = workload_inputs(workload, 7)
    again = workload_inputs(workload, 7)
    assert first[0] == again[0]
    assert [i.text() for i in first[1]] == [i.text() for i in again[1]]
    names = sorted(i.name for i in first[1])
    assert len(set(names)) == len(names)
    assert names == sorted(i.name for i in workload_inputs(workload, 8)[1])


def test_hub_chain_is_the_gap_construction():
    inst = hub_chain(18)
    assert (inst.n, inst.k, len(inst.edges)) == (523, 24, 990)
    assert set(inst.capacities) == {23}


def test_metric_is_the_shortest_path_closure():
    inst = Instance("tri", (1, 1, 1), ((0, 1, 1), (0, 2, 5), (1, 2, "3/2")), 1)
    assert inst.metric()[0] == [0, 1, Fraction(5, 2)]
    apart = Instance("apart", (1, 1), (), 1)
    assert apart.metric()[0][1] is None
