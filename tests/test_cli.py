"""Command line behavior: subcommands, exit codes, file round trips."""

import hashlib
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capkc import cli, graph_core
from capkc.assignment import global_delta, read_assignment
from capkc.cli import (
    _budget_range,
    _minimal_budget,
    build_parser,
    main,
)
from capkc.exact_oracle import exact_opt, feasible_at
from capkc.graph_core import (
    HARD,
    MAX_VERTICES,
    SOFT,
    Graph,
    WeightedMetricInstance,
    connected_components,
    induced_subgraph,
    read_instance,
    threshold_graph,
    write_instance,
)
from capkc.instances import gen_fig1, gen_gap_construction, gen_random_connected
from capkc.lp_feasibility import build_lp1, format_lp_dump, solve_feasibility
from capkc.rational import parse_rational
from capkc.shifting import RoundingContext, replay_trace
from capkc.x_rounding import (
    format_solution,
    parse_solution_text,
    read_solution,
    round_x,
    validate_solution,
)


def path_instance(tmp_path, caps, k, name="inst.txt"):
    n = len(caps)
    inst = WeightedMetricInstance.from_weighted_edges(
        n, [(i, i + 1, 1) for i in range(n - 1)], caps, k, HARD
    )
    target = tmp_path / name
    write_instance(inst, target)
    return target


class TestSolve:
    def test_path_needs_radius_two(self, tmp_path, capsys):
        inst = path_instance(tmp_path, [5, 5, 5, 5, 5], 1)
        out = tmp_path / "sol.txt"
        assert main(["solve", str(inst), "--output", str(out)]) == 0
        report = capsys.readouterr().out
        assert "status: solved" in report
        assert "threshold: 2" in report
        assert "stretch: 1" in report
        assert "radius: 2" in report
        sol = read_solution(out)
        assert sol.centers == {2: 1}
        assert main(["verify", str(inst), str(out)]) == 0
        assert capsys.readouterr().out.startswith("valid:")

    def test_solution_to_stdout_when_no_output(self, tmp_path, capsys):
        inst = path_instance(tmp_path, [5, 5, 5], 1)
        assert main(["solve", str(inst)]) == 0
        report = capsys.readouterr().out
        tail = report[report.index("solution ") :]
        assert parse_solution_text(tail).open_count() == 1

    def test_infeasible_reports_component_needs(self, tmp_path, capsys):
        assert main(["gen", "fig1", "--out", str(tmp_path / "f.txt")]) == 0
        code = main(["solve", str(tmp_path / "f.txt")])
        assert code == 2
        report = capsys.readouterr().out
        assert "status: infeasible" in report
        assert report.count("needs 2 centers") == 2

    def test_exact_mode(self, tmp_path, capsys):
        inst = path_instance(tmp_path, [5, 5, 5, 5, 5], 1)
        assert main(["solve", str(inst), "--mode", "exact"]) == 0
        report = capsys.readouterr().out
        assert "method: exact" in report
        assert "radius: 2" in report

    def test_stretch_assertion_failure_exits_one(self, tmp_path, capsys):
        inst = path_instance(tmp_path, [5, 5, 5, 5, 5], 1)
        code = main(["solve", str(inst), "--max-stretch-assert", "0"])
        assert code == 1
        assert "stretch assertion failed" in capsys.readouterr().err

    def test_emits_certificate_and_lp_dump(self, tmp_path, capsys):
        inst = path_instance(tmp_path, [2, 2, 2, 2, 2, 2], 3)
        cert = tmp_path / "cert.txt"
        dump = tmp_path / "lp.txt"
        code = main(
            [
                "solve",
                str(inst),
                "--output",
                str(tmp_path / "s.txt"),
                "--emit-certificate",
                str(cert),
                "--emit-lp-dump",
                str(dump),
            ]
        )
        assert code == 0
        assert cert.read_text().startswith("# component 0 1 2 3 4 5")
        assert dump.read_text()
        capsys.readouterr()

    @pytest.mark.parametrize("mode", ["exact", SOFT])
    def test_exact_and_soft_certificates_are_empty(self, tmp_path, capsys, mode):
        inst = path_instance(tmp_path, [2, 2, 2, 2, 2, 2], 3)
        cert = tmp_path / "cert.txt"
        cert.write_text("stale\n")
        argv = ["solve", str(inst), "--mode", mode, "--emit-certificate", str(cert)]
        assert main(argv) == 0
        assert cert.read_text() == ""
        capsys.readouterr()

    @pytest.mark.parametrize("caps, code, radius", [([5] * 5, 0, 2), ([1] * 3, 2, 2)])
    def test_lp_dump_is_written_once_at_the_last_radius(
        self, tmp_path, capsys, monkeypatch, caps, code, radius
    ):
        # the accepted radius when solved, the largest radius probed when not
        inst = path_instance(tmp_path, caps, 1)
        written = []
        monkeypatch.setattr("capkc.cli.write_lp_dump", lambda lp, path: written.append(lp))
        assert main(["solve", str(inst), "--emit-lp-dump", str(tmp_path / "lp.txt")]) == code
        capsys.readouterr()
        parsed = read_instance(inst)
        expected = build_lp1(threshold_graph(parsed, radius), list(caps), 1)
        assert [format_lp_dump(lp) for lp in written] == [format_lp_dump(expected)]

    def test_seed_recorded(self, tmp_path, capsys):
        inst = path_instance(tmp_path, [5, 5, 5], 1)
        assert main(["solve", str(inst), "--seed", "42"]) == 0
        assert "seed: 42" in capsys.readouterr().out

    def test_soft_mode_runs(self, tmp_path, capsys):
        target = tmp_path / "r.txt"
        assert (
            main(
                [
                    "gen", "random", "--n", "10", "--k", "3",
                    "--cap-lo", "4", "--cap-hi", "4",
                    "--seed", "3", "--mode", "soft", "--out", str(target),
                ]
            )
            == 0
        )
        out = tmp_path / "s.txt"
        assert main(["solve", str(target), "--output", str(out)]) == 0
        assert main(["verify", str(target), str(out)]) == 0
        capsys.readouterr()

    def test_k_beyond_vertices_infeasible(self, tmp_path, capsys):
        inst = path_instance(tmp_path, [5, 5], 4)
        assert main(["solve", str(inst)]) == 2
        assert "exceeds" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["solve", "no-such-file.txt"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_malformed_instance_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("instance 3 1 hard\nedge 0 zero 1\n")
        assert main(["solve", str(bad)]) == 3
        err = capsys.readouterr().err
        assert "error:" in err and "line" in err


def pq_instance(tmp_path, seed=14, n=14, k=5, mode=HARD):
    """Seeded random connected instance with p/q edge weights (common denominator > 1)."""
    rng = random.Random(seed)
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    edges = [(u, v, Fraction(rng.randint(1, 12), rng.randint(1, 6))) for u, v in sorted(pairs)]
    caps = [rng.randint(1, 4) for _ in range(n)]
    inst = WeightedMetricInstance.from_weighted_edges(n, edges, caps, k, mode)
    target = tmp_path / "pq.txt"
    write_instance(inst, target)
    return target


def sha256(data):
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


class TestPinnedFractionalSolve:
    """Every output of one solve on p/q weights, pinned byte for byte.

    The digests were taken with the Fraction metric that preceded the
    integer one; the threshold 9/5 and radius 109/20 are not integers.
    The certificate was re-recorded when hard mode's y <= 1 became column
    bounds of the LP tableau: the LP point, and so the rounding steps, moved,
    while the report, the solution and the LP dump did not.
    """

    def test_outputs_are_unchanged(self, tmp_path, capsys):
        inst = pq_instance(tmp_path)
        sol, cert, dump = (tmp_path / name for name in ("s.txt", "c.txt", "lp.txt"))
        code = main(
            [
                "solve", str(inst), "--output", str(sol),
                "--emit-certificate", str(cert), "--emit-lp-dump", str(dump),
            ]
        )
        assert code == 0
        report = capsys.readouterr().out
        assert report.splitlines()[1:4] == ["threshold: 9/5", "stretch: 4", "radius: 109/20"]
        assert {
            "report": sha256(report),
            "solution": sha256(sol.read_bytes()),
            "certificate": sha256(cert.read_bytes()),
            "lp dump": sha256(dump.read_bytes()),
        } == {
            "report": "0f78fa30e9795c3b1009db0e93b0288ae1ac37f54b47fefc2321d3079f0ee008",
            "solution": "5367c4bdbebb7da01efa8f3f282b909219b9025d559ab96235838e85cacf2b80",
            "certificate": "b879ff027021fe12c1f54d91680844508581df6cc7d0bca9058b47749bd50580",
            "lp dump": "203d7751d45483dedf7119ea3d389d289985362855da91159e8adc24a062e992",
        }


class TestPinnedSoftAndOracle:
    """Soft rounding and the brute-force oracle on p/q weights, pinned byte for byte.

    The digests were taken before the three seat-flow networks were
    folded into one builder.
    """

    def test_soft_solve_is_unchanged(self, tmp_path, capsys):
        inst = pq_instance(tmp_path, mode=SOFT)
        sol = tmp_path / "s.txt"
        assert main(["solve", str(inst), "--mode", "soft", "--output", str(sol)]) == 0
        report = capsys.readouterr().out
        assert report.splitlines()[1:4] == ["threshold: 9/5", "stretch: 3", "radius: 127/30"]
        assert "center 0 4" in sol.read_text()  # a stacked soft center
        assert {"report": sha256(report), "solution": sha256(sol.read_bytes())} == {
            "report": "590e16cf3651305d69471b8950df2ec3e87c74a9c049432ef27c3f38ebf3e7bf",
            "solution": "b756a541f6d11d6cadd65e0362b10a1d5b828c80ca17dbefb248dde79a039779",
        }

    def test_oracle_is_unchanged(self, tmp_path, capsys):
        inst = pq_instance(tmp_path)
        assert main(["oracle", str(inst)]) == 0
        optimum = capsys.readouterr().out
        assert optimum.startswith("radius: 9/5\n")
        assert main(["oracle", str(inst), "--radius", "5/2"]) == 0
        at_radius = capsys.readouterr().out
        assert {"optimum": sha256(optimum), "radius 5/2": sha256(at_radius)} == {
            "optimum": "fe296e2d8be616f0f39d7b63795fb460398e8fc6bbed77e893eda12d27191df3",
            "radius 5/2": "be6883250fc5537d11e42619a77576162fee3b024b29c0c8f84778f9d1a5e27c",
        }


class TestSolvedModeIsValidated:
    def test_soft_solve_of_a_hard_instance_validates_as_soft(self, tmp_path, capsys):
        inst = tmp_path / "hard.txt"
        sol = tmp_path / "soft.txt"
        assert main(["gen", "random", "--n", "14", "--k", "4", "--seed", "3",
                     "--out", str(inst)]) == 0
        assert main(["solve", str(inst), "--mode", "soft", "--output", str(sol)]) == 0
        assert capsys.readouterr().out.startswith("status: solved\n")
        solution = read_solution(sol)
        assert max(solution.centers.values()) > 1  # a stacked center
        hard = read_instance(inst)
        validate_solution(
            hard.scaled, hard.capacities, hard.k, solution, soft=True, scale=hard.scale
        )
        assert main(["verify", str(inst), str(sol)]) == 2
        assert "hard mode cannot open" in capsys.readouterr().out


class TestVertexLimit:
    def test_oversized_instance_exits_three_before_building_rows(self, tmp_path, capsys):
        n = MAX_VERTICES + 1
        inst = tmp_path / "big.txt"
        inst.write_text(
            f"capkc 1 {n} 0 1 hard\n" + "".join(f"v {v} 1\n" for v in range(n))
        )
        tracemalloc.start()
        try:
            code = main(["solve", str(inst)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert f"exceed the limit of {MAX_VERTICES}" in capsys.readouterr().err
        assert peak < n * n * 8 // 20  # one n x n table of pointers is n * n * 8 bytes

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "gap", "--k", "800"],  # n = 1 + 794 * 805
            ["gen", "random", "--n", "300000", "--k", "1"],
            ["gen", "x3c", "--universe", "a,b,c", "--sets", "a,b,c;" * 30],  # n = 2883
        ],
        ids=["gap", "random", "x3c"],
    )
    def test_generators_refuse_before_building(self, argv, capsys):
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert f"exceed the limit of {MAX_VERTICES}" in capsys.readouterr().err
        assert peak < 2**20


class TestVerify:
    def test_tampered_solution_rejected(self, tmp_path, capsys):
        inst = path_instance(tmp_path, [5, 5, 5, 5, 5], 1)
        out = tmp_path / "sol.txt"
        assert main(["solve", str(inst), "--output", str(out)]) == 0
        text = out.read_text().replace("assign 4 2", "assign 4 0")
        (tmp_path / "bad.txt").write_text(text)
        assert main(["verify", str(inst), str(tmp_path / "bad.txt")]) == 2
        output = capsys.readouterr().out
        assert "invalid:" in output

    def test_junk_solution_file(self, tmp_path, capsys):
        inst = path_instance(tmp_path, [5, 5, 5], 1)
        (tmp_path / "junk.txt").write_text("hello\n")
        assert main(["verify", str(inst), str(tmp_path / "junk.txt")]) == 3
        capsys.readouterr()


class TestGen:
    def test_fig1_witness_round_trip(self, tmp_path, capsys):
        inst_path = tmp_path / "f.txt"
        wit_path = tmp_path / "w.txt"
        code = main(
            [
                "gen", "fig1",
                "--out", str(inst_path),
                "--witness-out", str(wit_path),
            ]
        )
        assert code == 0
        inst = read_instance(inst_path)
        assert inst.vertex_count == 12
        witness = read_assignment(wit_path, 12)
        assert witness.sum_y() == 3
        capsys.readouterr()

    def test_gap_instance_size(self, tmp_path, capsys):
        target = tmp_path / "g.txt"
        assert main(["gen", "gap", "--k", "24", "--out", str(target)]) == 0
        assert read_instance(target).vertex_count == 523
        capsys.readouterr()

    def test_x3c(self, tmp_path, capsys):
        target = tmp_path / "x.txt"
        code = main(
            [
                "gen", "x3c",
                "--universe", "a,b,c",
                "--sets", "a,b,c",
                "--out", str(target),
            ]
        )
        assert code == 0
        assert read_instance(target).vertex_count == 12
        capsys.readouterr()

    def test_witness_out_without_witness(self, tmp_path, capsys):
        code = main(
            [
                "gen", "x3c",
                "--universe", "a,b,c",
                "--sets", "a,b,c",
                "--out", str(tmp_path / "x.txt"),
                "--witness-out", str(tmp_path / "w.txt"),
            ]
        )
        assert code == 3
        assert "no witness" in capsys.readouterr().err

    @pytest.mark.parametrize("family", [
        ["random", "--n", "30", "--k", "5"],
        ["x3c", "--universe", "a,b,c", "--sets", "a,b,c"],
    ], ids=["random", "x3c"])
    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    def test_witness_out_is_refused_before_any_output(self, family, to_file, tmp_path, capsys):
        out_path = tmp_path / "r.txt"
        argv = ["gen", *family, "--witness-out", str(tmp_path / "w.txt")]
        if to_file:
            argv += ["--out", str(out_path)]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and "no witness" in err
        assert not out_path.exists() and not (tmp_path / "w.txt").exists()

    def test_stdout_instance(self, capsys):
        assert main(["gen", "fig1"]) == 0
        assert capsys.readouterr().out.strip()

    @pytest.mark.parametrize("density", ["nan", "inf", "-inf", "1e400", "-0.5", "8.5", "1e4"])
    def test_random_refuses_a_bad_density(self, density, capsys):
        argv = ["gen", "random", "--n", "8", "--k", "2", f"--density={density}"]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and "edge density must be in [0, 8]" in err

    @pytest.mark.parametrize("density", ["0", "8"])
    def test_random_takes_density_zero_to_n(self, density, capsys):
        assert main(["gen", "random", "--n", "8", "--k", "2", f"--density={density}"]) == 0
        assert capsys.readouterr().out.startswith("capkc")


class TestOracle:
    def test_exact_search(self, tmp_path, capsys):
        inst = path_instance(tmp_path, [5, 5, 5, 5, 5], 1)
        assert main(["oracle", str(inst)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("radius: 2")

    def test_fixed_radius_query(self, tmp_path, capsys):
        inst = path_instance(tmp_path, [5, 5, 5, 5, 5], 1)
        assert main(["oracle", str(inst), "--radius", "2"]) == 0
        capsys.readouterr()
        assert main(["oracle", str(inst), "--radius", "1"]) == 2
        assert "infeasible at radius 1" in capsys.readouterr().out

    def test_gap_demo_infeasible_everywhere(self, tmp_path, capsys):
        assert main(["gen", "fig1", "--out", str(tmp_path / "f.txt")]) == 0
        assert main(["oracle", str(tmp_path / "f.txt")]) == 2
        assert "infeasible at every radius" in capsys.readouterr().out

    def test_bad_radius_token(self, tmp_path, capsys):
        inst = path_instance(tmp_path, [5, 5, 5], 1)
        assert main(["oracle", str(inst), "--radius", "fast"]) == 3
        assert "bad --radius" in capsys.readouterr().err


class TestParserIsBuiltOnce:
    """main reuses one parser; no call may see another call's options."""

    def test_import_builds_no_parser(self):
        code = "import capkc.cli as c; print(c.build_parser.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.stdout == "0\n", proc.stderr

    def test_usage_error_after_a_good_call(self, tmp_path, capsys):
        inst = path_instance(tmp_path, [5, 5, 5], 1)
        assert main(["oracle", str(inst)]) == 0
        capsys.readouterr()
        assert main(["oracle", str(inst), "--mode", "exact"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: ") and "--mode" in line
        assert build_parser() is build_parser()

    def test_successive_calls_keep_their_own_options(self, tmp_path, capsys):
        # hard mode pads with an idle vertex, soft mode stacks on vertex 0
        path = path_instance(tmp_path, [3, 0, 0], 2)
        inst = read_instance(path)
        calls = [
            (["--mode", "soft", "--radius", "2"], feasible_at(inst, 2, SOFT)),
            ([], exact_opt(inst)),
            (["--radius", "1"], None),
            (["--mode", "soft"], exact_opt(inst, SOFT)),
            (["--radius", "2"], feasible_at(inst, 2)),
        ]
        for extra, want in calls:
            code = main(["oracle", str(path)] + extra)
            out = capsys.readouterr().out
            if want is None:
                assert (code, out) == (2, "infeasible at radius 1\n")
            elif isinstance(want, tuple):
                assert (code, out) == (0, f"radius: {want[0]}\n" + format_solution(want[1]))
            else:
                assert (code, out) == (0, format_solution(want))
        assert exact_opt(inst)[1].centers != exact_opt(inst, SOFT)[1].centers


# each is outside the integer-or-p/q grammar; no test may use a large
# exponent, since a lenient parser would build that number in full
BAD_RATIONALS = ["1e3", "1.5", "1_000", "1/0"]


class TestStrictRationals:
    @pytest.mark.parametrize("token", BAD_RATIONALS)
    def test_solve_rejects_weight(self, tmp_path, capsys, token):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"capkc 1 3 2 1 hard\nv 0 5\nv 1 5\nv 2 5\ne 0 1 1\ne 1 2 {token}\n")
        assert main(["solve", str(bad)]) == 3
        err = capsys.readouterr().err
        assert "line 6: bad weight" in err and repr(token) in err

    @pytest.mark.parametrize("token", BAD_RATIONALS)
    def test_verify_rejects_solution_radius(self, tmp_path, capsys, token):
        inst = path_instance(tmp_path, [5, 5, 5], 1)
        sol = tmp_path / "sol.txt"
        sol.write_text(f"solution 1 {token}\ncenter 1 1\nassign 0 1\nassign 1 1\nassign 2 1\n")
        assert main(["verify", str(inst), str(sol)]) == 3
        assert "line 1:" in capsys.readouterr().err

    @pytest.mark.parametrize("token", BAD_RATIONALS)
    def test_oracle_rejects_radius(self, tmp_path, capsys, token):
        inst = path_instance(tmp_path, [5, 5, 5], 1)
        assert main(["oracle", str(inst), "--radius", token]) == 3
        assert "bad --radius" in capsys.readouterr().err


# The text layer: every file is UTF-8 read and written through one helper
# pair, '#' starts a comment on any line, integers are ASCII [+-]?digits,
# and a file that cannot be read, decoded or written, like a usage error,
# is an input error.  "{d}" in an argument is the test's directory; the
# "missing" directory under it is never made.
PATH5 = b"capkc 1 5 4 1 hard\nv 0 5\nv 1 5\nv 2 5\nv 3 5\nv 4 5\ne 0 1 1\ne 1 2 1\ne 2 3 1\ne 3 4 1\n"
PATH5_SOLUTION = b"solution 1 2\ncenter 2 1\nassign 0 2\nassign 1 2\nassign 2 2\nassign 3 2\nassign 4 2\n"
UNDECODABLE = PATH5.replace(b"v 1 5", b"v 1 5 \xff")
MISSING = "{d}/missing/out.txt"

TEXT_LAYER_CASES = {
    # name: (files, argv, exit code, part of the one reported line or None);
    # verify reports a refused solution (exit 2) on stdout, all else on stderr
    "solve-undecodable-instance": (
        {"i": UNDECODABLE}, ["solve", "{d}/i"], 3, "cannot read instance file"),
    "oracle-undecodable-instance": (
        {"i": UNDECODABLE}, ["oracle", "{d}/i"], 3, "cannot read instance file"),
    "oracle-negative-radius": (
        {"i": PATH5}, ["oracle", "{d}/i", "--radius", "-1"], 3, "radius must be >= 0"),
    "verify-utf8-solution-comment": (
        {"i": PATH5, "s": PATH5_SOLUTION + "# centre à é\n".encode()},
        ["verify", "{d}/i", "{d}/s"], 0, None),
    "solve-unwritable-output": (
        {"i": PATH5}, ["solve", "{d}/i", "-o", MISSING], 3, "cannot write"),
    "solve-unwritable-certificate": (
        {"i": PATH5}, ["solve", "{d}/i", "--emit-certificate", MISSING], 3, "cannot write"),
    "solve-exact-unwritable-output": (
        {"i": PATH5}, ["solve", "{d}/i", "--mode", "exact", "-o", MISSING], 3, "cannot write"),
    "solve-unwritable-lp-dump": (
        {"i": PATH5}, ["solve", "{d}/i", "--emit-lp-dump", MISSING], 3, "cannot write"),
    "gen-unwritable-out": ({}, ["gen", "fig1", "--out", MISSING], 3, "cannot write"),
    "gen-unwritable-witness-out": (
        {}, ["gen", "fig1", "--out", "{d}/f", "--witness-out", MISSING], 3, "cannot write"),
    "gen-stdout-unwritable-witness-out": (
        {}, ["gen", "fig1", "--witness-out", MISSING], 3, "cannot write"),
    "solve-inline-comment-on-vertex": (
        {"i": PATH5.replace(b"v 0 5", b"v 0 5  # hub")}, ["solve", "{d}/i"], 0, None),
    "solve-underscore-in-k": (
        {"i": PATH5.replace(b"4 1 hard", b"4 1_0 hard")}, ["solve", "{d}/i"], 3,
        "line 1: n, m, k must be integers"),
    "solve-arabic-indic-vertex-id": (
        {"i": PATH5.replace(b"v 1 5", "v ١ 5".encode())}, ["solve", "{d}/i"], 3,
        "line 3: vertex id and capacity must be integers"),
    "usage-non-integer-n": ({}, ["gen", "random", "--n", "x", "--k", "3"], 3, "argument --n"),
    "usage-arabic-indic-n": ({}, ["gen", "random", "--n", "١", "--k", "3"], 3, "argument --n"),
    "usage-underscore-seed": (
        {"i": PATH5}, ["solve", "{d}/i", "--seed", "1_0"], 3, "argument --seed"),
    "usage-bad-mode": ({"i": PATH5}, ["solve", "{d}/i", "--mode", "bogus"], 3, "invalid choice"),
    "usage-no-subcommand": ({}, [], 3, "required"),
    # every refusal clause of the instance parser, the solution parser and
    # validate_solution, through the command that reads the file
    "solve-empty-instance": ({"i": b""}, ["solve", "{d}/i"], 3, "empty instance file"),
    "solve-no-vertices": (
        {"i": b"capkc 1 0 0 1 hard\n"}, ["solve", "{d}/i"], 3, "line 1: n must be >= 1"),
    "solve-negative-edge-count": (
        {"i": PATH5.replace(b"5 4 1 hard", b"5 -1 1 hard")}, ["solve", "{d}/i"], 3,
        "line 1: m must be >= 0 and k >= 1"),
    "solve-short-vertex-line": (
        {"i": PATH5.replace(b"v 3 5", b"v 3")}, ["solve", "{d}/i"], 3,
        "line 5: expected 'v <id> <capacity>'"),
    "solve-short-edge-line": (
        {"i": PATH5.replace(b"e 2 3 1", b"e 2 3")}, ["solve", "{d}/i"], 3,
        "line 9: expected 'e <u> <v> <weight>'"),
    "solve-non-integer-endpoint": (
        {"i": PATH5.replace(b"e 2 3 1", b"e 2 x 1")}, ["solve", "{d}/i"], 3,
        "line 9: edge endpoints must be integers"),
    "solve-edge-out-of-range": (
        {"i": PATH5.replace(b"e 2 3 1", b"e 2 9 1")}, ["solve", "{d}/i"], 3,
        "line 9: edge (2,9) out of range [0,5)"),
    "verify-short-solution-line": (
        {"i": PATH5, "s": PATH5_SOLUTION.replace(b"solution 1 2", b"solution 1")},
        ["verify", "{d}/i", "{d}/s"], 3, "line 1: expected 'solution <k> <radius>'"),
    "verify-short-center-line": (
        {"i": PATH5, "s": PATH5_SOLUTION.replace(b"center 2 1", b"center 2")},
        ["verify", "{d}/i", "{d}/s"], 3, "line 2: expected 'center <vertex> <multiplicity>'"),
    "verify-short-assign-line": (
        {"i": PATH5, "s": PATH5_SOLUTION.replace(b"assign 3 2", b"assign 3")},
        ["verify", "{d}/i", "{d}/s"], 3, "line 6: expected 'assign <client> <center>'"),
    "verify-repeated-client": (
        {"i": PATH5, "s": PATH5_SOLUTION.replace(b"assign 3 2", b"assign 2 2")},
        ["verify", "{d}/i", "{d}/s"], 3, "line 6: client 2 repeats"),
    "verify-center-out-of-range": (
        {"i": PATH5, "s": PATH5_SOLUTION.replace(b"center 2 1", b"center 9 1")},
        ["verify", "{d}/i", "{d}/s"], 2, "solution: center 9 out of range"),
    "verify-multiplicity-zero": (
        {"i": PATH5, "s": PATH5_SOLUTION.replace(b"center 2 1", b"center 2 1\ncenter 3 0")},
        ["verify", "{d}/i", "{d}/s"], 2, "solution: center 3 has multiplicity 0"),
    "verify-wrong-phi-length": (
        {"i": PATH5, "s": PATH5_SOLUTION.replace(b"assign 4 2\n", b"")},
        ["verify", "{d}/i", "{d}/s"], 2, "solution: assigns 4 clients, expected 5"),
    "verify-negative-radius": (
        {"i": PATH5, "s": PATH5_SOLUTION.replace(b"solution 1 2", b"solution 1 -2")},
        ["verify", "{d}/i", "{d}/s"], 2, "solution: negative radius"),
}


class TestTextLayer:
    @pytest.mark.parametrize("name", sorted(TEXT_LAYER_CASES))
    def test_case(self, tmp_path, capsys, name):
        files, argv, code, message = TEXT_LAYER_CASES[name]
        for fname, data in files.items():
            (tmp_path / fname).write_bytes(data)
        assert main([a.replace("{d}", str(tmp_path)) for a in argv]) == code
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        if code == 3:  # nothing is reported or written before an input error
            assert out == ""
            assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
        if message is None or code == 2:
            assert err == ""
        if message is not None:
            (line,) = (out if code == 2 else err).splitlines()
            assert line.startswith("invalid: " if code == 2 else "error: ") and message in line

    def test_usage_error_exits_three_from_the_process(self):
        proc = subprocess.run(
            [sys.executable, "-m", "capkc", "gen", "random", "--n", "x", "--k", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


def joined_instance(tmp_path, seeds):
    """Seeded random parts (n=14, k=4 each) chained by edges of weight 50.

    Each part solves at threshold 1 from a fractional LP point, so at that
    threshold every part is its own component with a non-empty trace.
    """
    edges, caps = [], []
    for t, seed in enumerate(seeds):
        part = gen_random_connected(14, 0.6, (2, 5), 4, seed)
        edges += [(u + 14 * t, v + 14 * t, w) for u, v, w in part.edges]
        caps += part.capacities
        if t:
            edges.append((14 * (t - 1), 14 * t, 50))
    inst = WeightedMetricInstance.from_weighted_edges(len(caps), edges, caps, 4 * len(seeds), HARD)
    target = tmp_path / "joined.txt"
    write_instance(inst, target)
    return target


class TestCertificateReplay:
    @pytest.mark.parametrize("seeds", [(16, 4), (16,)])
    def test_each_section_replays_to_the_emitted_assignment(self, tmp_path, capsys, seeds):
        path = joined_instance(tmp_path, seeds)
        sol_path, cert_path = tmp_path / "s.txt", tmp_path / "c.txt"
        argv = ["solve", str(path), "-o", str(sol_path), "--emit-certificate", str(cert_path)]
        assert main(argv) == 0
        report = capsys.readouterr().out.splitlines()
        assert report[1] == "threshold: 1"
        inst = read_instance(path)
        emitted = read_solution(sol_path)
        g = threshold_graph(inst, parse_rational(report[1].split()[1]))
        # each section keeps its '# component' header, which replay skips
        sections = re.split(r"(?m)^(?=# component )", cert_path.read_text())[1:]
        assert len(sections) == len(seeds)
        for section in sections:
            assert section.count("\n") > 1
            ids = [int(v) for v in section.split("\n", 1)[0].split()[2:]]
            sub, old_ids = induced_subgraph(g, ids)
            caps = [inst.capacities[v] for v in old_ids]
            k_cap = min(inst.k, sub.vertex_count)
            budget, point = _minimal_budget(sub, caps, *_budget_range(caps, k_cap, False), False)
            replayed = replay_trace(RoundingContext(sub, caps), point, section)
            sol = round_x(sub, caps, replayed, global_delta(replayed, sub))
            assert [old_ids[c] for c in sol.phi] == [emitted.phi[v] for v in old_ids]


@st.composite
def budget_cases(draw):
    """(graph, capacities, soft): a small graph, often with capacity-0 vertices."""
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    caps = draw(st.lists(st.sampled_from((0, 0, 0, 1, 2, 3, 4)), min_size=n, max_size=n))
    return Graph(n, edges), caps, draw(st.booleans())


def zero_capacity_instance(tmp_path, seed):
    """Seeded connected hard instance, n 3..8, about 3/7 of capacities 0."""
    rng = random.Random(seed)
    n = rng.randint(3, 8)
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(n // 2):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    edges = [(u, v, rng.randint(1, 3)) for u, v in sorted(pairs)]
    caps = [rng.choice((0, 0, 0, 1, 2, 3, 4)) for _ in range(n)]
    inst = WeightedMetricInstance.from_weighted_edges(n, edges, caps, rng.randint(1, n), HARD)
    target = tmp_path / f"zero{seed}.txt"
    write_instance(inst, target)
    return target


class TestBudgetSearch:
    """_minimal_budget binary-searches k', so feasibility must only grow with it.

    In hard mode LP1 pins capacity-0 vertices at y = 0: every k' above the
    P positive-capacity vertices is infeasible, and the search stops at P.
    Below the seat-count floor no k' is feasible, and the search starts
    there.
    """

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(budget_cases())
    def test_feasibility_only_grows_with_the_budget(self, case):
        g, caps, soft = case
        top = g.vertex_count + soft  # hard-mode LP1 refuses k' > n
        feasible = [
            solve_feasibility(build_lp1(g, caps, kk, soft=soft)).feasible
            for kk in range(1, top + 1)
        ]
        if not soft:
            positive = sum(1 for c in caps if c > 0)
            assert not any(feasible[positive:])
            feasible = feasible[:positive]
        assert feasible == sorted(feasible)
        found = _minimal_budget(g, caps, *_budget_range(caps, top, soft), soft)
        first = feasible.index(True) + 1 if True in feasible else None
        assert (found and found[0]) == first

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(budget_cases())
    def test_no_budget_outside_the_seat_range_is_feasible(self, case):
        g, caps, soft = case
        top = g.vertex_count + soft
        lo, hi = _budget_range(caps, top, soft)
        for kk in range(1, top + 1):
            if not lo <= kk <= hi:
                assert not solve_feasibility(build_lp1(g, caps, kk, soft=soft)).feasible, kk

    @pytest.mark.parametrize("family", ["fig1", "gap-24-nonuniform"])
    def test_a_feasible_floor_costs_one_lp(self, monkeypatch, family):
        if family == "fig1":
            inst, _ = gen_fig1()
        else:
            inst, _ = gen_gap_construction(24, nonuniform=True)
        probes = []
        real = cli.solve_feasibility

        def spy(model):
            probes.append(model.k)
            return real(model)

        monkeypatch.setattr(cli, "solve_feasibility", spy)
        g = threshold_graph(inst, Fraction(1))
        for comp in connected_components(g):
            sub, old_ids = induced_subgraph(g, comp)
            caps = [inst.capacities[v] for v in old_ids]
            # the widest range hard mode allows: the middle of (lo, hi) is
            # not lo, so one LP means the floor was probed first
            lo, hi = _budget_range(caps, sub.vertex_count, False)
            assert (lo + hi) // 2 > lo
            probes.clear()
            budget, _ = _minimal_budget(sub, caps, lo, hi, False)
            assert budget == lo and probes == [lo]
        # fig1: 6 clients, capacity 4 each; gap: 523 clients, capacity 23
        assert lo == (2 if family == "fig1" else 23)

    def test_star_with_capacity_zero_leaves_solves(self, tmp_path, capsys):
        # nine capacity-0 leaves: budgets above 1 are infeasible, yet k = 5
        # is met by padding with unused leaves
        inst = WeightedMetricInstance.from_weighted_edges(
            10, [(0, v, 1) for v in range(1, 10)], [10] + [0] * 9, 5, HARD
        )
        path, out = tmp_path / "star.txt", tmp_path / "sol.txt"
        write_instance(inst, path)
        assert main(["solve", str(path), "-o", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == ["status: solved", "threshold: 1"]
        validate_solution(inst.scaled, inst.capacities, 5, read_solution(out), False, inst.scale)

    def test_solve_agrees_with_the_exact_oracle_on_zero_capacities(self, tmp_path, capsys):
        solved = 0
        for seed in range(40):
            path, out = zero_capacity_instance(tmp_path, seed), tmp_path / "sol.txt"
            code = main(["solve", str(path), "-o", str(out)])
            assert code == main(["solve", str(path), "--mode", "exact"]), seed
            if code == 0:
                solved += 1
                assert main(["verify", str(path), str(out)]) == 0
        capsys.readouterr()
        assert 10 <= solved < 40


class TestHopRowsOnDemand:
    """A stage reads the hop rows it needs; a walk over every row would
    bring back the dense n x n build."""

    def solve_and_check_rows(self, tmp_path, monkeypatch, capsys, options):
        # `gen gap --k 24`, nonuniform: 523 vertices, capacity on the root and hubs
        inst, _ = gen_gap_construction(24, nonuniform=True)
        path = tmp_path / "gap.txt"
        write_instance(inst, path)
        graphs, built = [], []
        real_table, real_row = Graph.hop_distances, graph_core._bfs_row

        def table(graph):
            graphs.append(graph)
            return real_table(graph)

        def row(adjacency, s, step):
            built.append((adjacency, s))
            return real_row(adjacency, s, step)

        monkeypatch.setattr(Graph, "hop_distances", table)
        monkeypatch.setattr(graph_core, "_bfs_row", row)
        assert main(["solve", str(path), *options]) == 0
        assert capsys.readouterr().out.startswith("status: solved")
        tables = {id(g): g for g in graphs}.values()
        assert sum(g.vertex_count == inst.vertex_count for g in tables) == 1
        for g in tables:
            rows = [s for adjacency, s in built if adjacency is g.adjacency]
            assert len(rows) == len(set(rows))  # each row built once
            if g.vertex_count == inst.vertex_count:  # the accepted component
                assert 0 < len(rows) <= g.vertex_count // 5, len(rows)

    def test_the_accepted_component_reads_few_hop_rows(self, tmp_path, monkeypatch, capsys):
        self.solve_and_check_rows(tmp_path, monkeypatch, capsys, [])

    def test_a_soft_solve_reads_only_anchor_hop_rows(self, tmp_path, monkeypatch, capsys):
        # the anchor stages read hops[s][v] from anchor s, never a row per vertex
        self.solve_and_check_rows(tmp_path, monkeypatch, capsys, ["--mode", SOFT])


def sweep_instance(tmp_path, seed):
    """Seeded p/q instance, n 4..12, about 2/7 of capacities 0.

    About a third of them fall apart into two parts that no radius joins,
    so many are infeasible at every radius.
    """
    rng = random.Random(seed)
    n = rng.randint(4, 12)
    half = n // 2 if rng.random() < 0.3 else 0
    pairs = {(rng.randrange(half if v >= half else 0, v), v) for v in range(1, n) if v != half}
    for _ in range(n // 2):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (u < half) == (v < half):
            pairs.add((min(u, v), max(u, v)))
    edges = [(u, v, Fraction(rng.randint(1, 9), rng.randint(1, 4))) for u, v in sorted(pairs)]
    caps = [rng.choice((0, 0, 1, 2, 3, 4, 5)) for _ in range(n)]
    inst = WeightedMetricInstance.from_weighted_edges(n, edges, caps, rng.randint(1, n // 2), HARD)
    target = tmp_path / f"sweep-{seed}.txt"
    write_instance(inst, target)
    return target


class TestRadiusSkip:
    """solve passes over a radius whose seat counts exceed k, without its LPs.

    Planning such a radius in full must reject it: a component has no
    feasible budget, or the budgets add up to more than k.  The largest
    radius is always planned in full, for the infeasible report.
    """

    def solve_all(self, tmp_path, capsys):
        outputs = []
        for seed in range(40):
            path = sweep_instance(tmp_path, seed)
            for mode in (HARD, SOFT):
                code = main(["solve", str(path), "--mode", mode])
                outputs.append((code, capsys.readouterr().out))
        return outputs

    def test_every_skipped_radius_is_rejected_in_full(self, tmp_path, capsys, monkeypatch):
        skipped = []
        real = cli._plan

        def spy(inst, r, soft, last):
            plan = real(inst, r, soft, last)
            if plan is None:
                skipped.append((inst, r, soft))
            return plan

        monkeypatch.setattr(cli, "_plan", spy)
        codes = {code for code, _ in self.solve_all(tmp_path, capsys)}
        assert codes == {0, 2}
        assert len(skipped) >= 100
        for inst, r, soft in skipped:
            found = [f for *_, f in real(inst, r, soft, True)]
            assert None in found or sum(budget for budget, _ in found) > inst.k

    def test_skipping_changes_no_output(self, tmp_path, capsys, monkeypatch):
        skipping = self.solve_all(tmp_path, capsys)
        real = cli._plan
        monkeypatch.setattr(cli, "_plan", lambda inst, r, soft, last: real(inst, r, soft, True))
        assert self.solve_all(tmp_path, capsys) == skipping

    def test_a_skipped_radius_builds_no_subgraph(self, tmp_path, capsys, monkeypatch):
        # the seat counts read the components' vertex lists; only a radius
        # that is planned builds its parts, one subgraph each
        built, plans = [], []
        real_subgraph, real_plan = cli.induced_subgraph, cli._plan

        def spy_subgraph(graph, vertices):
            built.append(vertices)
            return real_subgraph(graph, vertices)

        def spy_plan(inst, r, soft, last):
            built.clear()
            plan = real_plan(inst, r, soft, last)
            plans.append((plan is None, len(built), len(plan or ())))
            return plan

        monkeypatch.setattr(cli, "induced_subgraph", spy_subgraph)
        monkeypatch.setattr(cli, "_plan", spy_plan)
        self.solve_all(tmp_path, capsys)
        assert sum(skipped for skipped, *_ in plans) >= 100
        assert all(n_built == (0 if skipped else parts) for skipped, n_built, parts in plans)

    def test_infeasible_report_and_lp_dump_are_pinned(self, tmp_path, capsys):
        # a path with capacity, and a part with none: every radius is ruled
        # out by counts; the largest is planned in full all the same.  The
        # digests were taken before the skip.
        inst = WeightedMetricInstance.from_weighted_edges(
            7,
            [(0, 1, 1), (1, 2, Fraction(3, 2)), (2, 3, 2),
             (4, 5, Fraction(1, 2)), (5, 6, Fraction(5, 3))],
            [2, 0, 3, 1, 0, 0, 0],
            2,
            HARD,
        )
        path, dump = tmp_path / "parts.txt", tmp_path / "lp.txt"
        write_instance(inst, path)
        assert main(["solve", str(path), "--emit-lp-dump", str(dump)]) == 2
        report = capsys.readouterr().out
        assert report.splitlines()[-2:] == [
            "  component of 0: needs 2 centers",
            "  component of 4: relaxation infeasible for every budget up to 2",
        ]
        assert {"report": sha256(report), "lp dump": sha256(dump.read_bytes())} == {
            "report": "cb983a5aee24f6a98f50c31319085a65c8cd53aa36a1aa45c28725552ad559da",
            "lp dump": "68309cd5f35274a1cbf181a5a1e87dd62973d78b51abeab782903312706898ab",
        }

    def test_a_part_without_capacity_spares_every_lp_below_the_largest(
        self, tmp_path, capsys, monkeypatch
    ):
        # {3, 4} has no capacity at any radius, while the floors stay within
        # k = 4 from radius 1 on: only the empty budget range rules r out
        inst = WeightedMetricInstance.from_weighted_edges(
            5, [(0, 1, 1), (1, 2, 2), (3, 4, 1)], [2, 0, 3, 0, 0], 4, HARD
        )
        path = tmp_path / "bare.txt"
        write_instance(inst, path)
        calls = []
        real = cli.solve_feasibility

        def spy(model):
            calls.append(model)
            return real(model)

        monkeypatch.setattr(cli, "solve_feasibility", spy)
        assert main(["solve", str(path)]) == 2
        capsys.readouterr()
        solved = len(calls)
        cli._plan(inst, Fraction(3), False, True)
        assert solved == len(calls) - solved > 0


def bracket_instance(tmp_path, seed, mode):
    """Seeded connected p/q instance, n 4..8, about 2/7 of capacities 0."""
    rng = random.Random(seed)
    n = rng.randint(4, 8)
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(n // 2):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    edges = [(u, v, Fraction(rng.randint(1, 9), rng.randint(1, 4))) for u, v in sorted(pairs)]
    caps = [rng.choice((0, 0, 1, 2, 3, 4, 5)) for _ in range(n)]
    inst = WeightedMetricInstance.from_weighted_edges(n, edges, caps, rng.randint(1, n // 2), mode)
    target = tmp_path / f"bracket-{mode}-{seed}.txt"
    write_instance(inst, target)
    return target


def joined_fig1(tmp_path, weight, mode):
    """gen_fig1's two hub gadgets joined hub to hub by one edge.

    At the joining radius the relaxation fits k = 3 across the one
    component, yet no integral placement does: threshold < optimum.
    """
    fig1, _ = gen_fig1()
    edges = fig1.edges + [(0, 6, weight)]
    inst = WeightedMetricInstance.from_weighted_edges(12, edges, fig1.capacities, 3, mode)
    target = tmp_path / f"joined-{mode}-{weight}.txt"
    write_instance(inst, target)
    return target


class TestOracleBracketsTheSolve:
    """threshold <= oracle optimum <= reported radius <= stretch * threshold.

    The threshold is the first radius whose relaxation fits in k, so it
    is a lower bound on the integral optimum; every served client sits
    within `stretch` threshold-graph hops of its center, each hop at most
    the threshold long.  solve and the oracle agree on solvability.
    """

    @pytest.mark.parametrize("mode", [HARD, SOFT])
    def test_seeded_instances(self, tmp_path, capsys, mode):
        paths = [bracket_instance(tmp_path, seed, mode) for seed in range(60)]
        paths += [joined_fig1(tmp_path, weight, mode) for weight in (1, 2, 5)]
        solved = gaps = 0
        for path in paths:
            code = main(["solve", str(path), "--mode", mode, "-o", str(tmp_path / "sol.txt")])
            report = capsys.readouterr().out
            assert main(["oracle", str(path), "--mode", mode]) == code, path.name
            optimum = capsys.readouterr().out.splitlines()[0]
            if code != 0:
                continue
            solved += 1
            report = dict(line.split(": ", 1) for line in report.splitlines())
            threshold = parse_rational(report["threshold"])
            radius = parse_rational(report["radius"])
            stretch = int(report["stretch"])
            best = parse_rational(optimum.removeprefix("radius: "))
            assert threshold <= best <= radius <= stretch * threshold, path.name
            gaps += threshold < best
        assert 30 <= solved < len(paths)
        assert gaps >= 3  # the joined gadgets, at least


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "capkc", "gen", "fig1"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip()
