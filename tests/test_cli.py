"""Command line behavior: subcommands, exit codes, file round trips."""

import hashlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from capkc.assignment import read_assignment
from capkc.cli import main
from capkc.graph_core import (
    HARD,
    SOFT,
    WeightedMetricInstance,
    read_instance,
    write_instance,
)
from capkc.x_rounding import parse_solution_text, read_solution


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
            "certificate": "0d5b9a9536a7d7c6dd2bb713f43bc80dda87bd0295b318e4befd6107f85d7d38",
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

    def test_stdout_instance(self, capsys):
        assert main(["gen", "fig1"]) == 0
        assert capsys.readouterr().out.strip()


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


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "capkc", "gen", "fig1"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip()
