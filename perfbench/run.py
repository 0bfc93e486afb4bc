"""capkc benchmark: closed loop, one caller, everything in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

A pass is one call of ``capkc.cli.main`` per input of the workload, made
in-process with stdout captured; the next call starts when the previous
one returns.  The timed call includes parsing the instance file and the
exact metric closure, as a user's ``capkc solve`` does, but not
interpreter start-up.  Passes repeat until S seconds have gone by.
A first, untimed pass warms up.  Every call's output, that pass's too,
is checked outside the timed region (checks.py).

Before each untraced pass the run times reference(), a fixed computation that
does not use capkc.  pass_ref_ratio.p50, the median over passes of pass
time over reference time, is the gated time: it measures the program
the way pass_s.p50 does, but does not move when other tenants of the
host slow everything down.  pass_s.p50 and calls_per_s are printed too.

Set-up writes the instance files once, then imports capkc IMPORT_REPEATS
times from its compiled bytecode, each import after a reference() run.
setup_s is the median import time over reference time, in seconds at
the reference speed REF_S: it grows when capkc does more work at import.
A second untimed pass runs under tracemalloc; peak_alloc_mib is the
largest peak of memory allocated within one call, so memory the
interpreter and the benchmark hold does not count.  radius_ratio.mean
is 1 by construction on the oracle workload (the check fails any answer
that is not the optimum).  With --trace 1 the run alternates plain and
traced passes and reports the per-layer metrics of spans.py, per traced
pass; trace.overhead_frac is the median over adjacent plain and traced
passes of their time ratio, minus 1.  Metric names and units are those
of BENCHMARK.json.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Spans and a stamped
result go to .perfbench_work/<workload>/ in the checkout.

``--workload all`` runs each workload in its own process, one after the
other, and prints every metric per workload.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tracemalloc
from collections import deque
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
IMPORT_REPEATS = 31
REF_S = 0.08  # median time of reference() on a 2-vCPU VM, Python 3.11

import spans  # noqa: E402
from checks import check_call  # noqa: E402
from corpus import WORKLOADS, workload_inputs  # noqa: E402


def _units(kind):
    """Metric name -> unit, for kind "end_to_end" or "per_layer" of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def reference():
    """A fixed pure-Python computation, independent of capkc, timed before each pass.

    Its time tracks how fast the host runs Python at that moment: other
    tenants slow a whole pass by up to 1.5x for seconds to minutes, and
    slow this the same way.  Like capkc's inner loops it does exact
    rational arithmetic with dict updates, and builds and searches
    adjacency lists, which allocates much as the max-flow code does.
    """
    acc = Fraction(0)
    table = {}
    for i in range(1, 6000):
        q = Fraction(i % 101, i % 37 + 1)
        acc += q
        table[i % 211] = table.get(i % 211, 0) + q * q
    n = 1500
    reached = 0
    for step in (7, 11, 13):
        adj = [[(v * step + j) % n for j in range(1, 6)] for v in range(n)]
        for s in range(0, n, 150):
            level = [-1] * n
            level[s] = 0
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for w in adj[u]:
                    if level[w] < 0:
                        level[w] = level[u] + 1
                        queue.append(w)
            reached += sum(1 for d in level if d >= 0)
    return acc, table, reached


def _timed_reference():
    start = perf_counter()
    reference()
    return perf_counter() - start


def _import_capkc():
    """A fresh import of capkc from the checkout's src/; returns (module, seconds)."""
    for name in [m for m in sys.modules if m == "capkc" or m.startswith("capkc.")]:
        del sys.modules[name]
    start = perf_counter()
    importlib.import_module("capkc.cli")
    return sys.modules["capkc"], perf_counter() - start


def _setup(workload, seed, workdir):
    """Instance files, and capkc imported; returns (setup_s, capkc, command, insts, paths)."""
    command, insts = workload_inputs(workload, seed)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    paths = []
    for i, inst in enumerate(insts):
        path = workdir / f"{i:02d}-{inst.name}.instance"
        path.write_text(inst.text(), encoding="utf-8")
        paths.append(path)
    _import_capkc()  # compiles the bytecode once
    ratios = []
    for _ in range(IMPORT_REPEATS):
        ref = _timed_reference()
        capkc, took = _import_capkc()
        ratios.append(took / ref)
    return spans.percentile(ratios, 50) * REF_S, capkc, command, insts, paths


def stamp(capkc):
    """What a result must be compared under: never mix gmpy2 and Fraction runs."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "capkc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "gmpy2": capkc.rational.HAVE_GMPY2,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def _run_pass(capkc, command, paths, tracer=None):
    """Call capkc once per input; returns (timed seconds, [(rc, stdout, solution)])."""
    elapsed = 0.0
    outputs = []
    for path in paths:
        sol_path = path.with_suffix(".solution")
        sol_path.unlink(missing_ok=True)
        argv = [command, str(path)] + (["-o", str(sol_path)] if command == "solve" else [])
        if tracer is not None:
            tracer.call += 1
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                rc = capkc.cli.main(argv)
            except Exception as exc:  # a crash is a failed call, not a dead run
                rc = f"{type(exc).__name__}: {exc}"
            elapsed += perf_counter() - start
        solution = sol_path.read_text(encoding="ascii") if sol_path.exists() else ""
        outputs.append((rc, out.getvalue(), solution))
    return elapsed, outputs


class Tally:
    """Checked outcomes over all calls of a run."""

    def __init__(self, command, insts, expected):
        self.command = command
        self.insts = insts
        self.expected = [expected[inst.name] for inst in insts]
        self.dists = [inst.metric() for inst in insts]
        self.attempted = 0
        self.failures = []
        self.ratios = []

    def check(self, outputs):
        for inst, metric, exp, (rc, stdout, solution) in zip(
                self.insts, self.dists, self.expected, outputs):
            self.attempted += 1
            try:
                ratio = check_call(self.command, inst, metric, exp, rc, stdout, solution)
            except Exception as exc:  # every kind of wrong output is one failure
                self.failures.append(f"{inst.name}: {type(exc).__name__}: {exc}")
                continue
            if ratio is not None:
                self.ratios.append(ratio)


def _memory_pass(capkc, command, paths):
    """One pass under tracemalloc; returns (outputs, largest per-call peak in MiB).

    A full collection before each call makes the collector's own
    counters, and with them the points where it frees garbage cycles
    within the call, the same whatever call came before.
    """
    outputs, peak = [], 0
    tracemalloc.start()
    try:
        for path in paths:
            gc.collect()
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            outputs += _run_pass(capkc, command, [path])[1]
            peak = max(peak, tracemalloc.get_traced_memory()[1] - held)
    finally:
        tracemalloc.stop()
    return outputs, peak / 2**20


def run_workload(workload, seed, seconds, trace):
    workdir = WORK / workload
    setup_s, capkc, command, insts, paths = _setup(workload, seed, workdir)
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)[workload]
    tally = Tally(command, insts, expected)

    # a first pass, untimed, so lazy set-up inside capkc is neither timed
    # nor counted in the memory of whichever call comes first
    tally.check(_run_pass(capkc, command, paths)[1])
    outputs, peak_alloc_mib = _memory_pass(capkc, command, paths)
    tally.check(outputs)
    plain, traced, refs = [], [], []
    tracer = spans.Tracer() if trace else None
    deadline = perf_counter() + seconds
    while not plain or (trace and not traced) or perf_counter() < deadline:
        if trace and len(traced) < len(plain):
            uninstall = spans.install(tracer, capkc)
            try:
                took, outputs = _run_pass(capkc, command, paths, tracer)
            finally:
                uninstall()
            traced.append(took)
        else:
            refs.append(_timed_reference())
            took, outputs = _run_pass(capkc, command, paths)
            plain.append(took)
        tally.check(outputs)

    calls = len(paths)
    if trace:
        metrics = spans.layer_metrics(tracer.spans, len(traced))
        metrics["trace.overhead_frac"] = spans.percentile(
            [t / p for t, p in zip(traced, plain)], 50) - 1
        units = _units("per_layer")
        tracer.dump(workdir / "spans.jsonl")
    else:
        metrics = {
            "pass_ref_ratio.p50": spans.percentile([t / r for t, r in zip(plain, refs)], 50),
            "radius_ratio.mean": (float(sum(tally.ratios) / len(tally.ratios))
                                  if tally.ratios else 0.0),
            "setup_s": setup_s,
            "peak_alloc_mib": peak_alloc_mib,
        }
        units = _units("end_to_end")
    missing = set(units) - set(metrics)
    if missing:
        raise KeyError(f"BENCHMARK.json names metrics the run does not make: {sorted(missing)}")
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "stamp": stamp(capkc), "calls_per_pass": calls, "plain_pass_s": plain,
        "traced_pass_s": traced, "ref_s": refs, "failures": tally.failures,
        "fail_frac": len(tally.failures) / tally.attempted,
        "reported": {
            "pass_s.p50": (spans.percentile(plain, 50), "s"),
            "calls_per_s": (calls * len(plain) / sum(plain), "1/s"),
            "ref_s.p50": (spans.percentile(refs, 50), "s"),
        },
    }
    with open(workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({**info, **result}, fh, indent=1)
    return info, result


def _print_result(info, result):
    print(f"# {info['workload']} seed={info['seed']} {json.dumps(info['stamp'])}")
    print(f"# {len(info['plain_pass_s'])} plain and {len(info['traced_pass_s'])} traced passes"
          f" of {info['calls_per_pass']} calls; fail_frac {info['fail_frac']:.4g}"
          f" ({result['failed']} of {result['attempted']})")
    for failure in info["failures"][:10]:
        print(f"# FAILED {failure}")
    rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
    if not info["trace"]:
        rows += [(name, value, unit) for name, (value, unit) in info["reported"].items()]
    for name, value, unit in rows:
        print(f"{info['workload']:<11} {name:<40} {value:>14.6g} {unit}")


def _run_all(seed, seconds, trace):
    """Each workload in a process of its own, so peak memory is its own."""
    rows = []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        rows.append(json.loads(proc.stdout.splitlines()[-1]))
    print(json.dumps({
        "correct": all(r["correct"] for r in rows),
        "attempted": sum(r["attempted"] for r in rows),
        "failed": sum(r["failed"] for r in rows),
        "metrics": {f"{w}.{name}": m for w, r in zip(WORKLOADS, rows)
                    for name, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "capkc" / "cli.py").is_file():
        print(f"perfbench: no capkc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # capkc's bytecode is written and read inside the checkout, whatever
    # PYTHONDONTWRITEBYTECODE says, so every import after the first is
    # the same work
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(WORK / "pycache")
    if args.workload == "all":
        return _run_all(args.seed, args.seconds, args.trace)
    info, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    _print_result(info, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
