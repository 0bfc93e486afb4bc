"""Record expected.json: each instance's exit code and threshold or optimum.

    python3 perfbench/record.py

Runs every instance of every workload once through ``capkc.cli.main``,
as a benchmark pass does, and writes what it answered.  These answers
are properties of the instance, so they stay valid for every seed (the
seed only orders the calls) and every correct version of capkc.
expected.json was written at the commit that added the benchmark, and
every run checks against it.
"""

import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import run
from checks import parse_report
from corpus import WORKLOADS


def answer(capkc, command, inst, tmp):
    path = Path(tmp) / "instance"
    path.write_text(inst.text(), encoding="utf-8")
    [(rc, stdout, _)] = run._run_pass(capkc, command, [path])[1]
    got = {"exit": rc}
    report = parse_report(stdout)
    if command == "solve" and "threshold" in report:
        got["threshold"] = report["threshold"]
    if command == "oracle" and "radius" in report:
        got["optimum"] = report["radius"]
    return got


def main():
    sys.path.insert(0, str(run.SRC))
    capkc, _ = run._import_capkc()
    table = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for workload, (command, build) in WORKLOADS.items():
            table[workload] = {}
            for inst in build():
                start = perf_counter()
                table[workload][inst.name] = answer(capkc, command, inst, tmp)
                print(f"{workload:<11} {inst.name:<28} n={inst.n:<4} "
                      f"{perf_counter() - start:7.3f}s {table[workload][inst.name]}",
                      file=sys.stderr)
    with open(run.HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
