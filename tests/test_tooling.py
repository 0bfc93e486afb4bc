"""Packaging: the `python -m capkc` entry point, every exported name, the README."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import capkc
from capkc.graph_core import format_instance, parse_instance_text
from capkc.instances import gen_fig1

SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"


def run_module(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "capkc", *argv], capture_output=True, text=True, env=env
    )


class TestModuleEntryPoint:
    def test_gen_fig1_prints_a_parseable_instance(self):
        proc = run_module("gen", "fig1")
        assert proc.returncode == 0 and proc.stderr == ""
        assert format_instance(parse_instance_text(proc.stdout)) == proc.stdout
        assert proc.stdout == format_instance(gen_fig1()[0])

    def test_solve_on_a_missing_file_exits_three(self, tmp_path):
        proc = run_module("solve", str(tmp_path / "missing.txt"))
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


class TestExports:
    def test_every_name_in_every_all_resolves(self):
        modules = [capkc] + [
            importlib.import_module(f"capkc.{info.name}")
            for info in pkgutil.iter_modules(capkc.__path__)
        ]
        for module in modules:
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"{module.__name__}.{name}"


class TestReadme:
    def test_every_python_block_runs(self):
        blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text("utf-8"), re.M | re.S)
        assert blocks
        for i, block in enumerate(blocks):
            exec(compile(block, f"README.md python block {i}", "exec"), {})
