"""Packaging: the `python -m capkc` entry point, exported names, records, imports, the README."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import capkc
from capkc.caterpillar import Caterpillar
from capkc.graph_core import Graph, format_instance, parse_instance_text
from capkc.instances import gap_layout, gen_fig1, x3c_layout
from capkc.lp_feasibility import FeasibilityResult, build_lp1
from capkc.x_rounding import Solution

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


class TestRecords:
    def test_immutable_records_refuse_assignment(self):
        records = [
            build_lp1(Graph(2, [(0, 1)]), [1, 1], 1),
            FeasibilityResult(None),
            Caterpillar(1, [0], [None, None, None]),
            gap_layout(24),
            x3c_layout(2, 3),
        ]
        for record in records:
            for name in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, name, None)
        assert repr(records[2]) == "Caterpillar(delta=1, spine=(0,), leaves=(None, None, None))"

    def test_solution_is_mutable_and_compares_by_fields(self):
        sol = Solution(k=1, radius=0, centers={0: 1}, phi=[0])
        assert repr(sol) == "Solution(k=1, radius=0, centers={0: 1}, phi=(0,))"
        assert sol == Solution(1, 0, {0: 1}, (0,)) and sol != (1, 0, {0: 1}, (0,))
        sol.centers[1] = 1
        assert sol != Solution(1, 0, {0: 1}, (0,))


class TestReadme:
    def test_every_python_block_runs(self):
        blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text("utf-8"), re.M | re.S)
        assert blocks
        for i, block in enumerate(blocks):
            exec(compile(block, f"README.md python block {i}", "exec"), {})


def unread_imports(text):
    """Names the module text imports but never reads, with their line numbers.

    A name listed in the module's literal __all__ counts as read, and so
    does every name of an import line marked `# noqa: F401`; __future__
    imports are skipped.
    """
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = {}
    exported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {elt.value for elt in node.value.elts}
    return sorted(
        (line, name) for name, line in imported.items() if name not in read | exported
    )


def unread_imports_in(folder):
    return [
        f"{path.name}:{line}: {name}"
        for path in sorted(folder.glob("*.py"))
        for line, name in unread_imports(path.read_text("utf-8"))
    ]


def unread_definitions(texts):
    """Module-level defs and classes, and _-prefixed methods, that no other code names.

    texts maps a module name to its source.  A definition counts as read
    when a literal __all__ lists it, or when a name, an attribute or an
    imported name spells it in module-level code or in the body of another
    definition that counts as read; so definitions that spell only each
    other are unread.  A method is checked when its name starts with _ but
    is not a __dunder__, and is reported as Class.name.
    Returns "module:name" strings.
    """
    defined = {}  # (module, label) -> the name a reader spells
    spelled = {}  # name -> the definitions, (module, label), that spell it
    exported = set()

    def spell(tree, own):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                spelled.setdefault(node.id, set()).add(own)
            elif isinstance(node, ast.Attribute):
                spelled.setdefault(node.attr, set()).add(own)
            elif isinstance(node, ast.alias):
                spelled.setdefault(node.name, set()).add(own)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported.update(elt.value for elt in node.value.elts)

    for module, text in texts.items():
        for top in ast.parse(text).body:
            if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                spell(top, None)
                continue
            own = (module, top.name)
            defined[own] = top.name
            if not isinstance(top, ast.ClassDef):
                spell(top, own)
                continue
            for child in ast.iter_child_nodes(top):
                name = getattr(child, "name", "")
                if (
                    isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and name.startswith("_")
                    and not (name.startswith("__") and name.endswith("__"))
                ):
                    method = (module, f"{top.name}.{name}")
                    defined[method] = name
                    spell(child, method)
                else:
                    spell(child, own)
    # the least fixpoint from the roots: module-level code (None) and __all__;
    # a definition spelled only by itself or by unread ones, a cycle too, stays unread
    read = set()
    while True:
        more = {
            own
            for own, name in defined.items()
            if name in exported or (spelled.get(name, set()) - {own}) & (read | {None})
        }
        if more == read:
            return sorted(f"{module}:{label}" for module, label in defined.keys() - read)
        read = more


def imported_modules(text):
    """Top-level names of the modules the module text imports, relative ones left out."""
    names = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


class TestImports:
    def test_no_src_module_imports_dataclasses(self):
        # building a dataclass costs about as much as the rest of an import;
        # the records are namedtuples and Solution a __slots__ class
        assert [
            path.name
            for path in sorted((SRC / "capkc").glob("*.py"))
            if "dataclasses" in imported_modules(path.read_text("utf-8"))
        ] == []

    def test_cli_import_leaves_dataclasses_unloaded(self):
        # a fresh interpreter, so a transitive import shows too
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import capkc.cli\n"
            "print('dataclasses' in set(sys.modules) - before)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")

    def test_no_src_module_imports_a_name_it_never_reads(self):
        assert unread_imports_in(SRC / "capkc") == []

    def test_no_test_module_imports_a_name_it_never_reads(self):
        assert unread_imports_in(Path(__file__).resolve().parent) == []

    def test_every_src_definition_is_read_in_src(self):
        paths = sorted((SRC / "capkc").glob("*.py"))
        texts = {path.name: path.read_text("utf-8") for path in paths}
        assert unread_definitions(texts) == []

    def test_an_unread_definition_is_found(self):
        texts = {
            "a.py": (
                "__all__ = ['public']\n"
                "def public(): return _used()\n"
                "def _used(): return 1\n"
                "def _recursive(n): return _recursive(n - 1)\n"
                "def _only_dead_reads(): return _dead_chain()\n"
                "def _dead_chain(): return 0\n"
                "def _a(): return _b()\n"
                "def _b(): return _a()\n"
                "class Holder:\n"
                "    def __init__(self): self._live()\n"
                "    def _live(self): return self._helper()\n"
                "    def _helper(self): return 1\n"
                "    def _orphan(self): return self._orphan_helper()\n"
                "    def _orphan_helper(self): return 2\n"
                "    def __len__(self): return 0\n"
            ),
            "b.py": "from .a import Holder\n",
        }
        assert unread_definitions(texts) == [
            "a.py:Holder._orphan", "a.py:Holder._orphan_helper", "a.py:_a", "a.py:_b",
            "a.py:_dead_chain", "a.py:_only_dead_reads", "a.py:_recursive",
        ]

    def test_an_unread_import_is_found(self):
        text = (
            "from __future__ import annotations\n"
            "import os\n"
            "import sys  # noqa: F401\n"
            "from math import gcd, lcm\n"
            "from json import dumps\n"
            "__all__ = ['dumps']\n"
            "print(gcd(4, 6))\n"
        )
        assert unread_imports(text) == [(2, "os"), (4, "lcm")]


def calls_to(text, name):
    """Line numbers of the calls in the module text to name, bare or as an attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    )


class TestSeparation:
    def test_the_cut_loop_lays_out_one_flow_network(self):
        # each cut round separates on the client classes alone, and x is
        # read off that flow: lp_feasibility calls bipartite_flow at one site
        text = (SRC / "capkc" / "lp_feasibility.py").read_text("utf-8")
        assert len(calls_to(text, "bipartite_flow")) == 1
        sample = "f(1)\nflownet.f(2)\ng(f)\n"
        assert calls_to(sample, "f") == [1, 2]

    def test_the_cut_loop_builds_one_master(self):
        # the master reads a twin-class column map on every input, the
        # identity where the classes do not pay, so src/ constructs a
        # Phase1Tableau at one site, in solve_feasibility
        texts = {path.name: path.read_text("utf-8") for path in (SRC / "capkc").glob("*.py")}
        sites = {name: calls_to(text, "Phase1Tableau") for name, text in texts.items()}
        assert {name: len(lines) for name, lines in sites.items() if lines} == {
            "lp_feasibility.py": 1,
        }
        (solve,) = [
            node for node in ast.parse(texts["lp_feasibility.py"]).body
            if isinstance(node, ast.FunctionDef) and node.name == "solve_feasibility"
        ]
        assert solve.lineno <= sites["lp_feasibility.py"][0] <= solve.end_lineno

    def test_the_seat_flow_is_the_one_other_flow_network(self):
        # the soft solver and the oracle seat clients through
        # x_rounding.seat_flow, the one bipartite_flow call outside the cut loop
        texts = {path.name: path.read_text("utf-8") for path in (SRC / "capkc").glob("*.py")}
        sites = {name: calls_to(text, "bipartite_flow") for name, text in texts.items()}
        assert {name: len(lines) for name, lines in sites.items() if lines} == {
            "lp_feasibility.py": 1, "x_rounding.py": 1,
        }
        (seat,) = [
            node for node in ast.parse(texts["x_rounding.py"]).body
            if isinstance(node, ast.FunctionDef) and node.name == "seat_flow"
        ]
        assert seat.lineno <= sites["x_rounding.py"][0] <= seat.end_lineno
