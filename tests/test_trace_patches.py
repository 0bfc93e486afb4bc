"""The traced benchmark patches capkc functions by name; they must all exist.

perfbench/spans.py wraps module attributes and methods listed in its
PATCHES table.  A rename of any of them breaks only the traced benchmark
run, so this test installs the tracer, checks every target, and undoes it.
"""

import importlib.util
from pathlib import Path

import capkc
import capkc.cli

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(owner_path):
    owner = capkc
    for part in owner_path.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_patch_target_exists_and_is_restored():
    spans = load_spans()
    missing = [
        f"{owner_path}.{attr}"
        for owner_path, attr, _, _ in spans.PATCHES
        if attr not in vars(resolve(owner_path))
    ]
    assert missing == []
    originals = [(owner_path, attr, vars(resolve(owner_path))[attr])
                 for owner_path, attr, _, _ in spans.PATCHES]

    undo = spans.install(spans.Tracer(), capkc)
    try:
        for owner_path, attr, original in originals:
            wrapped = vars(resolve(owner_path))[attr]
            assert wrapped is not original, f"{owner_path}.{attr}"
            assert wrapped.__wrapped__ is original, f"{owner_path}.{attr}"
    finally:
        undo()

    for owner_path, attr, original in originals:
        assert vars(resolve(owner_path))[attr] is original, f"{owner_path}.{attr}"
