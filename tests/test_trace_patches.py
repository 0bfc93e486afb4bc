"""The traced benchmark patches capkc functions by name; they must all exist.

perfbench/spans.py wraps module attributes and methods listed in its
PATCHES table.  A rename of any of them breaks only the traced benchmark
run, so this test installs the tracer, checks every target, and undoes it.
A second test runs real commands under the tracer and checks that it
gives every max flow to the layer that called it.
"""

import importlib.util
from pathlib import Path

import capkc
import capkc.cli
from capkc.graph_core import write_instance
from capkc.instances import gen_random_connected

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


def test_every_max_flow_goes_to_its_calling_layer(tmp_path):
    spans = load_spans()
    path = tmp_path / "random.txt"
    write_instance(gen_random_connected(12, 0.5, (2, 4), 4, 3), path)
    tracer = spans.Tracer()
    undo = spans.install(tracer, capkc)
    try:
        for argv in (["solve", str(path)], ["solve", str(path), "--mode", "soft"],
                     ["oracle", str(path)]):
            assert capkc.cli.main(argv) == 0
    finally:
        undo()
    metrics = spans.layer_metrics(tracer.spans, 1)
    layers = [metrics[f"flownet.max_flow.calls.{layer}"]
              for layer in ("lp", "round_x", "soft", "oracle")]
    assert all(calls > 0 for calls in layers), layers
    assert sum(layers) == metrics["flownet.max_flow.calls"]
