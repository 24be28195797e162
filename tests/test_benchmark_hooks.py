"""The benchmark's tracer patches library functions by name; a rename in
the library must fail here rather than silently leave a layer untraced.
The benchmark's pinned witnesses are read here too, as an independent
record of what the per-subset condition returns."""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import esos.paths as paths_mod
from esos.graphs import Graph, mask_of, satisfies_local_condition

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attr in tracer.TRACED:
        obj = importlib.import_module(f"esos.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module, attr)


def test_exact_path_enumerator_stays_a_generator_function():
    # the tracer opens one span per resumption only for generator functions
    assert inspect.isgeneratorfunction(paths_mod.iter_upaths_exact)


def test_local_condition_reproduces_the_pinned_stream_witnesses():
    # each `stream` pin is the least violating mask found by the subset scan
    # of the time (-1 when the condition holds), on G(n, 1/2) with n = 12..16
    pins = json.loads((PERFBENCH / "pins.json").read_text())["stream"]
    assert len(pins) == 838
    for key, (want,) in pins.items():
        k, line = key.split(":", 1)
        witness = satisfies_local_condition(Graph.from_graph6(line), int(k))
        assert (-1 if witness is None else mask_of(witness)) == want, key
