"""The benchmark's tracer patches library functions by name; a rename in
the library must fail here rather than silently leave a layer untraced."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import esos.paths as paths_mod

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
