"""The benchmark's tracer patches library functions by name; a rename in
the library must fail here rather than silently leave a layer untraced.
A short traced run of each workload must pass its checks and reach every
layer the benchmark expects it to.  The benchmark's pinned witnesses are
read here too, as an independent record of what the per-subset condition
returns."""

import importlib
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import esos.graphs as graphs_mod
import esos.paths as paths_mod
from esos.graphs import Graph, mask_of, satisfies_local_condition

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Units per traced run: enough to reach every expected layer, about 3.5 s
# for the four together.
GUARD_QUOTA = {"dichotomy": 50, "lemmas-exhaustive": 20, "lemmas-sampled": 30, "stream": 30}


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracer = load_perfbench("tracer")
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


def test_local_condition_cut_counts_on_the_pinned_stream_requests(monkeypatch):
    # one network per request with a degree below k, one cut when the
    # condition holds and at most n + ceil(log2 n) + 1 when it fails
    search = graphs_mod._violator_search
    cuts = []

    def counted(G, k):
        violator = search(G, k)
        cuts.append(0)

        def counted_violator(inside, outside):
            cuts[-1] += 1
            return violator(inside, outside)

        return counted_violator

    monkeypatch.setattr(graphs_mod, "_violator_search", counted)
    pins = json.loads((PERFBENCH / "pins.json").read_text())["stream"]
    for key, (want,) in pins.items():
        k, line = key.split(":", 1)
        G = Graph.from_graph6(line)
        built = len(cuts)
        satisfies_local_condition(G, int(k))
        for count in cuts[built:]:
            assert 1 <= count <= G.n + math.ceil(math.log2(G.n)) + 1, key
            assert count == 1 or want != -1, key
    assert (len(cuts), sum(cuts)) == (396, 568)


@pytest.mark.parametrize("workload", sorted(GUARD_QUOTA))
def test_traced_run_reaches_every_expected_layer(workload):
    expected = load_perfbench("run").EXPECTED_CALLS[workload]
    env = {k: v for k, v in os.environ.items() if k != "ESOS_BUDGET"}
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [
            sys.executable,
            str(PERFBENCH / "child.py"),
            "--workload",
            workload,
            "--seed",
            "1009",
            "--quota",
            str(GUARD_QUOTA[workload]),
            "--trace",
        ],
        cwd=PERFBENCH.parent,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=300,
        check=True,
    )
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["attempted"] > 0 and out["failed"] == 0, out["errors"]
    missing = [fn for fn in expected if not out["layers"][f"{fn}.calls"]["value"]]
    assert not missing, f"layers with no calls: {missing}"
