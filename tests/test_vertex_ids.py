"""One contract for vertex ids at every public entry point.

A vertex id is an ``int`` in 0..n-1 (a float or a bool is no id), and a
vertex set is a mask or an iterable of such ids.  ``ID_ROWS`` feeds each
entry point that takes an id or a set from outside the library a float, a
bool and an out-of-range id; each must raise ``InputError`` (never a bare
``TypeError``, never a result), except ``is_valid_upath``, which answers
False.  The guard below keeps the table complete as the API grows.

Integers follow one rule beside it: a count, size, length, order, k or rule
id is an ``int`` (a float or a bool is none).  ``INT_ROWS`` feeds each
public integer parameter 1.5 and True, and pins the exact text refused;
its own guard keeps that table complete.
"""

import dataclasses
import inspect
import re

import pytest

import esos.embed
import esos.enumeration
import esos.graphs
import esos.harness
import esos.lemmas
import esos.paths
import esos.spiders
from esos.embed import (
    embed_bruteforce,
    embed_constructive,
    embed_into_H,
    local_split,
    theorem2_check,
    whole_split,
)
from esos.enumeration import enumerate_graphs, graphs_up_to
from esos.errors import Budget, InputError
from esos.graphs import (
    Graph,
    HCertificate,
    e_inside,
    edge_counts,
    edges_between,
    find_H_subgraph,
    heavy_vertex,
    recognize_H,
    satisfies_density,
    satisfies_local_condition,
)
from esos.harness import (
    dichotomy_check,
    exhaustive_lemma_suite,
    extremal_census,
    run_lemma_suite,
    verify_conjecture_spiders,
)
from esos.lemmas import LemmaInstance, enumerate_instances, make_instance, sample_instances
from esos.paths import (
    UPath,
    check_observation1,
    first_upath_to,
    is_absorbable,
    is_strictly_absorbable,
    is_valid_upath,
    iter_upaths,
    iter_upaths_exact,
    longest_u_path,
    on_every_upath,
    reroute_maximizing_last_neighbor,
)
from esos.spiders import Spider, enumerate_spiders, t0

K4 = Graph.complete(4)
ALL = K4.full_mask
P02 = UPath((0, 2))  # vertex 1, which 1.0 and True stand for, lies off it
OUT = 9  # outside every host here

# 1.0 and True stand for vertex 1, which each call would otherwise accept
BAD_IDS = {"float": 1.0, "bool": True, "out-of-range": OUT}
BAD_SETS = {
    "float-member": [1.0],
    "bool-member": [True],
    "out-of-range-member": [OUT],
    "float": 1.0,
    "bool": True,
    "out-of-range-mask": 1 << OUT,
}


def _budget():
    return Budget(10**6, "ids")


def _instance(rule):
    return next(enumerate_instances(rule, Graph.complete(5)))


def _remade(rule, **changes):
    """``make_instance`` on the first rule instance of K5 with ``changes``."""
    inst = _instance(rule)
    named = {f: getattr(inst, f) for f in ("w1", "w2", "v", "w", "x")}
    args = {**named, **changes}
    u = args.pop("u", inst.u)
    return make_instance(rule, inst.graph, u, inst.p_path, inst.q_path, **args)


# "module.function[parameter]" -> a call with the bad id or set z there
ID_ROWS = {
    "graphs.Graph.induced[keep]": lambda z: K4.induced(z),
    "graphs.e_inside[S]": lambda z: e_inside(K4, z),
    "graphs.edge_counts[S]": lambda z: edge_counts(K4, z),
    "graphs.edges_between[S1]": lambda z: edges_between(K4, z, [3]),
    "graphs.edges_between[S2]": lambda z: edges_between(K4, [3], z),
    "graphs.heavy_vertex[S]": lambda z: heavy_vertex(K4, z, 2),
    "graphs.recognize_H[pool]": lambda z: recognize_H(K4, z),
    "graphs.find_H_subgraph[u]": lambda z: find_H_subgraph(K4, 1, 1, z),
    "paths.is_valid_upath[vertices]": lambda z: is_valid_upath(K4, (0, z)),
    "paths.is_absorbable[v]": lambda z: is_absorbable(K4, P02, z),
    "paths.is_strictly_absorbable[v]": lambda z: is_strictly_absorbable(K4, P02, z),
    "paths.check_observation1[v]": lambda z: check_observation1(K4, P02, z),
    "paths.reroute_maximizing_last_neighbor[x]": (
        lambda z: reroute_maximizing_last_neighbor(K4, P02, z)
    ),
    "paths.longest_u_path[u]": lambda z: longest_u_path(K4, z),
    "paths.longest_u_path[avoid]": lambda z: longest_u_path(K4, 0, z),
    "paths.on_every_upath[u]": lambda z: on_every_upath(K4, z, ALL, 1, _budget()),
    "paths.on_every_upath[allowed]": lambda z: on_every_upath(K4, 0, z, 1, _budget()),
    "paths.iter_upaths[u]": lambda z: list(iter_upaths(K4, z, ALL, _budget())),
    "paths.iter_upaths[allowed]": lambda z: list(iter_upaths(K4, 0, z, _budget())),
    "paths.iter_upaths_exact[u]": (
        lambda z: list(iter_upaths_exact(K4, z, ALL, 1, _budget()))
    ),
    "paths.iter_upaths_exact[allowed]": (
        lambda z: list(iter_upaths_exact(K4, 0, z, 1, _budget()))
    ),
    "paths.first_upath_to[u]": lambda z: first_upath_to(K4, z, ALL, 3, _budget()),
    "paths.first_upath_to[allowed]": lambda z: first_upath_to(K4, 0, z, 3, _budget()),
    "paths.first_upath_to[target]": lambda z: first_upath_to(K4, 0, ALL, z, _budget()),
    "embed.embed_bruteforce[u]": lambda z: embed_bruteforce(K4, Spider((1,)), z),
    "embed.embed_constructive[u]": lambda z: embed_constructive(K4, Spider((1,)), z),
    "embed.local_split[u]": lambda z: local_split(K4, 2, z),
    "embed.embed_into_H[u]": (
        lambda z: embed_into_H(HCertificate({0, 1}, {2, 3}), Spider((2,)), z)
    ),
    "lemmas.make_instance[u]": lambda z: _remade(3, u=z),
    "lemmas.make_instance[w1]": lambda z: _remade(3, w1=z),
    "lemmas.make_instance[w2]": lambda z: _remade(3, w2=z),
    "lemmas.make_instance[v]": lambda z: _remade(5, v=z),
    "lemmas.make_instance[w]": lambda z: _remade(6, w=z),
    "lemmas.make_instance[x]": lambda z: _remade(4, x=z),
    "lemmas.LemmaInstance[u]": lambda z: dataclasses.replace(_instance(3), u=z),
    "lemmas.LemmaInstance[x]": lambda z: dataclasses.replace(_instance(3), x=z),
    "lemmas.LemmaInstance[v]": lambda z: dataclasses.replace(_instance(5), v=z),
    "lemmas.LemmaInstance[w]": lambda z: dataclasses.replace(_instance(5), w=z),
}

# Set parameters get BAD_SETS, the others BAD_IDS.
SET_PARAMS = {"keep", "pool", "avoid", "allowed"}


def _bad_values(row):
    param = row[row.index("[") + 1 : -1]
    return BAD_SETS if param in SET_PARAMS or param.startswith("S") else BAD_IDS


CASES = [(row, kind) for row in ID_ROWS for kind in _bad_values(row)]


@pytest.mark.parametrize("row, kind", CASES, ids=[f"{r}-{k}" for r, k in CASES])
def test_entry_points_refuse_a_bad_vertex_id(row, kind):
    z = _bad_values(row)[kind]
    if row == "paths.is_valid_upath[vertices]":
        assert ID_ROWS[row](z) is False  # a predicate: it answers, never raises
        return
    with pytest.raises(InputError):
        ID_ROWS[row](z)


@pytest.mark.parametrize("a, b", [(1.5, 2), (True, 2), (2, 2.0), (2, False)])
def test_find_H_subgraph_refuses_non_integer_sizes(a, b):
    # the (3, 2) split host: a=True once returned a (1, 2) certificate
    split = Graph.from_edges(5, [(x, y) for x in range(3) for y in (3, 4)])
    assert find_H_subgraph(split, 1, 2, 0) is not None
    what, bad = ("a", a) if type(a) is not int else ("b", b)
    text = f"{what} {bad!r} is not an integer"
    with pytest.raises(InputError, match=f"^{re.escape(text)}$"):
        find_H_subgraph(split, a, b, 0)


@pytest.mark.parametrize(
    "S, text",
    [
        (True, "vertex set must be a mask or an iterable of vertex ids"),
        (1.5, "vertex set must be a mask or an iterable of vertex ids"),
        ([0, 1.0], "vertex set must hold integer ids"),
        ({False}, "vertex set must hold integer ids"),
    ],
)
def test_vertex_sets_of_the_wrong_type_keep_their_texts(S, text):
    with pytest.raises(InputError) as exc:
        e_inside(K4, S)
    assert str(exc.value) == text


def test_one_text_per_vertex_id_decision():
    cases = [
        (lambda: embed_bruteforce(K4, Spider((1,)), 2.0), "centre must be an integer id"),
        (lambda: embed_bruteforce(K4, Spider((1,)), 4), "centre outside 0..3"),
        (lambda: longest_u_path(K4, -1), "anchor outside 0..3"),
        (lambda: is_absorbable(K4, P02, 7), "vertex outside 0..3"),
        (
            lambda: iter_upaths(K4, 0, [5], _budget()),
            "allowed set references vertices outside 0..3",
        ),
        (lambda: _remade(6, w=1.0), "named vertex must be an integer id"),
        (
            lambda: embed_into_H(HCertificate({0, 1}, {2, 3}), Spider((2,)), True),
            "centre must be an integer id",
        ),
    ]
    for call, text in cases:
        with pytest.raises(InputError) as exc:
            call()
        assert str(exc.value) == text


# Parameters that carry a vertex id or a vertex set, besides S, S1, ...
ID_PARAMS = {"u", "v", "x", "w", "center", "target", "avoid", "allowed", "pool", "keep"}

# Take ids and masks the library itself produced, so they check nothing.
EXEMPT = {
    "graphs.bit": "turns a checked id into its bit",
    "graphs.bits_of": "lists the ids of a mask the library built",
    "graphs.mask_of": "packs ids the library already checked",
    "graphs.set_of": "unpacks a mask the library built",
    "graphs.twin_classes": "groups a pool that recognize_H has checked",
    "embed.place_legs": "the oracle's search, called on checked centres and masks",
    "graphs.Graph.degree": "a row lookup on ids the library produced",
    "graphs.Graph.has_edge": "a row lookup on ids the library produced",
    "embed.Embedding": "host-less: checks the centre's type; verify_embedding checks its range",
}


def _public_callables(modules=(esos.graphs, esos.paths, esos.embed, esos.lemmas)):
    """(name, callable) for every public function, class and method of
    ``modules``, by qualified name."""
    for mod in modules:
        short = mod.__name__.split(".")[-1]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{short}.{name}", obj
            elif inspect.isclass(obj):
                yield f"{short}.{name}", obj
                for attr, member in vars(obj).items():
                    func = getattr(member, "__func__", member)
                    if not attr.startswith("_") and inspect.isfunction(func):
                        yield f"{short}.{name}.{attr}", func


def _params(fn):
    try:
        return list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return []


def _id_params(fn):
    return [p for p in _params(fn) if p in ID_PARAMS or p.startswith("S")]


def test_every_entry_point_taking_ids_is_in_the_table():
    missing = [
        f"{name}[{param}]"
        for name, fn in _public_callables()
        if name not in EXEMPT
        for param in _id_params(fn)
        if f"{name}[{param}]" not in ID_ROWS
    ]
    assert not missing, f"add a row to ID_ROWS or an EXEMPT reason: {missing}"


def test_table_and_exempt_list_name_real_parameters():
    found = dict(_public_callables())
    for row in ID_ROWS:
        name, param = row[:-1].split("[")
        assert param in inspect.signature(found[name]).parameters, row
    assert set(EXEMPT) <= set(found)


# -- integers ------------------------------------------------------------------

# "module.function[parameter]" -> (a call with the bad integer z there, the
# exact text it must raise).  Counts, sizes, lengths and k share one text;
# the order checks of Graph, the rule-id checks and the even-k checks keep
# their own.
ORDER = "vertex count {z} outside 1..128"
RULE = "unknown lemma id {z}"


def _text(what):
    return what + " {z!r} is not an integer"


INT_ROWS = {
    "graphs.Graph[n]": (lambda z: Graph(z, (0,)), ORDER),
    "graphs.Graph[rows]": (lambda z: Graph(2, (2, z)), "row 1 must be an integer mask"),
    "graphs.Graph.from_edges[n]": (lambda z: Graph.from_edges(z, ()), ORDER),
    "graphs.Graph.from_edges[edges]": (
        lambda z: Graph.from_edges(3, [(z, 2)]),
        "edge ({z},2) must join integer ids",
    ),
    "graphs.Graph.empty[n]": (lambda z: Graph.empty(z), ORDER),
    "graphs.Graph.complete[n]": (lambda z: Graph.complete(z), ORDER),
    "graphs.Graph.cycle[n]": (lambda z: Graph.cycle(z), ORDER),
    "graphs.Graph.path_graph[n]": (lambda z: Graph.path_graph(z), ORDER),
    "graphs.satisfies_density[k]": (lambda z: satisfies_density(K4, z), _text("k")),
    "graphs.satisfies_local_condition[k]": (
        lambda z: satisfies_local_condition(K4, z),
        _text("k"),
    ),
    "graphs.heavy_vertex[k]": (lambda z: heavy_vertex(K4, ALL, z), _text("k")),
    "graphs.find_H_subgraph[a]": (lambda z: find_H_subgraph(K4, z, 1, 0), _text("a")),
    "graphs.find_H_subgraph[b]": (lambda z: find_H_subgraph(K4, 1, z, 0), _text("b")),
    "paths.on_every_upath[p]": (
        lambda z: on_every_upath(K4, 0, ALL, z, _budget()),
        _text("p"),
    ),
    "paths.iter_upaths[shortest]": (
        lambda z: list(iter_upaths(K4, 0, ALL, _budget(), shortest=z)),
        _text("shortest"),
    ),
    "paths.iter_upaths[longest]": (
        lambda z: list(iter_upaths(K4, 0, ALL, _budget(), longest=z)),
        _text("longest"),
    ),
    "paths.iter_upaths_exact[length]": (
        lambda z: list(iter_upaths_exact(K4, 0, ALL, z, _budget())),
        _text("length"),
    ),
    "embed.whole_split[k]": (lambda z: whole_split(K4, z), _text("k")),
    "embed.local_split[k]": (lambda z: local_split(K4, z, 0), _text("k")),
    "embed.theorem2_check[k]": (lambda z: theorem2_check(K4, z), _text("k")),
    "lemmas.LemmaInstance[lemma]": (
        lambda z: dataclasses.replace(_instance(3), lemma=z),
        RULE,
    ),
    "lemmas.make_instance[lemma]": (
        lambda z: make_instance(z, K4, 0, UPath((0, 1)), UPath((0, 2))),
        RULE,
    ),
    "lemmas.sample_instances[lemma]": (lambda z: sample_instances(z, 5, 1, 0), RULE),
    "lemmas.sample_instances[n]": (
        lambda z: sample_instances(3, z, 1, 0),
        _text("host size"),
    ),
    "lemmas.sample_instances[count]": (
        lambda z: sample_instances(3, 5, z, 0),
        _text("instance count"),
    ),
    "lemmas.sample_instances[seed]": (
        lambda z: sample_instances(3, 5, 1, z),
        _text("seed"),
    ),
    "lemmas.enumerate_instances[lemma]": (
        lambda z: list(enumerate_instances(z, K4)),
        RULE,
    ),
    "harness.verify_conjecture_spiders[n_max]": (
        lambda z: verify_conjecture_spiders(z),
        _text("order"),
    ),
    "harness.dichotomy_check[n_max]": (lambda z: dichotomy_check(z), _text("order")),
    "harness.extremal_census[n]": (lambda z: extremal_census(z, 4), _text("order")),
    "harness.extremal_census[k]": (
        lambda z: extremal_census(6, z),
        "census needs a positive even k (all-even spiders exist)",
    ),
    "harness.run_lemma_suite[lemma]": (lambda z: run_lemma_suite(z, 4, 0), RULE),
    "harness.run_lemma_suite[samples]": (
        lambda z: run_lemma_suite(3, z, 0),
        _text("sample count"),
    ),
    "harness.run_lemma_suite[seed]": (
        lambda z: run_lemma_suite(3, 4, z),
        _text("seed"),
    ),
    "harness.exhaustive_lemma_suite[lemma]": (
        lambda z: exhaustive_lemma_suite(z, 4),
        RULE,
    ),
    "harness.exhaustive_lemma_suite[n_max]": (
        lambda z: exhaustive_lemma_suite(3, z),
        _text("order"),
    ),
    "spiders.Spider[legs]": (lambda z: Spider((2, z)), _text("leg length")),
    "spiders.enumerate_spiders[k]": (lambda z: list(enumerate_spiders(z)), _text("k")),
    "spiders.t0[k]": (lambda z: t0(z), "t0 needs a positive even k"),
    "enumeration.enumerate_graphs[n]": (lambda z: enumerate_graphs(z), _text("order")),
    "enumeration.graphs_up_to[n_max]": (
        lambda z: list(graphs_up_to(z)),
        _text("order"),
    ),
}

# 1.5 is no integer at all; True would pass for 1 wherever 1 is valid
BAD_INTS = {"float": 1.5, "bool": True}
INT_CASES = [(row, kind) for row in INT_ROWS for kind in BAD_INTS]


@pytest.mark.parametrize(
    "row, kind", INT_CASES, ids=[f"{r}-{k}" for r, k in INT_CASES]
)
def test_entry_points_refuse_a_non_integer(row, kind):
    call, text = INT_ROWS[row]
    z = BAD_INTS[kind]
    with pytest.raises(InputError) as exc:
        call(z)
    assert str(exc.value) == text.format(z=z)


# Parameters that carry a count, a size, a length, an order, k or a rule id
INT_PARAMS = {
    "k", "n", "n_max", "p", "length", "shortest", "longest",
    "a", "b", "count", "samples", "seed", "lemma",
}

INT_EXEMPT = {
    "graphs.Graph.has_edge": "a and b are vertex ids; see EXEMPT above",
}

INT_MODULES = (
    esos.graphs, esos.paths, esos.embed, esos.lemmas,
    esos.harness, esos.spiders, esos.enumeration,
)


def test_every_integer_parameter_is_in_the_table():
    missing = [
        f"{name}[{param}]"
        for name, fn in _public_callables(INT_MODULES)
        if name not in INT_EXEMPT
        for param in _params(fn)
        if param in INT_PARAMS and f"{name}[{param}]" not in INT_ROWS
    ]
    assert not missing, f"add a row to INT_ROWS or an INT_EXEMPT reason: {missing}"


def test_integer_table_names_real_parameters():
    found = dict(_public_callables(INT_MODULES))
    for row in INT_ROWS:
        name, param = row[:-1].split("[")
        assert param in inspect.signature(found[name]).parameters, row
    assert set(INT_EXEMPT) <= set(found)
