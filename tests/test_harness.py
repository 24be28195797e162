import hashlib
import io
import json
from collections import Counter
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_from_bits, graphs
from oracles import (
    brute_canonical_classes,
    polya_counts,
    reference_canonical_key,
    reference_enumerate_graphs,
    reference_extensions,
    reference_refined_cells,
)

import esos
import esos.enumeration as enumeration_mod
import esos.cli as cli_mod
import esos.embed as embed_mod
import esos.harness as harness_mod
import esos.report as report_mod
from esos.cli import main
from esos.embed import EmbedOutcome, Embedding, theorem2_check
from esos.enumeration import (
    canonical_form,
    canonical_key,
    enumerate_graphs,
    graphs_up_to,
    read_graph6_stream,
    refined_cells,
)
from esos.errors import CapabilityError, InputError, SoundnessError
from esos.graphs import Graph, HCertificate
from esos.harness import (
    dichotomy_check,
    exhaustive_lemma_suite,
    extremal_census,
    run_lemma_suite,
    verify_conjecture_spiders,
)
from esos.lemmas import enumerate_instances, sample_instances
from esos.paths import UPath
from esos.spiders import Spider

KNOWN_CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def test_enumeration_counts_match_known_table():
    for n in range(1, 8):
        assert len(enumerate_graphs(n)) == KNOWN_CLASS_COUNTS[n]


def test_enumeration_matches_reference_graph6():
    for n in range(1, 8):
        got = [G.to_graph6() for G in enumerate_graphs(n)]
        assert got == [G.to_graph6() for G in reference_enumerate_graphs(n)], n


@pytest.mark.parametrize("n", range(1, 8))
def test_enumeration_counts_every_edge_layer_as_polya_does(n):
    # a pruning bug that drops a class in one layer and duplicates one in
    # another keeps the total per n, but not the count per edge layer
    expected = polya_counts(n)
    assert sum(expected) == KNOWN_CLASS_COUNTS[n]
    layers = Counter(G.edge_count() for G in enumerate_graphs(n))
    assert [layers[e] for e in range(len(expected))] == expected


def test_cold_enumeration_keys_only_twin_prefix_extensions(monkeypatch):
    warm = [enumerate_graphs(n) for n in range(1, 8)]
    keyed = Counter()

    def counting(G):
        keyed[G.n] += 1
        return canonical_key(G)

    monkeypatch.setattr(enumeration_mod, "_cache", {})
    monkeypatch.setattr(enumeration_mod, "canonical_key", counting)
    assert [enumerate_graphs(n) for n in range(1, 8)] == warm
    # 3,131 keys in all without the twin-prefix extensions
    assert keyed == {2: 2, 3: 4, 4: 11, 5: 42, 6: 221, 7: 1808}


def test_canonical_key_matches_reference_on_every_small_extension():
    # every candidate the unfiltered extend-and-dedup keys for n <= 6,
    # including the ones the minimum-degree filter now skips
    for n in range(2, 7):
        for H in enumerate_graphs(n - 1):
            for G in reference_extensions(H):
                assert canonical_key(G) == reference_canonical_key(G), G


@pytest.mark.parametrize("n, count", [(7, 300), (8, 150)])
def test_canonical_key_matches_reference_on_seeded_samples(n, count):
    rng = random.Random(20260 + n)
    for _ in range(count):
        G = graph_from_bits(n, rng.getrandbits(n * (n - 1) // 2))
        assert canonical_key(G) == reference_canonical_key(G), G


def _join(*parts):
    """The complete multipartite graph with the given part sizes."""
    part = [i for i, size in enumerate(parts) for _ in range(size)]
    n = len(part)
    return Graph.from_edges(
        n, [(a, b) for a in range(n) for b in range(a + 1, n) if part[a] != part[b]]
    )


TWIN_HEAVY_HOSTS = (
    [Graph.complete(n) for n in range(1, 9)]
    + [Graph.empty(n) for n in range(1, 9)]
    + [_join(3, 4), _join(2, 2, 2, 2), _join(1, 7), _join(1, 4)]
    + [Graph.from_edges(n, [(0, 1), (1, 2), (2, 3), (3, 0)]) for n in range(4, 9)]
)


@pytest.mark.parametrize("G", TWIN_HEAVY_HOSTS, ids=lambda G: G.to_graph6())
def test_canonical_key_matches_reference_on_twin_heavy_hosts(G):
    assert canonical_key(G) == reference_canonical_key(G)


@pytest.mark.parametrize("G", TWIN_HEAVY_HOSTS, ids=lambda G: G.to_graph6())
def test_refined_cells_match_reference_on_twin_heavy_hosts(G):
    assert refined_cells(G) == reference_refined_cells(G)


@pytest.mark.parametrize("n, count", [(7, 300), (8, 150)])
def test_refined_cells_match_reference_on_seeded_samples(n, count):
    rng = random.Random(20260 + n)
    for _ in range(count):
        G = graph_from_bits(n, rng.getrandbits(n * (n - 1) // 2))
        assert refined_cells(G) == reference_refined_cells(G), G


def test_refined_cells_match_reference_on_every_small_extension():
    for n in range(2, 7):
        for H in enumerate_graphs(n - 1):
            for G in reference_extensions(H):
                assert refined_cells(G) == reference_refined_cells(G), G


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=9), st.data())
def test_canonical_key_is_invariant_under_relabelling(G, data):
    perm = data.draw(st.permutations(range(G.n)))
    H = Graph.from_edges(G.n, [(perm[a], perm[b]) for a, b in G.edges()])
    assert canonical_key(H) == canonical_key(G)


def test_enumeration_matches_independent_dedup_oracle():
    for n in range(1, 6):
        assert len(enumerate_graphs(n)) == brute_canonical_classes(n)


def test_enumeration_matches_the_networkx_atlas_one_to_one():
    # an independent population: the atlas lists every graph on 0..7
    # vertices; bucket both sides by (n, e, sorted degrees), then pair each
    # enumerated class with an isomorphic atlas graph, each used once
    def bucket(n, degrees):
        return n, sum(degrees) // 2, tuple(sorted(degrees))

    atlas: dict[tuple, list] = {}
    for H in nx.graph_atlas_g():
        if H.number_of_nodes() >= 1:
            degrees = [d for _, d in H.degree()]
            atlas.setdefault(bucket(H.number_of_nodes(), degrees), []).append(H)
    classes = list(graphs_up_to(7))
    assert len(classes) == sum(map(len, atlas.values())) == 1252
    for G in classes:
        mine = nx.Graph(G.edges())
        mine.add_nodes_from(range(G.n))
        pool = atlas.get(bucket(G.n, [G.degree(v) for v in range(G.n)]), [])
        match = next((i for i, H in enumerate(pool) if nx.is_isomorphic(mine, H)), None)
        assert match is not None, G.to_graph6()
        pool.pop(match)
    assert not any(atlas.values())


def test_enumeration_reps_are_canonical_and_distinct():
    reps = enumerate_graphs(5)
    keys = {canonical_key(G) for G in reps}
    assert len(keys) == len(reps)
    for G in reps[:10]:
        assert canonical_form(G) == G


def test_enumeration_cap():
    with pytest.raises(CapabilityError):
        enumerate_graphs(8)
    with pytest.raises(InputError):
        enumerate_graphs(0)


def test_canonical_key_is_isomorphism_invariant():
    G = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    H = Graph.from_edges(5, [(4, 2), (2, 0), (0, 1), (1, 3)])
    assert canonical_key(G) == canonical_key(H)
    assert canonical_key(G) != canonical_key(Graph.cycle(5))


def test_verify_conjecture_small():
    rep = verify_conjecture_spiders(5)
    assert rep.ok
    assert rep.counts["graphs"] == 52  # 1+2+4+11+34
    rep1 = verify_conjecture_spiders(1)
    assert rep1.ok and rep1.counts["spider_tests"] == 0


def test_verify_conjecture_failure_scope_is_monotone():
    small = verify_conjecture_spiders(3)
    large = verify_conjecture_spiders(5)
    as_set = lambda rep: {json.dumps(f, sort_keys=True) for f in rep.failures}
    assert as_set(small) <= as_set(large)


def test_verify_conjecture_detects_injected_density_fault():
    # drop the density gate: sparse graphs now get tested and must fail
    sparse = [Graph.path_graph(3)]  # 2 edges, n=3
    from esos.embed import embed_bruteforce
    from esos.spiders import enumerate_spiders

    missing = [
        T.legs
        for T in enumerate_spiders(3)  # k=3 fails 2e > (k-1)n (4 <= 6)
        if embed_bruteforce(sparse[0], T) is None
    ]
    assert missing  # the harness's density gate is what keeps runs clean


def test_verify_conjecture_stream_input():
    stream = io.StringIO("C~\nDhc\n")
    rep = verify_conjecture_spiders(graphs=read_graph6_stream(stream))
    assert rep.ok and rep.counts["graphs"] == 2


def test_dichotomy_scan_stops_at_the_first_violated_k(monkeypatch):
    # h_{k+1}(S) = h_k(S) - |S|, so a host that fails the per-subset
    # condition at k fails it at every larger k: the scan leaves the host
    # there, with the report it gave when it asked every k (4,135 calls)
    asked = []
    real = harness_mod.satisfies_local_condition
    monkeypatch.setattr(
        harness_mod, "satisfies_local_condition", lambda G, k: asked.append(k) or real(G, k)
    )
    rep = dichotomy_check(7)
    assert rep.counts == {"tests": 39191, "certified": 2} and rep.ok
    digest = hashlib.sha256(rep.dumps().encode()).hexdigest()
    assert digest == "b3ebf7b8f9ed341e23a1c9d3fe02d73cefdbd5319e261c0049468f405a812db5"
    assert len(asked) == 3732


# Y = {0, 1} sees all of X = {2, 3, 4, 5}: the whole graph splits as (4, 2)
SPLIT_HOST = Graph.from_edges(
    6, [(0, 1)] + [(y, x) for y in (0, 1) for x in range(2, 6)]
)
ODD = "certified a spider with an odd leg"
SHAPE = "certificate shape mismatch"


@pytest.mark.parametrize(
    "legs, u, x_side, kind, reason",
    [
        ((2, 2), 2, {2, 3, 4}, "local", None),
        ((2, 2), 2, {2, 3, 4, 5}, "whole-graph", None),
        ((4,), 2, {2, 3, 4, 5}, "whole-graph", None),
        ((4,), 2, {2, 3, 4}, "local", SHAPE),  # local, but not the all-twos spider
        ((2, 2), 2, {2, 3}, "local", SHAPE),  # a (2, 2) split, not (3, 2)
        ((2, 2), 5, {2, 3, 4}, "local", SHAPE),  # the split misses u
        ((2, 2), 2, {2, 3, 4}, "whole-graph", SHAPE),  # not the whole graph
        ((3, 1), 2, {2, 3, 4, 5}, "whole-graph", ODD),
        ((2, 2), 2, {0, 2, 3}, "local", "certificate failed verification"),
    ],
)
def test_dichotomy_certificate_check_branches(
    monkeypatch, legs, u, x_side, kind, reason
):
    # every branch of _dichotomy_one's certificate check, on chosen outcomes
    # of a spider the (stubbed) oracle does not embed at u
    y_side = {0, 1} - x_side
    out = EmbedOutcome(
        certificate=HCertificate(frozenset(x_side), frozenset(y_side)),
        kind=kind,
        spider_is_t0=legs == (2, 2),
    )
    monkeypatch.setattr(harness_mod, "embed_constructive", lambda G, T, c: out)
    monkeypatch.setattr(harness_mod, "embed_bruteforce", lambda G, T, c=None: None)
    fail, was_cert = harness_mod._dichotomy_one(SPLIT_HOST, 4, u, Spider(legs))
    assert was_cert
    if reason is None:
        assert fail is None
    else:
        assert fail["reason"].startswith(reason), fail
        assert (fail["k"], fail["u"]) == (4, u)
        if reason == SHAPE:
            assert fail["reason"] == f"{SHAPE}: {out.to_json()}"


def _stub_outcome(monkeypatch, outcome, oracle):
    def constructive(G, T, c):
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setattr(harness_mod, "embed_constructive", constructive)
    monkeypatch.setattr(harness_mod, "embed_bruteforce", lambda G, T, c=None: oracle)


STAR = Embedding(2, (UPath((2, 0)), UPath((2, 1))))  # a (1, 1) spider at 2
BENT = Embedding(2, (UPath((2, 3, 0)),))  # 2-3 is no edge of SPLIT_HOST


@pytest.mark.parametrize(
    "legs, outcome, oracle, reason",
    [
        ((1, 1), SoundnessError("breach"), None, "constructive raised: breach"),
        ((1, 1), InputError("bad"), None, "constructive raised: bad"),
        ((1, 1), EmbedOutcome(embedding=STAR), None, "verdict disagrees with the oracle"),
        ((2,), EmbedOutcome(embedding=BENT), None, "embedding failed verification"),
        ((1, 1), EmbedOutcome(embedding=STAR), STAR, None),
    ],
    ids=["soundness", "input", "disagrees", "unverified", "agrees"],
)
def test_dichotomy_embedding_check_branches(monkeypatch, legs, outcome, oracle, reason):
    # every failure branch of _dichotomy_one before the certificate check,
    # on stubbed outcomes; a one-leg embedding is not compared with the oracle
    _stub_outcome(monkeypatch, outcome, oracle)
    fail, was_cert = harness_mod._dichotomy_one(SPLIT_HOST, 2, 2, Spider(legs))
    assert not was_cert
    if reason is None:
        assert fail is None
    else:
        assert fail == {
            "graph6": SPLIT_HOST.to_graph6(),
            "k": 2,
            "u": 2,
            "spider": list(legs),
            "reason": reason,
        }


def test_lemma_cases_report_unmatched_and_unverified_instances(monkeypatch):
    # analyze's SoundnessError and a witness that fails verification are
    # failure entries of the per-instance check, and the run goes on past them
    class Instance:
        def __init__(self, name):
            self.name = name

        def to_json(self):
            return {"name": self.name}

    class Outcome:
        case = "B"

    def analyze(inst):
        if inst.name == "unmatched":
            raise SoundnessError("no case")
        return Outcome()

    monkeypatch.setattr(harness_mod, "analyze", analyze)
    monkeypatch.setattr(harness_mod, "verify_outcome", lambda inst, out: inst.name == "fine")
    names = ["unmatched", "unverified", "fine"]
    counts = {"instances": 0, "case_A": 0, "case_B": 0, "case_C": 0}
    check = harness_mod._lemma_case
    failures = [f for name in names for f in check(counts, Instance(name))]
    assert counts == {"instances": 3, "case_A": 0, "case_B": 2, "case_C": 0}
    assert failures == [
        {"instance": {"name": "unmatched"}, "reason": "no case matched"},
        {"instance": {"name": "unverified"}, "case": "B", "reason": "witness failed verification"},
    ]


@pytest.mark.parametrize(
    "owner, run",
    [
        (harness_mod, lambda: verify_conjecture_spiders(4)),
        (harness_mod, lambda: dichotomy_check(4)),
        (harness_mod, lambda: extremal_census(5, 2)),
        (harness_mod, lambda: run_lemma_suite(3, 6, seed=1)),
        (harness_mod, lambda: exhaustive_lemma_suite(3, 4)),
        (embed_mod, lambda: theorem2_check(Graph.from_graph6("F?B~w"), 4)),
    ],
    ids=["check", "dichotomy", "census", "sampled", "exhaustive", "theorem2"],
)
def test_each_suite_runs_once_through_the_suite_driver(monkeypatch, owner, run):
    # each module imports the one driver of esos.report under its own name
    assert owner._suite is report_mod._suite
    calls = []
    suite = owner._suite

    def counted(*args, **kwargs):
        calls.append(args[0])
        return suite(*args, **kwargs)

    monkeypatch.setattr(owner, "_suite", counted)
    report = run()
    assert calls == [report.scope]


def test_density_check_reports_a_missing_spider(monkeypatch):
    # a spider the (stubbed) oracle misses is a failure entry, sorted by
    # graph6, k and legs
    monkeypatch.setattr(harness_mod, "embed_bruteforce", lambda G, T, u=None: None)
    rep = verify_conjecture_spiders(graphs=[Graph.complete(3)])
    assert not rep.ok and rep.exit_code == 1
    assert rep.counts == {"graphs": 1, "spider_tests": 3, "embedded": 0}
    assert rep.failures == [
        {"graph6": "Bw", "k": 1, "spider": [1]},
        {"graph6": "Bw", "k": 2, "spider": [1, 1]},
        {"graph6": "Bw", "k": 2, "spider": [2]},
    ]


def test_dichotomy_check_reports_a_disagreement(monkeypatch):
    # the cross-check's (stubbed) oracle misses every spider, so each
    # two-leg spider that the constructive phase embeds is a failure entry,
    # in scan order; one-leg spiders embed through the oracle unchecked
    monkeypatch.setattr(harness_mod, "embed_bruteforce", lambda G, T, u=None: None)
    rep = dichotomy_check(3)
    assert not rep.ok and rep.exit_code == 1
    assert rep.counts == {"tests": 16, "certified": 0}
    reason = "verdict disagrees with the oracle"
    assert rep.failures == [
        {"graph6": g6, "k": 2, "u": u, "spider": [1, 1], "reason": reason}
        for g6, u in (("BW", 2), ("Bw", 0), ("Bw", 1), ("Bw", 2))
    ]


def test_cli_exits_1_on_a_soundness_failure(monkeypatch, capsys):
    def breach(G, T, u):
        raise SoundnessError("dichotomy breached")

    monkeypatch.setattr(cli_mod, "embed_constructive", breach)
    assert main(["embed", "Bw", "--spider", "1,1", "--at", "0", "--constructive"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "soundness failure: dichotomy breached\n"
    assert captured.out == ""


def test_census_example_n5_k4():
    rep = extremal_census(5, 4)
    assert rep.scope["threshold_edges"] == 7
    host6 = Graph.from_edges(
        5, [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    ).to_graph6()
    from esos.enumeration import canonical_form

    canon = canonical_form(
        Graph.from_graph6(host6)
    ).to_graph6()
    hits = [e for e in rep.notes["census"] if e["graph6"] == canon]
    assert hits, "the dominated-pair host must appear in the census"
    assert any(e["local_split"] or e["whole_graph_split"] for e in hits)


def test_census_small_and_errors():
    rep = extremal_census(3, 2)
    assert rep.ok
    with pytest.raises(InputError):
        extremal_census(5, 3)  # odd k has no all-even spiders


def test_lemma_suite_runs_clean_and_deterministic():
    rep1 = run_lemma_suite(4, 60, seed=9)
    rep2 = run_lemma_suite(4, 60, seed=9)
    assert rep1.ok and rep1.counts["instances"] == 60
    assert rep1.dumps() == rep2.dumps()
    zero = run_lemma_suite(3, 0, seed=1)
    assert zero.ok and zero.counts["instances"] == 0
    with pytest.raises(InputError):
        run_lemma_suite(7, 10, seed=0)


SUITES_OVER_ORDERS = {
    "check": verify_conjecture_spiders,
    "dichotomy": dichotomy_check,
    "lemmas-exhaustive": lambda n_max: exhaustive_lemma_suite(3, n_max),
}


@pytest.mark.parametrize("name", sorted(SUITES_OVER_ORDERS))
@pytest.mark.parametrize(
    "n_max, error",
    [
        (0, InputError),
        (-1, InputError),
        (8, CapabilityError),
        (3.0, InputError),
        (True, InputError),
    ],
)
def test_suites_reject_an_order_range_before_any_enumeration(
    monkeypatch, name, n_max, error
):
    calls = []
    real = enumeration_mod.enumerate_graphs
    monkeypatch.setattr(
        enumeration_mod, "enumerate_graphs", lambda n: calls.append(n) or real(n)
    )
    suite = SUITES_OVER_ORDERS[name]
    with pytest.raises(error):
        suite(n_max)
    assert calls == []
    suite(2)  # the counting patch does see a suite's enumeration
    assert sorted(set(calls)) == [1, 2]


@pytest.mark.parametrize("n", [3.0, True], ids=["float", "bool"])
def test_enumeration_refuses_a_non_integer_order(n):
    # True == 1 and 3.0 == 3 would otherwise hit the cache of the int order
    enumerate_graphs(3)
    with pytest.raises(InputError, match=f"^order {n} is not an integer$"):
        enumerate_graphs(n)


def test_census_rejects_an_order_past_the_cap_before_building_a_graph(monkeypatch):
    built = []
    real = Graph.__post_init__
    monkeypatch.setattr(Graph, "__post_init__", lambda G: built.append(G) or real(G))
    with pytest.raises(CapabilityError, match="built-in enumeration capped at n <= 7"):
        extremal_census(8, 2)
    assert built == []


@pytest.mark.parametrize(
    "n, k, message",
    [
        (6.0, 4, "^order 6.0 is not an integer$"),
        (6, 4.0, "^census needs a positive even k"),
        (6, True, "^census needs a positive even k"),
    ],
)
def test_census_rejects_a_non_integer_order_or_k_before_building_a_graph(
    monkeypatch, n, k, message
):
    built = []
    real = Graph.__post_init__
    monkeypatch.setattr(Graph, "__post_init__", lambda G: built.append(G) or real(G))
    with pytest.raises(InputError, match=message):
        extremal_census(n, k)
    assert built == []


@pytest.mark.parametrize("n, k", [(4, 8), (3, 6)])
def test_census_rejects_an_impossible_threshold_before_building_a_graph(
    monkeypatch, n, k
):
    # (k-1)n/2 edges is more than K_n has, so the census would scan no graph
    built = []
    real = Graph.__post_init__
    monkeypatch.setattr(Graph, "__post_init__", lambda G: built.append(G) or real(G))
    with pytest.raises(InputError, match=f"exceeds the {n * (n - 1) // 2} of K_{n}$"):
        extremal_census(n, k)
    assert built == []


@pytest.mark.parametrize(
    "run",
    [lambda: run_lemma_suite(9, 5, 0), lambda: exhaustive_lemma_suite(9, 3)],
    ids=["sampled", "exhaustive"],
)
def test_lemma_suites_reject_an_unknown_rule_id(run):
    with pytest.raises(InputError, match="^unknown lemma id 9$"):
        run()


@pytest.mark.parametrize("rule", [3.0, True], ids=["float", "bool"])
@pytest.mark.parametrize(
    "run",
    [lambda r: run_lemma_suite(r, 5, 0), lambda r: exhaustive_lemma_suite(r, 5)],
    ids=["sampled", "exhaustive"],
)
def test_lemma_suites_reject_a_rule_id_that_is_no_int(run, rule):
    with pytest.raises(InputError, match=f"^unknown lemma id {rule}$"):
        run(rule)


@pytest.mark.parametrize(
    "samples, seed, message",
    [
        (6.0, 1, "sample count 6.0 is not an integer"),
        (True, 1, "sample count True is not an integer"),
        (6, 1.5, "seed 1.5 is not an integer"),
        (6, False, "seed False is not an integer"),
    ],
    ids=["float-samples", "bool-samples", "float-seed", "bool-seed"],
)
def test_sampled_lemma_suite_rejects_a_count_or_seed_that_is_no_int(
    monkeypatch, samples, seed, message
):
    # refused in the suite itself, before any instance is sampled
    monkeypatch.setattr("esos.harness.sample_instances", lambda *a: pytest.fail("sampled"))
    with pytest.raises(InputError) as exc:
        run_lemma_suite(3, samples, seed)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "build",
    [
        lambda: sample_instances(3, 13, 1, seed=0),
        lambda: next(enumerate_instances(3, Graph.empty(13))),
    ],
    ids=["sampled", "enumerated"],
)
def test_lemma_builders_reject_a_host_past_the_cap(build):
    # a size cap, so a CapabilityError (exit 3), raised before any work
    with pytest.raises(CapabilityError, match="^instance hosts capped at n <= 12$"):
        build()


def test_the_enumeration_cap_reads_the_same_from_check_and_census(capsys):
    assert main(["check", "--nmax", "8"]) == 3
    check_err = capsys.readouterr().err
    assert main(["census", "--n", "8", "--k", "2"]) == 3
    assert capsys.readouterr().err == check_err
    assert "built-in enumeration capped at n <= 7" in check_err


# -- CLI ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, code, env",
    [
        (["--json", "check", "--nmax", "3"], 0, {}),
        (["check", "--nmax", "0"], 2, {}),
        (["check", "--nmax", "8"], 3, {}),
        (["lemmas", "--which", "3", "--records", "--n", "13", "--samples", "1"], 3, {}),
        (["check", "--nmax", "3"], 2, {"ESOS_BUDGET": "-5"}),
        (["census", "--n", "4", "--k", "8"], 2, {}),
        (["lemmas", "--which", "3", "--samples", "5"], 3, {"ESOS_BUDGET": "0"}),
        (
            ["lemmas", "--which", "5", "--records", "--n", "7", "--samples", "5"],
            3,
            {"ESOS_BUDGET": "1"},
        ),
        (["lemmas", "--which", "3", "--samples", "6", "--n", "12"], 2, {}),
    ],
    ids=[
        "clean",
        "empty-range",
        "past-the-cap",
        "lemma-host-past-the-cap",
        "negative-budget",
        "impossible-census",
        "budget-trips-every-sample",
        "budget-trips-every-record",
        "n-without-records",
    ],
)
def test_module_entry_point_exit_codes(argv, code, env):
    # `python -m esos` on the package this suite imports
    src = str(Path(esos.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "esos", *argv],
        env={**os.environ, "PYTHONPATH": path, **env},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    if code == 0:
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["counts"]["graphs"] == 7 and report["failures"] == []


def test_cli_check_clean(capsys):
    assert main(["check", "--nmax", "4"]) == 0
    out = capsys.readouterr().out
    assert "clean" in out


def test_cli_check_json_deterministic(capsys):
    assert main(["--json", "check", "--nmax", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["--json", "check", "--nmax", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["failures"] == []


def test_cli_embed_paths(capsys):
    host = Graph.from_edges(
        5, [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    ).to_graph6()
    assert main(["embed", host, "--spider", "2,2", "--at", "0"]) == 0
    assert main(["embed", host, "--spider", "2,2", "--at", "3"]) == 1
    assert main(["--json", "embed", host, "--spider", "2,2", "--at", "3",
                 "--constructive"]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert payload["outcome"] == "certified" and payload["kind"] == "local"


def test_cli_embed_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("C~\nD~{\n"))
    assert main(["embed", "-", "--spider", "1,1", "--at", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2


def test_cli_embed_stdin_streams_and_names_the_bad_line(capsys, monkeypatch):
    # the graph before a malformed line is answered before that line is read
    monkeypatch.setattr("sys.stdin", io.StringIO("C~\nC~x\nD~{\n"))
    assert main(["embed", "-", "--spider", "1,1", "--at", "0"]) == 2
    out, err = capsys.readouterr()
    assert out.splitlines() == ["C~: embedded spider [1, 1] at 0: 0-1 0-2"]
    assert "line 2" in err


def test_cli_check_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("C~\nDhc\nD~{\n"))
    assert main(["--json", "check", "--stdin"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["graphs"] == 3
    assert payload["scope"]["source"] == "stream"


def test_cli_check_stdin_reports_the_graphs_before_a_bad_line(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("C~\nC~x\nD~{\n"))
    assert main(["--json", "check", "--stdin"]) == 2
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["counts"]["graphs"] == 1 and payload["failures"] == []
    assert "line 2" in err


def test_cli_rejects_a_negative_sample_count(capsys):
    assert main(["lemmas", "--which", "3", "--samples", "-5"]) == 2
    assert "input error" in capsys.readouterr().err


def test_cli_prints_a_certificate_in_text_mode(capsys):
    assert main(["embed", "DF{", "--spider", "2,2", "--at", "3", "--constructive"]) == 0
    assert capsys.readouterr().out == "DF{: certified (local) X=[0, 1, 2] Y=[3, 4]\n"


def test_cli_text_report_lists_twenty_failures_then_a_count(monkeypatch, capsys):
    failures = [{"i": i} for i in range(23)]
    report = report_mod.Report({"n_max": 3}, {"graphs": 4}, failures)
    monkeypatch.setattr(cli_mod, "verify_conjecture_spiders", lambda n_max: report)
    assert main(["check", "--nmax", "3"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "check: scope={'n_max': 3} counts={'graphs': 4}",
        *(f"  FAILURE: {{'i': {i}}}" for i in range(20)),
        "  ... 3 more",
        "check: FAILURES FOUND",
    ]


def test_cli_records_refuse_a_host_size_below_one(capsys):
    argv = ["lemmas", "--which", "3", "--records", "--n", "-5", "--samples", "3"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "input error: host size must be positive\n"


def test_cli_rejects_an_empty_check_range(capsys):
    assert main(["check", "--nmax", "0"]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["lemmas", "--which", "3", "--records", "--n", "2"],
        ["lemmas", "--which", "3", "--records", "--samples", "0"],
        ["lemmas", "--which", "5", "--samples", "0"],
        ["check", "--stdin"],
        ["--json", "check", "--stdin"],
    ],
)
def test_cli_runs_that_check_nothing_are_input_errors(capsys, monkeypatch, argv):
    monkeypatch.setattr("sys.stdin", io.StringIO("\n"))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert "input error" in err
    assert out == ""


@pytest.mark.parametrize(
    "stdin, extra, message",
    [
        ("", [], "no graph6 line on stdin"),
        ("\n\n", [], "no graph6 line on stdin"),
        ("", ["--constructive", "--at", "0"], "no graph6 line on stdin"),
        ("", ["--constructive"], "--constructive needs --at CENTRE"),
        # rejected before the stream is read, so its bad line goes unnamed
        ("C~x\n", ["--constructive"], "--constructive needs --at CENTRE"),
    ],
    ids=["empty", "blank", "constructive-empty", "no-at", "no-at-bad-line"],
)
def test_cli_embed_that_checks_nothing_is_an_input_error(
    capsys, monkeypatch, stdin, extra, message
):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert main(["embed", "-", "--spider", "1", *extra]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"input error: {message}\n"


def test_cli_input_error_exit_2(capsys):
    assert main(["census", "--n", "5", "--k", "3"]) == 2
    assert main(["embed", "C~", "--spider", "zap", "--at", "0"]) == 2


def test_cli_embed_rejects_an_out_of_range_centre(capsys):
    # a spider too large for the host used to print "no embedding", exit 1
    for spider in ("3,3", "1"):
        assert main(["embed", "Bw", "--spider", spider, "--at", "99"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "input error: centre outside 0..2\n" in err


def test_cli_census_rejects_k_zero(capsys):
    # 0 is even, but no spider has zero edges
    assert main(["census", "--n", "5", "--k", "0"]) == 2
    assert "positive even k" in capsys.readouterr().err


def test_cli_budget_exit_3(monkeypatch):
    monkeypatch.setenv("ESOS_BUDGET", "1")
    k7 = Graph.complete(7).to_graph6()
    assert main(["embed", k7, "--spider", "3,2", "--at", "0"]) == 3


def test_cli_lemmas_and_census(capsys):
    assert main(["--json", "lemmas", "--which", "6", "--samples", "40",
                 "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["instances"] == 40
    assert main(["census", "--n", "4", "--k", "2"]) == 0


def test_cli_lemma_records_stream(capsys):
    assert main(["lemmas", "--which", "4", "--samples", "5", "--seed", "2",
                 "--records", "--n", "7"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 5
    for line in lines:
        record = json.loads(line)
        assert {"lemma", "instance", "lambda", "case", "witness",
                "verified"} <= set(record)
        assert record["verified"] is True
        assert record["lambda"] == record["lambda_doubled"] / 2
