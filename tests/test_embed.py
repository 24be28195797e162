import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_from_bits, graphs
from oracles import brute_embeds_anywhere, brute_embeds_at

import esos.embed as embed_mod
from esos.errors import CapabilityError, InputError, SoundnessError
from esos.graphs import Graph, HCertificate, satisfies_local_condition
from esos.embed import (
    Embedding,
    clear_memo,
    embed_bruteforce,
    embed_constructive,
    embed_into_H,
    theorem2_check,
    verify_embedding,
)
from esos.paths import UPath
from esos.spiders import Spider, enumerate_spiders


def h32_host():
    # three independent vertices each seeing both of a dominating pair
    return Graph.from_edges(
        5, [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    )


def test_oracle_examples():
    emb = embed_bruteforce(Graph.complete(5), Spider((2, 2)), 0)
    assert emb is not None and verify_embedding(Graph.complete(5), Spider((2, 2)), emb)
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    emb = embed_bruteforce(star, Spider((1, 1, 1)), 0)
    assert emb.to_json() == {"center": 0, "legs": [[0, 1], [0, 2], [0, 3]]}
    assert embed_bruteforce(h32_host(), Spider((2, 2)), 3) is None
    assert embed_bruteforce(h32_host(), Spider((2, 2)), 4) is None
    for x in (0, 1, 2):
        assert embed_bruteforce(h32_host(), Spider((2, 2)), x) is not None


def test_oracle_single_leg_goes_through_the_centre():
    # two triangles glued at 4: no 3-edge path starts at 4, but one runs
    # through it, and a path's centre may be any of its vertices
    bowtie = Graph.from_edges(
        5, [(0, 2), (0, 4), (2, 4), (1, 3), (1, 4), (3, 4)]
    )
    emb = embed_bruteforce(bowtie, Spider((3,)), 4)
    assert emb is not None
    assert verify_embedding(bowtie, Spider((3,)), emb)
    assert {leg.length for leg in emb.legs} <= {1, 2, 3}
    assert sum(leg.length for leg in emb.legs) == 3


def test_verify_embedding_negatives():
    G = Graph.complete(5)
    T = Spider((2, 2))
    good = embed_bruteforce(G, T, 0)
    assert verify_embedding(G, T, good)
    shared = Embedding(0, (UPath((0, 1, 2)), UPath((0, 3, 2))))
    assert not verify_embedding(G, T, shared)
    C4 = Graph.cycle(4)
    nonedge = Embedding(0, (UPath((0, 1)), UPath((0, 2))))
    assert not verify_embedding(C4, Spider((1, 1)), nonedge)
    wrong_len = Embedding(0, (UPath((0, 1, 2)), UPath((0, 3))))
    assert not verify_embedding(G, T, wrong_len)


def test_embed_into_H_examples():
    cert = HCertificate(frozenset({0, 1, 2}), frozenset({3, 4}))
    emb = embed_into_H(cert, Spider((2, 2)), 0)
    assert emb is not None
    assert verify_embedding(h32_host(), Spider((2, 2)), emb)
    assert embed_into_H(cert, Spider((4,)), 0) is not None
    small = HCertificate(frozenset({0, 1}), frozenset({2}))
    assert embed_into_H(small, Spider((4,)), 0) is None  # needs two Y vertices
    emb = embed_into_H(small, Spider((2,)), 0)
    assert emb.to_json() == {"center": 0, "legs": [[0, 2, 1]]}
    assert embed_into_H(cert, Spider((2, 2)), 3) is None  # centre in Y
    with pytest.raises(InputError):
        embed_into_H(cert, Spider((2, 1, 1)), 0)


def test_constructive_matches_oracle_on_examples():
    out = embed_constructive(Graph.complete(5), Spider((2, 2)), 0)
    assert out.embedded


def test_constructive_certifies_extremal_host():
    host = h32_host()
    for u in (3, 4):
        out = embed_constructive(host, Spider((2, 2)), u)
        assert not out.embedded
        assert out.kind == "local" and out.spider_is_t0
        assert out.certificate.a == 3 and out.certificate.b == 2
        assert u in out.certificate.x_side | out.certificate.y_side


def test_constructive_rejects_low_degree_centre():
    with pytest.raises(InputError):
        embed_constructive(Graph.path_graph(4), Spider((2, 1)), 0)


def test_constructive_reports_missing_certificate_as_input_error():
    # star host: [4] does not embed at the centre, no split of the promised
    # shape exists, and the per-subset condition is violated -> input error
    star = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    with pytest.raises(InputError) as err:
        embed_constructive(star, Spider((4,)), 0)
    assert "condition fails" in str(err.value)
    # same host, two-leg spider: the error must blame the requested spider,
    # not the stripped one the guided phase recursed on
    clear_memo()
    with pytest.raises(InputError) as err:
        embed_constructive(star, Spider((2, 2)), 0)
    assert "2,2" in str(err.value)


def test_constructive_deterministic():
    G = graph_from_bits(6, 0b101011011010101)
    T = Spider((2, 1))
    outs = set()
    for _ in range(3):
        clear_memo()
        u = next(v for v in range(G.n) if G.degree(v) >= 3)
        out = embed_constructive(G, T, u)
        outs.add(str(out.to_json()))
    assert len(outs) == 1


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=2, max_n=6), st.data())
def test_constructive_agrees_with_brute_oracle(G, data):
    ks = [k for k in range(1, G.n) if 2 * G.edge_count() > (k - 1) * G.n]
    ks = [k for k in ks if satisfies_local_condition(G, k) is None]
    if not ks:
        return
    k = data.draw(st.sampled_from(ks))
    centres = [u for u in range(G.n) if G.degree(u) >= k]
    if not centres:
        return
    u = data.draw(st.sampled_from(centres))
    T = data.draw(st.sampled_from(list(enumerate_spiders(k))))
    out = embed_constructive(G, T, u)
    assert out.embedded == brute_embeds_at(G, T, u)
    if out.embedded:
        assert verify_embedding(G, T, out.embedding)


def test_theorem2_examples():
    rep = theorem2_check(Graph.complete(4), 3)
    assert rep.ok and rep.counts["spiders"] == 3 and rep.counts["embedded"] == 3
    with pytest.raises(InputError):
        theorem2_check(Graph.path_graph(4), 3)


def test_theorem2_reduction_and_oracle_cross_check():
    rng = random.Random(5)
    checked = 0
    while checked < 6:
        n, k = 6, 3
        target = ((k - 1) * n) // 2 + 1
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        rng.shuffle(pairs)
        G = Graph.from_edges(n, pairs[:target])
        if not 2 * G.edge_count() > (k - 1) * n:
            continue
        checked += 1
        rep = theorem2_check(G, k)
        assert rep.ok, rep.failures
        for T in enumerate_spiders(k):
            assert brute_embeds_anywhere(G, T)
        for entry in rep.notes["embeddings"]:
            T = Spider.from_lengths(entry["spider"])
            emb = Embedding(
                entry["embedding"]["center"],
                tuple(UPath(tuple(leg)) for leg in entry["embedding"]["legs"]),
            )
            assert verify_embedding(G, T, emb)


def test_theorem2_runs_the_reduction_when_needed():
    # a dense core plus a pendant vertex: the pendant forces a deletion
    core = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    G = Graph.from_edges(6, core + [(0, 5)])
    k = 4
    assert 2 * G.edge_count() > (k - 1) * G.n
    assert satisfies_local_condition(G, k) is not None
    rep = theorem2_check(G, k)
    assert rep.ok
    assert rep.counts["reduction_steps"] >= 1
    assert rep.notes["deleted_sets"]


def test_theorem2_converts_certificates():
    # five singletons over a dominating pair: [2,2] misses the heavy vertex,
    # gets certified, and is embedded inside the certified split instead
    G = Graph.from_graph6("F?B~w")
    assert satisfies_local_condition(G, 4) is None
    rep = theorem2_check(G, 4)
    assert rep.ok
    assert rep.counts["via_certificate"] == 1
    assert rep.counts["embedded"] == 5


def test_oracle_budget_error():
    import esos.embed as embed_mod

    old = embed_mod.EMBED_DEFAULT_BUDGET
    embed_mod.EMBED_DEFAULT_BUDGET = 2
    try:
        with pytest.raises(CapabilityError):
            embed_bruteforce(Graph.complete(8), Spider((3, 2, 2)), 0)
    finally:
        embed_mod.EMBED_DEFAULT_BUDGET = old


def test_constructive_surfaces_soundness_error_from_guided_phase(monkeypatch):
    # a contract breach in the recursive certify of the stripped spider
    # must not be swallowed by the guided phase
    G, T = Graph.complete(5), Spider((2, 1))
    real = embed_mod._constructive

    def breach_below(G, legs, u):
        if legs == T.legs:
            return real(G, legs, u)
        raise SoundnessError("contract breach in the stripped spider")

    monkeypatch.setattr(embed_mod, "_memo", {})
    monkeypatch.setattr(embed_mod, "_constructive", breach_below)
    with pytest.raises(SoundnessError, match="stripped spider"):
        embed_constructive(G, T, 0)
