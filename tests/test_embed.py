import hashlib
import json
import random
import re
import tracemalloc
from dataclasses import FrozenInstanceError
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_from_bits, graphs
from oracles import (
    brute_embeds_anywhere,
    brute_embeds_at,
    reference_embed_search,
    reference_verify_embedding,
)

import esos.embed as embed_mod
from esos.enumeration import enumerate_graphs, graphs_up_to
from esos.errors import Budget, CapabilityError, InputError, SoundnessError
from esos.graphs import (
    Graph,
    HCertificate,
    find_H_subgraph,
    heavy_vertex,
    satisfies_local_condition,
    verify_H_certificate,
)
from esos.harness import _dense_ks
from esos.lemmas import make_instance
from esos.embed import (
    Embedding,
    embed_bruteforce,
    embed_constructive,
    embed_into_H,
    theorem2_check,
    verify_embedding,
)
from esos.paths import UPath, check_lemma2_bound, first_upath_to, longest_u_path
from esos.spiders import Spider, enumerate_spiders

K4 = Graph.complete(4)


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


def test_oracle_checks_the_spider_fits_before_listing_splits():
    # a one-leg spider at a centre has k/2 + 1 path splits; a spider with
    # k + 1 > n is refused before they are built
    tracemalloc.start()
    try:
        assert embed_bruteforce(Graph.complete(4), Spider((3_000_000,)), 0) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_oracle_rejects_out_of_range_centres():
    # the centre is checked before the size test, which answered None here
    # for spiders too large for the host
    K3 = Graph.complete(3)
    for legs in [(2, 1, 1), (3, 3), (1,)]:
        for u in (99, 3, -1):
            with pytest.raises(InputError, match=r"^centre outside 0\.\.2$"):
                embed_bruteforce(K3, Spider(legs), u)


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


def test_list_legged_spider_verifies_and_certifies_as_its_tuple_form():
    # Spider([2, 2]) is t0(4): its embedding verifies, and at a centre of
    # the extremal host it gets the all-twos spider's local certificate
    G, T = Graph.complete(5), Spider([2, 2])
    assert verify_embedding(G, T, embed_bruteforce(G, Spider((2, 2)), 0))
    out = embed_constructive(h32_host(), T, 3)
    assert (out.kind, out.spider_is_t0) == ("local", True)


def test_list_legged_embedding_is_hashable_and_verifies():
    G, T = Graph.complete(3), Spider((1, 1))
    canonical = Embedding(0, (UPath((0, 1)), UPath((0, 2))))
    forms = (
        Embedding(0, [UPath((0, 1)), UPath((0, 2))]),
        Embedding(0, [[0, 1], [0, 2]]),  # vertex lists become paths
    )
    for listed in forms:
        assert listed == canonical and hash(listed) == hash(canonical)
        assert type(listed.legs) is tuple
        assert verify_embedding(G, T, listed)


SIDE_IDS = "certificate sides must hold integer ids"
CENTRE_ID = "embedding centre must be an integer id"
PATH_ITERABLE = "a path must be an iterable of vertex ids"
SIDES_ITERABLE = "certificate sides must be iterables of vertex ids"
CENTRE_INT = "centre must be an integer id"


@pytest.mark.parametrize(
    "call, text",
    [
        (lambda: verify_H_certificate(K4, HCertificate({1.5}, {0})), SIDE_IDS),
        (lambda: HCertificate({"a"}, {0}), SIDE_IDS),
        (lambda: HCertificate({0}, {True}), SIDE_IDS),
        (lambda: verify_embedding(K4, Spider((1,)), Embedding(1.0, [(1, 0)])), CENTRE_ID),
        (lambda: Embedding(True, [(1, 0)]), CENTRE_ID),
        (lambda: Embedding(0, [[0, 1], [0, 1.5]]), "path vertices must be integer ids"),
        (lambda: UPath(5), PATH_ITERABLE),
        (lambda: Embedding(0, [5]), PATH_ITERABLE),
        (lambda: Embedding(0, 5), "embedding legs must be an iterable of paths"),
        (lambda: HCertificate(5, {0}), SIDES_ITERABLE),
        (lambda: HCertificate({0}, 5), SIDES_ITERABLE),
        (lambda: embed_bruteforce(Graph.complete(5), Spider((2, 1)), True), CENTRE_INT),
        (lambda: embed_bruteforce(K4, Spider((1,)), 1.0), CENTRE_INT),
        (lambda: embed_constructive(K4, Spider((1,)), 1.0), CENTRE_INT),
        (lambda: find_H_subgraph(K4, 1, 1, 1.0), "u must be an integer id"),
        (lambda: longest_u_path(K4, 1.0), "anchor must be an integer id"),
        (lambda: Graph(2, 5), "adjacency rows must be an iterable of integer masks"),
        (lambda: Graph.from_edges(3, None), "edges must be an iterable of vertex pairs"),
        (lambda: Graph.from_edges(3, [(0, 1, 2)]), "edge (0, 1, 2) must be a pair of vertex ids"),
        (lambda: Graph.from_edges(3, [0]), "edge 0 must be a pair of vertex ids"),
        (lambda: Graph.from_edges(3, [("0", "1")]), "edge ('0','1') must join integer ids"),
        (lambda: Graph.from_edges(3, [(0, "1")]), "edge (0,'1') must join integer ids"),
    ],
    ids=[
        "cert-float",
        "cert-str",
        "cert-bool",
        "emb-float",
        "emb-bool",
        "emb-list-leg",
        "path-int",
        "emb-int-leg",
        "emb-int-legs",
        "cert-int-x",
        "cert-int-y",
        "bruteforce-bool-centre",
        "bruteforce-float-centre",
        "constructive-float-centre",
        "find-H-float-u",
        "longest-path-float-anchor",
        "graph-int-rows",
        "graph-none-edges",
        "graph-triple-edge",
        "graph-int-edge",
        "graph-str-edge",
        "graph-str-end",
    ],
)
def test_witness_types_refuse_ids_their_verifiers_cannot_read(call, text):
    with pytest.raises(InputError, match=f"^{re.escape(text)}$"):
        call()


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
    # not the stripped one the guided phase extends
    with pytest.raises(InputError) as err:
        embed_constructive(star, Spider((2, 2)), 0)
    assert "2,2" in str(err.value)


def test_constructive_deterministic():
    G = graph_from_bits(6, 0b101011011010101)
    T = Spider((2, 1))
    outs = set()
    for _ in range(3):
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
    with pytest.raises(InputError, match="^k 4.0 is not an integer$"):
        theorem2_check(Graph.complete(6), 4.0)


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
    # K16 with a pendant path out to n = 128: the reduction deletes the path,
    # then every spider embeds in K16
    core = [(a, b) for a in range(16) for b in range(a + 1, 16)]
    G = Graph.from_edges(128, core + [(v, v + 1) for v in range(15, 127)])
    rep = theorem2_check(G, 4)
    assert rep.ok
    assert (
        rep.counts["embedded"],
        rep.counts["via_certificate"],
        rep.counts["reduction_steps"],
    ) == (5, 0, 111)


def test_theorem2_converts_certificates():
    # five singletons over a dominating pair: [2,2] misses the heavy vertex,
    # gets certified, and is embedded inside the certified split instead
    G = Graph.from_graph6("F?B~w")
    assert satisfies_local_condition(G, 4) is None
    rep = theorem2_check(G, 4)
    assert rep.ok
    assert rep.counts["via_certificate"] == 1
    assert rep.counts["embedded"] == 5


def test_theorem2_reports_a_spider_with_no_embedding(monkeypatch):
    # [2] gets a certificate too small to hold it, in which embed_into_H
    # finds none, and [1, 1] a bare-centre embedding, which fails
    # verification: each is a failure entry, in spider order
    def outcome(H, T, u):
        if T.legs == (2,):
            return embed_mod.EmbedOutcome(certificate=HCertificate({u}, set()))
        return embed_mod.EmbedOutcome(embedding=Embedding(u, [(u,)]))

    monkeypatch.setattr(embed_mod, "embed_constructive", outcome)
    rep = theorem2_check(Graph.complete(4), 2)
    assert not rep.ok and rep.exit_code == 1
    assert rep.counts == {
        "spiders": 2, "embedded": 0, "via_certificate": 1, "reduction_steps": 0
    }
    assert rep.failures == [
        {"spider": [2], "reason": "no embedding found"},
        {"spider": [1, 1], "reason": "no embedding found"},
    ]
    assert rep.notes == {"deleted_sets": [], "embeddings": []}


def test_theorem2_reports_an_embedding_that_fails_its_lift(monkeypatch):
    # the pendant vertex is deleted, so the reduced host is a new graph; an
    # embedding verifies there but not, once lifted, in the original host
    core = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    G = Graph.from_edges(6, core + [(0, 5)])
    verify = embed_mod.verify_embedding
    monkeypatch.setattr(
        embed_mod, "verify_embedding", lambda H, T, emb: H is not G and verify(H, T, emb)
    )
    rep = theorem2_check(G, 4)
    spiders = [T.to_json() for T in enumerate_spiders(4)]
    assert not rep.ok and rep.exit_code == 1
    assert rep.counts == {
        "spiders": 5, "embedded": 0, "via_certificate": 0, "reduction_steps": 1
    }
    assert rep.failures == [{"spider": T, "reason": "lift failed"} for T in spiders]
    assert rep.notes == {"deleted_sets": [[5]], "embeddings": []}


def test_oracle_budget_error():
    import esos.embed as embed_mod

    old = embed_mod.EMBED_DEFAULT_BUDGET
    embed_mod.EMBED_DEFAULT_BUDGET = 2
    try:
        with pytest.raises(CapabilityError):
            embed_bruteforce(Graph.complete(8), Spider((3, 2, 2)), 0)
    finally:
        embed_mod.EMBED_DEFAULT_BUDGET = old


@pytest.mark.parametrize(
    "error", [SoundnessError, InputError, CapabilityError], ids=lambda e: e.__name__
)
def test_constructive_surfaces_soundness_error_from_guided_phase(monkeypatch, error):
    # a contract breach or an input error inside the guided phase surfaces;
    # only a tripped size cap or budget hands the spider to the oracle
    G, T = Graph.complete(5), Spider((2, 1))

    def refuse(*args):
        raise error("refused in a guided move")

    monkeypatch.setattr(embed_mod, "_guided", refuse)
    if error is CapabilityError:
        assert embed_constructive(G, T, 0).embedding == embed_bruteforce(G, T, 0)
    else:
        with pytest.raises(error, match="guided move"):
            embed_constructive(G, T, 0)


def test_constructive_raises_on_an_unverified_embedding(monkeypatch):
    # a guided embedding that fails verification is a breach, not a miss
    G = Graph.complete(5)
    bent = Embedding(0, (UPath((0, 1, 2)), UPath((0, 1))))  # legs share 1
    monkeypatch.setattr(embed_mod, "_guided", lambda *args: bent)
    with pytest.raises(SoundnessError, match="^embedding failed verification: "):
        embed_constructive(G, Spider((2, 1)), 0)


def test_constructive_raises_on_an_overlapping_direct_move(monkeypatch):
    # the direct move trusts the placement it extends; a placement whose
    # legs overlap reaches embed_constructive's check and is a breach
    G = Graph.complete(5)
    monkeypatch.setattr(embed_mod, "place_legs", lambda *args: [1, 1])
    with pytest.raises(SoundnessError, match="^embedding failed verification: "):
        embed_constructive(G, Spider((2, 1)), 0)


def test_constructive_raises_on_a_breached_dichotomy(monkeypatch):
    # no embedding, no certificate and no violating set: the dichotomy fails
    G = Graph.complete(5)
    monkeypatch.setattr(embed_mod, "_guided", lambda *args: None)
    monkeypatch.setattr(embed_mod, "embed_bruteforce", lambda *args: None)
    with pytest.raises(SoundnessError, match="^dichotomy breached: 2,1 not embeddable at 0 on D~{"):
        embed_constructive(G, Spider((2, 1)), 0)


def test_only_the_all_twos_spider_tries_a_local_certificate(monkeypatch):
    # K_3 joined to four independent vertices: at a K_3 vertex, [4,2] and
    # [2,2,2] both miss (each needs three more K_3 vertices), and the whole
    # graph is their (4, 3) certificate.  Without it, the non-T0 spider gets
    # no certificate and no local split is searched for it, although a
    # (4, 3) split through u exists; T0 still gets that local split
    G = Graph.from_graph6("F~zf?")
    searched = []
    local = embed_mod.local_split
    monkeypatch.setattr(embed_mod, "whole_split", lambda *args: None)
    monkeypatch.setattr(
        embed_mod, "local_split", lambda *args: searched.append(args) or local(*args)
    )
    with pytest.raises(InputError, match="^spider 4,2 does not embed at 0 and no certificate"):
        embed_constructive(G, Spider((4, 2)), 0)
    assert searched == []
    out = embed_constructive(G, Spider((2, 2, 2)), 0)
    assert (out.kind, out.spider_is_t0, len(searched)) == ("local", True, 1)


def _constructive_cases() -> Iterator[tuple[Graph, Spider, int]]:
    """The classes with n <= 6, every centre u, k <= d(u) and spider."""
    for G in graphs_up_to(6):
        for u in range(G.n):
            for k in range(1, G.degree(u) + 1):
                for T in enumerate_spiders(k):
                    yield G, T, u


def _constructive_digest() -> tuple[int, str, str]:
    """Call count and two SHA-256 digests over ``_constructive_cases``: of
    every embed_constructive outcome or error text, and of the verdicts
    alone ("embedded" for an embedding, the certificate outcome, or the
    error text)."""
    full = hashlib.sha256()
    verdicts = hashlib.sha256()
    calls = 0
    for G, T, u in _constructive_cases():
        try:
            out = embed_constructive(G, T, u)
            line = json.dumps(out.to_json(), sort_keys=True)
            verdict = "embedded" if out.embedded else line
        except (InputError, CapabilityError) as exc:
            line = verdict = f"{type(exc).__name__}: {exc}"
        full.update(line.encode() + b"\n")
        verdicts.update(verdict.encode() + b"\n")
        calls += 1
    return calls, full.hexdigest(), verdicts.hexdigest()


FULL_PIN = "b9c0747ebf3c1cff165eb25a165cbfd985784aa7180d3bb8f9558b3582bf0c7e"
VERDICT_PIN = "9e48f948143567c9a38548fcbe805d66e7e2a4b1dd5a801b8399350d7755ab88"


@pytest.mark.parametrize(
    "budget, full, verdicts",
    [
        (None, FULL_PIN, VERDICT_PIN),
        (
            "40",
            "4d25ca355043496f385c8e5451b18cb12a8ae8da77c9c133d48ba39571c517d0",
            "7ccb5bd961a1903e1dce0a2722e426dea0f3bf67b4e5e9487259794d54288b72",
        ),
        ("300", FULL_PIN, VERDICT_PIN),
    ],
    ids=["None", "40", "300"],
)
def test_constructive_outcomes_are_pinned(monkeypatch, budget, full, verdicts):
    # every embedding, certificate and error text, also under a budget that
    # trips the guided phase's path searches (40) and a looser one (300); the
    # verdict digests were taken before the guided phase changed, and hold
    # whichever verified embedding it returns
    if budget is None:
        monkeypatch.delenv("ESOS_BUDGET", raising=False)
    else:
        monkeypatch.setenv("ESOS_BUDGET", budget)
    assert _constructive_digest() == (5913, full, verdicts)


def _multi_leg_cases(n_max: int) -> Iterator[tuple[Graph, Spider, int]]:
    """The (G, T, u) cases of dichotomy_check(n_max) whose spider has two
    or more legs: the ones the guided phase sees."""
    for G in graphs_up_to(n_max):
        for k in _dense_ks(G):
            if satisfies_local_condition(G, k) is not None:
                continue
            for u in range(G.n):
                if G.degree(u) < k:
                    continue
                for T in enumerate_spiders(k):
                    if len(T.legs) >= 2:
                        yield G, T, u


def test_guided_moves_are_pinned_on_the_dichotomy_cases(monkeypatch):
    # every outcome on dichotomy_check(7)'s multi-leg cases, where the
    # guided moves decide 20,433 (direct), 35 (absorb), 2 (reroute) and
    # 350 (swap), and the oracle the other 22
    monkeypatch.delenv("ESOS_BUDGET", raising=False)
    digest = hashlib.sha256()
    cases = 0
    for G, T, u in _multi_leg_cases(7):
        out = embed_constructive(G, T, u)
        digest.update(json.dumps(out.to_json(), sort_keys=True).encode() + b"\n")
        cases += 1
    assert (cases, digest.hexdigest()) == (
        20842,
        "71a21da28386fdce8ad34531f8eec06ad31a2255edf29181daae4f0ab4c7fd1a",
    )


def _count_calls(monkeypatch, *names) -> dict[str, int]:
    """Patch each named function of esos.embed to count its calls there."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        inner = getattr(embed_mod, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(embed_mod, name, counted(name))
    return calls


@pytest.mark.parametrize(
    "G, u, legs, asked",
    [
        (Graph.complete(5), 0, (3, 1), (0, 0)),
        (Graph.complete(16), 0, (2, 1, 1), (0, 0)),
        (Graph.from_graph6("D]{"), 4, (3, 1), (1, 0)),
        (Graph.from_graph6("DQ{"), 4, (2, 1, 1), (2, 1)),
    ],
    ids=["K5-3,1", "K16-2,1,1", "D]{-3,1", "DQ{-2,1,1"],
)
def test_guided_searches_each_path_question_once(monkeypatch, G, u, legs, asked):
    # the direct extension asks no path question; past it, one probe end
    # for the stripped spider's embedding, and before the swap one
    # second-end search for its stub and one longest path per swap try
    T = Spider(legs)
    calls = _count_calls(monkeypatch, "longest_u_path", "second_ends")
    emb = embed_mod._guided(G, T, u)
    assert emb is not None and verify_embedding(G, T, emb)
    assert (calls["longest_u_path"], calls["second_ends"]) == asked


@pytest.mark.parametrize(
    "G, u, legs",
    [(Graph.complete(5), 0, (3, 1)), (Graph.complete(16), 0, (2, 1, 1))],
    ids=["K5-3,1", "K16-2,1,1"],
)
def test_direct_move_searches_and_verifies_once(monkeypatch, G, u, legs):
    # where the direct extension decides, embed_constructive runs one
    # placement search and checks the embedding it returns once
    calls = _count_calls(monkeypatch, "place_legs", "verify_embedding")
    assert embed_constructive(G, Spider(legs), u).embedded
    assert calls == {"place_legs": 1, "verify_embedding": 1}


def _oracle_agrees_with_itertools(G) -> int:
    """embed_bruteforce against the itertools oracles on every spider with
    k < n, at every centre and anywhere; the number of (G, T, u) triples."""
    triples = 0
    for k in range(1, G.n):
        for T in enumerate_spiders(k):
            anywhere = embed_bruteforce(G, T)
            assert (anywhere is not None) == brute_embeds_anywhere(G, T), (G, T)
            assert anywhere is None or verify_embedding(G, T, anywhere)
            for u in range(G.n):
                emb = embed_bruteforce(G, T, u)
                assert (emb is not None) == brute_embeds_at(G, T, u), (G, T, u)
                if emb is not None:
                    assert emb.center == u and verify_embedding(G, T, emb)
                triples += 1
    return triples


def test_oracle_matches_itertools_oracle_exhaustive_n6():
    assert sum(_oracle_agrees_with_itertools(G) for G in graphs_up_to(6)) == 19022


def test_oracle_matches_itertools_oracle_sampled_n7():
    classes = enumerate_graphs(7)
    for G in random.Random(7).sample(classes, 40):
        _oracle_agrees_with_itertools(G)


def _run_search(search, G, legs, center, limit):
    budget = Budget(limit, "embedding oracle")
    try:
        return search(G, legs, center, budget), budget.used, None
    except CapabilityError as exc:
        return None, budget.used, str(exc)


def _search_agrees_with_reference(G) -> int:
    """The flat search against the recursive reference on every spider with
    k < n, path split and centre: the same embedding and Budget.used, and
    at limits used - 1 and used // 2 the same CapabilityError (the first
    trips only at the last node, the second mid-search); the number of
    searches."""
    searches = 0
    for k in range(1, G.n):
        for T in enumerate_spiders(k):
            splits = embed_mod._path_splits(k) if len(T.legs) == 1 else [T.legs]
            for legs in splits:
                for c in range(G.n):
                    args = (G, legs, c)
                    want = _run_search(reference_embed_search, *args, 10**9)
                    assert _run_search(embed_mod._embed_search, *args, 10**9) == want, args
                    used = want[1]
                    for limit in {used - 1, used // 2} if used else ():
                        tight = _run_search(reference_embed_search, *args, limit)
                        assert tight[2] is not None
                        assert _run_search(embed_mod._embed_search, *args, limit) == tight, args
                    searches += 1
    return searches


def test_oracle_search_matches_reference_exhaustive_n6():
    assert sum(_search_agrees_with_reference(G) for G in graphs_up_to(6)) == 25418


def test_oracle_search_matches_reference_sampled_n7_n8():
    rng = random.Random(15)
    for G in rng.sample(enumerate_graphs(7), 30):
        _search_agrees_with_reference(G)
    for _ in range(12):
        _search_agrees_with_reference(graph_from_bits(8, rng.getrandbits(28)))


def _assert_built_as_checked(emb: Embedding) -> None:
    """Each leg of emb against ``UPath`` of its vertices (equality, hash,
    repr, mask), and emb against the embedding of those checked legs
    (equality, hash, JSON)."""
    checked = Embedding(emb.center, tuple(UPath(l.vertices) for l in emb.legs))
    for leg, want in zip(emb.legs, checked.legs):
        assert (leg, hash(leg), repr(leg), leg.mask()) == (
            want, hash(want), repr(want), want.mask()
        )
    assert (emb, hash(emb), emb.to_json()) == (checked, hash(checked), checked.to_json())


def test_oracle_legs_match_checked_legs_exhaustive_n6():
    # the oracle builds its legs unchecked, from the placement; every class
    # with n <= 6, spider with k < n, path split and centre
    found = 0
    for G in graphs_up_to(6):
        for k in range(1, G.n):
            for T in enumerate_spiders(k):
                splits = embed_mod._path_splits(k) if len(T.legs) == 1 else [T.legs]
                for legs in splits:
                    for c in range(G.n):
                        budget = Budget(10**9, "embedding oracle")
                        emb = embed_mod._embed_search(G, legs, c, budget)
                        if emb is not None:
                            _assert_built_as_checked(emb)
                            found += 1
    assert found == 14131


def test_guided_legs_match_checked_legs_on_the_dichotomy_cases(monkeypatch):
    # every guided embedding of dichotomy_check(6)'s cases; the direct move
    # (no probe path asked for) decides all but a few of them
    calls = _count_calls(monkeypatch, "longest_u_path")
    direct = other = 0
    for G, T, u in _multi_leg_cases(6):
        before = calls["longest_u_path"]
        emb = embed_mod._guided(G, T, u)
        if emb is None:
            continue
        assert verify_embedding(G, T, emb)
        _assert_built_as_checked(emb)
        if calls["longest_u_path"] == before:
            direct += 1
        else:
            other += 1
    assert (direct, other) == (1831, 31)


def _assert_read_as_checked(G: Graph, T: Spider, emb: Embedding) -> None:
    """The verdict on emb is the same before and after its legs are first
    read, every read gives one tuple, assignment is refused, and
    ``_assert_built_as_checked`` holds."""
    verdict = verify_embedding(G, T, emb)
    legs = emb.legs
    assert emb.legs is legs and verify_embedding(G, T, emb) == verdict
    for name in ("center", "legs"):
        with pytest.raises(FrozenInstanceError):
            setattr(emb, name, legs)
    _assert_built_as_checked(emb)


def test_constructive_embeddings_match_checked_legs_exhaustive_n6(monkeypatch):
    # the oracle's placements, the direct move's grown placements and the
    # legs the other moves assemble, as embed_constructive returns them
    monkeypatch.delenv("ESOS_BUDGET", raising=False)
    found = 0
    for G, T, u in _constructive_cases():
        try:
            out = embed_constructive(G, T, u)
        except InputError:
            continue
        if out.embedded:
            _assert_read_as_checked(G, T, out.embedding)
            found += 1
    assert found == 5807


def test_only_a_failed_direct_move_cuts_legs(monkeypatch):
    # the oracle and the verifier read placements flat; embed_constructive
    # cuts the stripped spider's placement into legs once per case whose
    # direct move fails, which is the case that asks for a probe path (303
    # of the 5,913 cases)
    monkeypatch.delenv("ESOS_BUDGET", raising=False)
    calls = _count_calls(monkeypatch, "_placed_legs", "longest_u_path")
    for G in graphs_up_to(6):
        for k in range(1, G.n):
            for T in enumerate_spiders(k):
                for u in (None, *range(G.n)):
                    emb = embed_bruteforce(G, T, u)
                    assert emb is None or verify_embedding(G, T, emb)
    assert calls["_placed_legs"] == 0
    failed = 0
    for G, T, u in _constructive_cases():
        before = dict(calls)
        try:
            embed_constructive(G, T, u)
        except InputError:
            pass
        probed = calls["longest_u_path"] > before["longest_u_path"]
        assert calls["_placed_legs"] - before["_placed_legs"] == probed, (G, T, u)
        failed += probed
    assert failed == 303


def _forged(vertices) -> UPath:
    """A UPath that skips the constructor's checks, so repeated and
    negative ids reach the verifiers."""
    leg = object.__new__(UPath)
    mask = 0
    for v in vertices:
        if v >= 0:
            mask |= 1 << v
    object.__setattr__(leg, "vertices", tuple(vertices))
    object.__setattr__(leg, "_mask", mask)
    return leg


def _tamperings(G, emb, rng):
    """Seeded corruptions of a valid embedding, by kind."""
    c, legs = emb.center, list(emb.legs)
    out = [
        ("wrong centre", Embedding((c + rng.randrange(1, G.n)) % G.n, emb.legs)),
        ("centre out of range", Embedding(rng.choice([G.n, -1]), emb.legs)),
        ("dropped leg", Embedding(c, tuple(legs[:-1]))),
        ("legs reversed", Embedding(c, tuple(legs[::-1]))),
    ]

    def with_vertex(i, p, v):
        vs = list(legs[i].vertices)
        vs[p] = v
        new = legs[:i] + [_forged(vs)] + legs[i + 1 :]
        return Embedding(c, tuple(new))

    i = rng.randrange(len(legs))
    p = rng.randrange(1, len(legs[i].vertices))
    out += [
        ("vertex out of range", with_vertex(i, p, G.n + rng.randrange(3))),
        ("negative vertex", with_vertex(i, p, -1 - rng.randrange(3))),
        ("repeated centre", with_vertex(i, p, c)),
        ("non-edge", with_vertex(i, p, rng.randrange(G.n))),
    ]
    if len(legs) >= 2:
        j = rng.choice([t for t in range(len(legs)) if t != i])
        out.append(("legs overlap", with_vertex(i, p, rng.choice(legs[j].vertices[1:]))))
    short = legs[i].vertices[:-1]
    longer = legs[i].vertices + (rng.randrange(G.n),)
    for name, vs in (("leg shortened", short), ("leg lengthened", longer)):
        out.append((name, Embedding(c, tuple(legs[:i] + [_forged(vs)] + legs[i + 1 :]))))
    if len(legs) <= 2:
        # the one-leg spider's path, split again at each of its vertices
        path = legs[-1].vertices[::-1] + (legs[0].vertices[1:] if len(legs) == 2 else ())
        for q, x in enumerate(path):
            ends = (UPath(path[q:]), UPath(path[q::-1]))
            out += [
                ("path split", Embedding(x, ends)),
                ("path one leg", Embedding(x, ends[:1])),
                ("path three legs", Embedding(x, ends + (UPath((x,)),))),
            ]
    return out


def test_verify_embedding_matches_reference():
    rng = random.Random(1509)
    seen = {}
    for G in graphs_up_to(6):
        for k in range(1, G.n):
            for T in enumerate_spiders(k):
                for u in range(G.n):
                    emb = embed_bruteforce(G, T, u)
                    if emb is None:
                        continue
                    assert verify_embedding(G, T, emb)
                    assert reference_verify_embedding(G, T, emb)
                    for kind, bad in _tamperings(G, emb, rng):
                        want = reference_verify_embedding(G, T, bad)
                        assert verify_embedding(G, T, bad) == want, (kind, bad)
                        seen.setdefault(kind, set()).add(want)
    # every kind of corruption was made and rejected somewhere; only a
    # re-split path, a relabelled non-edge or a swap of equal legs can stay
    # valid
    assert len(seen) == 14
    assert all(False in verdicts for verdicts in seen.values()), seen
    assert {kind for kind, verdicts in seen.items() if True in verdicts} <= {
        "path split", "path one leg", "non-edge", "legs reversed",
    }


NO_EDGE = "spider must have at least one edge"


@pytest.mark.parametrize(
    "call, text",
    [
        (lambda: embed_bruteforce(K4, Spider(()), 0), NO_EDGE),
        (lambda: embed_constructive(K4, Spider(()), 0), NO_EDGE),
        (lambda: embed_constructive(K4, Spider((1,)), -1), "centre outside 0..3"),
        (lambda: embed_constructive(K4, Spider((1,)), 4), "centre outside 0..3"),
        (
            lambda: embed_into_H(HCertificate({0, 1}, {1, 2}), Spider((2,)), 0),
            "malformed certificate: overlapping sides",
        ),
        (
            lambda: embed_into_H(HCertificate({0}, {1}), Spider((2,)), 3),
            "centre lies outside the certified split",
        ),
        (lambda: K4.induced(0), "induced subgraph needs at least one vertex"),
        (lambda: satisfies_local_condition(K4, 0), "k must be positive"),
        (lambda: heavy_vertex(K4, K4.full_mask, 0), "k must be positive"),
        (lambda: find_H_subgraph(K4, 0, 1, 0), "need a >= 1 and b >= 0"),
        (lambda: find_H_subgraph(K4, 1, 1, 4), "u outside 0..3"),
        (
            lambda: make_instance(4, Graph.complete(5), 0, UPath((0, 1)), UPath((2, 3))),
            "lemma 4 needs an explicit x",
        ),
        (
            lambda: check_lemma2_bound(K4, UPath((0, 1)), UPath((1, 2))),
            "paths must share the anchor",
        ),
        (
            lambda: check_lemma2_bound(Graph.cycle(4), UPath((0, 2)), UPath((0, 1))),
            "arguments must be paths of the graph",
        ),
        (
            lambda: check_lemma2_bound(K4, UPath((0, 1, 2)), UPath((0, 1))),
            "probe path must avoid V(P-u)",
        ),
        (lambda: Spider.parse(","), "empty spider literal"),
        (lambda: first_upath_to(K4, 0, K4.full_mask, 0, Budget(10, "walk")), None),
    ],
    ids=[
        "bruteforce-empty-spider",
        "constructive-empty-spider",
        "constructive-centre-negative",
        "constructive-centre-too-large",
        "into-H-overlapping-sides",
        "into-H-centre-outside",
        "induced-empty",
        "local-condition-k0",
        "heavy-vertex-k0",
        "find-H-a0",
        "find-H-u-out-of-range",
        "lemma4-without-x",
        "lemma2-anchors-differ",
        "lemma2-non-path",
        "lemma2-probe-meets-P",
        "parse-empty",
        "first-upath-to-itself",
    ],
)
def test_rejection_branches_keep_their_texts(call, text):
    # a text of None: the call answers None instead of raising
    if text is None:
        assert call() is None
        return
    with pytest.raises(InputError, match=f"^{re.escape(text)}$"):
        call()
