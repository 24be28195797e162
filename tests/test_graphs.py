import dataclasses
import io
import json
import random
import re
import tracemalloc
from itertools import combinations
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_from_bits, graphs
from oracles import (
    brute_edge_counts,
    brute_edges_between,
    brute_local_condition,
    brute_whole_graph_splits,
    reference_from_graph6,
    reference_is_symmetric,
    reference_to_graph6,
    reference_violator_search,
    scan_find_H_subgraph,
    scan_local_condition,
)

import esos.graphs as graphs_mod
from esos.cli import main
from esos.embed import theorem2_check
from esos.enumeration import graphs_up_to
from esos.errors import InputError
from esos.graphs import (
    Graph,
    HCertificate,
    bits_of,
    e_inside,
    edge_counts,
    edges_between,
    find_H_subgraph,
    heavy_vertex,
    recognize_H,
    satisfies_density,
    satisfies_local_condition,
    verify_H_certificate,
)
from esos.paths import longest_u_path

C4 = Graph.cycle(4)
K13 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])


@pytest.mark.parametrize(
    "n, rows, message",
    [
        (2, (0b10, 0b00), "asymmetric adjacency at (0,1)"),
        # two asymmetric pairs, (1,0) and (0,2): the first in row order
        (3, (0b100, 0b001, 0b000), "asymmetric adjacency at (0,2)"),
        (1, (0b1,), "loop at vertex 0"),
        (2, (0b01, 0b00), "loop at vertex 0"),
        (2, (0b100, 0b000), "row 0 references vertices >= n"),
        # every row's range and loop checks run before any symmetry check
        (2, (0b101, 0b00), "row 0 references vertices >= n"),
        (3, (0b010, 0b000, 0b100), "loop at vertex 2"),
    ],
)
def test_construction_error_texts(n, rows, message):
    with pytest.raises(InputError) as exc:
        Graph(n, rows)
    assert str(exc.value) == message


def test_construction_rejects_bad_rows():
    with pytest.raises(InputError):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(InputError):
        Graph.from_edges(3, [(1, 1)])


def test_list_rows_make_the_same_hashable_graph():
    listed, tupled = Graph(3, [6, 5, 3]), Graph(3, (6, 5, 3))
    assert listed.rows == (6, 5, 3)
    assert listed == tupled and hash(listed) == hash(tupled)
    assert longest_u_path(listed, 0) == longest_u_path(tupled, 0)
    assert longest_u_path(listed, 0).vertices == (0, 1, 2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda G: e_inside(G, [-1, 0]), "vertex set"),
        (lambda G: e_inside(G, [0, 9]), "vertex set"),
        (lambda G: edge_counts(G, [0, -2]), "vertex set"),
        (lambda G: heavy_vertex(G, [-1], 2), "vertex set"),
        (lambda G: edges_between(G, [-1], [0]), "first set"),
        (lambda G: edges_between(G, [1], [0, -3]), "second set"),
        (lambda G: G.induced([5]), "vertex set"),
        (lambda G: G.induced([-1]), "vertex set"),
        (lambda G: G.induced(1 << 9), "vertex set"),
    ],
    ids=["e_inside", "e_inside-high", "edge_counts", "heavy_vertex",
         "edges_between-first", "edges_between-second", "induced-high",
         "induced-negative", "induced-mask"],
)
def test_vertex_sets_out_of_range_are_input_errors(call, message):
    # a negative id is out of range like a large one, not a ValueError or
    # an IndexError
    with pytest.raises(InputError) as exc:
        call(Graph.complete(4))
    assert str(exc.value) == f"{message} references vertices outside 0..3"


def test_huge_vertex_id_is_rejected_before_it_becomes_a_bit():
    # 1 << 400_000_000 alone would take 50 MB
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="outside 0..3"):
            e_inside(Graph.complete(4), [400_000_000])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "build, n",
    [
        # rows of 10**4 vertices already take megabytes; at 10**5 the cycle
        # and path took hundreds, at 10**6 they would take gigabytes
        (Graph.path_graph, 10**4),
        (Graph.cycle, 10**4),
        (Graph.complete, 10**4),
        (lambda n: Graph.from_edges(n, []), 10**6),
        (Graph.empty, 10**6),
        # a vertex count that is not an int is outside the integers 1..128
        (lambda n: Graph(n, (2, 1)), 2.0),
        (Graph.empty, 2.5),
        (Graph.complete, 3.0),
        (Graph.cycle, 4.0),
        (lambda n: Graph.from_edges(n, []), True),
    ],
    ids=["path_graph", "cycle", "complete", "from_edges", "empty", "init-float",
         "empty-float", "complete-float", "cycle-float", "from_edges-bool"],
)
def test_constructors_check_the_vertex_count_before_building_rows(build, n):
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=f"^vertex count {n} outside 1..128$"):
            build(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_stored_full_mask_keeps_equality_hash_repr_and_replace():
    # full_mask is computed once, at construction, and stays out of
    # equality, hash and repr; dataclasses.replace computes it again
    G, same = Graph.complete(4), Graph(4, (14, 13, 11, 7))
    assert G.full_mask == same.full_mask == 0b1111
    assert G == same and hash(G) == hash(same) and {G: 1}[same] == 1
    assert repr(G) == "Graph(n=4, rows=(14, 13, 11, 7))"
    assert G != Graph.empty(4) and G != Graph.complete(5)
    emptied = dataclasses.replace(G, rows=(0, 0, 0, 0))
    assert emptied == Graph.empty(4) and emptied.full_mask == 0b1111
    grown = dataclasses.replace(G, n=5, rows=Graph.complete(5).rows)
    assert grown == Graph.complete(5) and grown.full_mask == 0b11111
    with pytest.raises(InputError, match="row count"):
        dataclasses.replace(G, n=3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        G.full_mask = 0


def test_set_sided_certificate_is_hashable_and_verifies():
    H32 = Graph.from_edges(5, [(x, y) for x in (0, 1, 2) for y in (3, 4)] + [(3, 4)])
    cert = HCertificate({0, 1, 2}, [3, 4])
    canonical = HCertificate(frozenset({0, 1, 2}), frozenset({3, 4}))
    assert cert == canonical and hash(cert) == hash(canonical)
    assert type(cert.x_side) is type(cert.y_side) is frozenset
    assert verify_H_certificate(H32, cert)


def test_edge_counts_examples():
    assert edge_counts(Graph.complete(3), [0, 1, 2]) == (3, 0)
    assert edge_counts(K13, [0]) == (0, 3)
    assert edge_counts(C4, [0, 1]) == (1, 2)  # oracle: brute_edge_counts
    assert brute_edge_counts(C4, [0, 1]) == (1, 2)


def test_edge_counts_rejects_out_of_range():
    with pytest.raises(InputError):
        edge_counts(C4, [0, 7])


def test_edges_between_examples():
    assert edges_between(Graph.complete(4), [0, 1], [2, 3]) == 4
    assert edges_between(C4, [0, 1], []) == 0
    assert edges_between(C4, [0], [1, 2]) == 1
    assert brute_edges_between(C4, [0], [1, 2]) == 1
    with pytest.raises(InputError):
        edges_between(C4, [0, 1], [1, 2])


def test_density_examples():
    assert satisfies_density(Graph.complete(4), 2)
    assert satisfies_density(Graph.path_graph(3), 2)  # 4 > 1*3
    assert not satisfies_density(Graph.empty(5), 1)
    with pytest.raises(InputError):
        satisfies_density(C4, 0)


def test_local_condition_examples():
    assert satisfies_local_condition(Graph.complete(5), 4) is None
    viol = satisfies_local_condition(K13, 3)
    assert viol is not None and viol <= {1, 2, 3} and len(viol) == 1
    assert satisfies_local_condition(Graph.empty(1), 1) == {0}


@pytest.mark.parametrize(
    "G, k",
    [
        (Graph.complete(5), 4),
        (C4, 2),
        (Graph.cycle(7), 1),
        (Graph.from_edges(10, nx.petersen_graph().edges), 3),
        (Graph.complete(16), 15),
    ],
    ids=["K5", "C4", "C7-k1", "petersen", "K16"],
)
def test_local_condition_builds_no_network_when_every_degree_reaches_k(
    monkeypatch, G, k
):
    # each d(v) - (k-1) >= 1, so every set meets the condition
    def refuse(*args):
        raise AssertionError("flow network built")

    monkeypatch.setattr(graphs_mod, "_violator_search", refuse)
    assert satisfies_local_condition(G, k) is None


def test_local_condition_runs_the_flow_when_one_degree_is_k_minus_1(monkeypatch):
    # every class with n <= 6 and a k that one vertex misses by one while
    # the others reach it: one network, and the brute oracle's answer (an
    # isolated vertex violates at k = 1)
    built = []
    search = graphs_mod._violator_search
    monkeypatch.setattr(
        graphs_mod, "_violator_search", lambda G, k: built.append(k) or search(G, k)
    )
    cases = violated = 0
    for G in graphs_up_to(6):
        degrees = sorted(map(G.degree, range(G.n)))
        k = degrees[0] + 1
        if G.n > 1 and degrees[1] < k:
            continue
        got = satisfies_local_condition(G, k)
        assert got == brute_local_condition(G, k)
        assert built == [k]
        built.clear()
        cases += 1
        violated += got is not None
    assert (cases, violated) == (85, 34)


@pytest.mark.parametrize("k", [2.5, 3.0, True], ids=["float", "whole-float", "bool"])
@pytest.mark.parametrize(
    "call",
    [satisfies_density, satisfies_local_condition, lambda G, k: heavy_vertex(G, 1, k)],
    ids=["density", "local-condition", "heavy-vertex"],
)
def test_k_must_be_an_integer(call, k):
    # the cuts test residuals for exact zeros: no float capacity is built
    with pytest.raises(InputError, match=f"^k {re.escape(repr(k))} is not an integer$"):
        call(K13, k)


def test_local_condition_has_no_size_cap(capsys, monkeypatch):
    # K8 on 0..7 with the path 7-8-...-31 hanging off it.  At k = 4 the
    # least violator is {8, 9}: h = d(S) + sum(d(v) - 3) = 2 - 2 = 0, and
    # every set below 2^9 holds a K8 vertex with d(v) - 3 >= 4.  Deleting
    # it detaches 10..31, whose end vertex then violates alone each time.
    core = [(a, b) for a in range(8) for b in range(a + 1, 8)]
    G = Graph.from_edges(32, core + [(v, v + 1) for v in range(7, 31)])
    assert satisfies_local_condition(G, 4) == {8, 9}
    assert satisfies_local_condition(G, 2) is None
    rep = theorem2_check(G, 4)
    assert rep.ok and rep.counts["embedded"] == rep.counts["spiders"] == 5
    assert rep.notes["deleted_sets"] == [[8, 9]] + [[v] for v in range(10, 32)]
    monkeypatch.setattr("sys.stdin", io.StringIO(G.to_graph6() + "\n"))
    assert main(["--json", "check", "--stdin"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["graphs"] == 1 and payload["failures"] == []


def test_heavy_vertex_examples():
    assert heavy_vertex(K13, [0], 3) == 0
    # K4, S=V: every vertex scores 2*3-3=3 >= 3; smallest id wins
    assert heavy_vertex(Graph.complete(4), range(4), 3) == 0
    assert heavy_vertex(Graph.cycle(5), range(5), 2) == 0
    with pytest.raises(InputError):
        heavy_vertex(C4, [], 2)


def test_recognize_H_examples():
    cert = recognize_H(C4)
    assert cert == HCertificate(frozenset({0, 2}), frozenset({1, 3}))
    cert = recognize_H(K13)
    assert cert.x_side == {1, 2, 3} and cert.y_side == {0}
    assert recognize_H(Graph.path_graph(4)) is None


def test_recognize_H_pool_examples():
    # inside a pool: the path 0-1-2-3 without 3 is the star on 1
    cert = recognize_H(Graph.path_graph(4), 0b0111)
    assert cert.x_side == {0, 2} and cert.y_side == {1}
    assert recognize_H(C4, 0) is None


@pytest.mark.parametrize("pool", [[-1, 0], 1 << 4, [0, 4]])
def test_recognize_H_rejects_a_pool_outside_the_host(pool):
    with pytest.raises(InputError, match="pool references vertices outside"):
        recognize_H(C4, pool)


def test_recognize_H_on_every_pool_matches_the_induced_whole_graph_split():
    # every pool, odd sizes included, of every class with n <= 5: the
    # largest-X, least-X split of the induced subgraph, mapped back
    for G in graphs_up_to(5):
        for pool in range(1, 1 << G.n):
            H, old = G.induced(pool)
            splits = brute_whole_graph_splits(H)
            cert = recognize_H(G, pool)
            if not splits:
                assert cert is None, (G, pool)
                continue
            x, y = min(splits, key=lambda s: (-len(s[0]), sorted(s[0])))
            want = ({old[i] for i in x}, {old[i] for i in y})
            assert (cert.x_side, cert.y_side) == want, (G, pool)
            assert verify_H_certificate(G, cert)


def test_verify_H_certificate_examples():
    assert verify_H_certificate(C4, HCertificate(frozenset({0, 2}), frozenset({1, 3})))
    assert not verify_H_certificate(
        C4, HCertificate(frozenset({0, 1}), frozenset({2, 3}))
    )
    assert verify_H_certificate(C4, HCertificate(frozenset(), frozenset({1})))


def test_verify_H_certificate_refuses_overlapping_sides():
    # a shared vertex is an X-vertex whose neighbourhood would have to
    # hold itself; K4 has every other edge the sides ask for
    K4 = Graph.complete(4)
    assert verify_H_certificate(K4, HCertificate({0}, {1, 2, 3}))
    assert not verify_H_certificate(K4, HCertificate({0, 1}, {1, 2, 3}))
    assert not verify_H_certificate(K4, HCertificate({0}, {0, 1, 2, 3}))


@pytest.mark.parametrize("x, y", [({-1}, {0}), ({1}, {-1})])
def test_verify_H_certificate_rejects_a_negative_id(x, y):
    assert not verify_H_certificate(C4, HCertificate(frozenset(x), frozenset(y)))


def test_find_H_subgraph_examples():
    cert = find_H_subgraph(C4, 2, 2, 0)
    assert cert is not None and verify_H_certificate(C4, cert)
    assert cert.vertex_mask() == 0b1111 and 0 in (cert.x_side | cert.y_side)
    assert find_H_subgraph(Graph.complete(3), 2, 2, 0) is None
    K23_iso = Graph.from_edges(
        6, [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)]
    )
    cert = find_H_subgraph(K23_iso, 3, 2, 0)
    assert cert is not None
    assert cert.x_side == {0, 1, 2} and cert.y_side == {3, 4}


def test_twin_class_splits_match_the_subset_scans():
    # every class with n <= 6: each (a, b, u) against the old subset scan,
    # and the whole-graph split against every split (largest X, then the
    # smallest sorted X).  No canonical labelling puts two qualifying Y in
    # the first neighbourhood searched, so one host that does is added: Y =
    # {0,2} (X = {4}) and {0,3} (X = {5}) both lie in N(1), and the
    # lexicographically least wins
    tie = Graph.from_edges(6, [(0, 1), (1, 2), (1, 3), (0, 4), (2, 4), (0, 5), (3, 5)])
    assert find_H_subgraph(tie, 1, 2, 0) == HCertificate(frozenset({4}), frozenset({0, 2}))
    for G in [*graphs_up_to(6), tie]:
        for u in range(G.n):
            for a in range(1, G.n + 1):
                for b in range(G.n + 1 - a):
                    cert = find_H_subgraph(G, a, b, u)
                    got = None if cert is None else (cert.x_side, cert.y_side)
                    assert got == scan_find_H_subgraph(G, a, b, u), (G, a, b, u)
                    if cert is not None:
                        assert verify_H_certificate(G, cert)
                        assert cert.a == a and cert.b == b
        splits = brute_whole_graph_splits(G)
        cert = recognize_H(G)
        if not splits:
            assert cert is None
            continue
        x, y = min(splits, key=lambda s: (-len(s[0]), sorted(s[0])))
        assert (cert.x_side, cert.y_side) == (x, y)


def test_find_H_subgraph_on_a_large_extremal_host():
    # K6 joined to an independent set of 37 vertices: the extremal host for
    # k = 12 at n = 43, far beyond what a scan of Y candidates could finish
    G = Graph.from_edges(43, [(a, b) for a in range(6) for b in range(a + 1, 43)])
    cert = find_H_subgraph(G, 7, 6, 0)
    assert cert.x_side == set(range(6, 13)) and cert.y_side == set(range(6))
    cert = find_H_subgraph(G, 7, 6, 20)
    assert cert.x_side == {20, 6, 7, 8, 9, 10, 11} and cert.y_side == set(range(6))
    whole = recognize_H(G)
    assert whole.x_side == set(range(6, 43)) and whole.y_side == set(range(6))


def test_certificate_json_shape():
    cert = HCertificate(frozenset({0, 2}), frozenset({1, 3}))
    assert json.loads(json.dumps(cert.to_json())) == {"x": [0, 2], "y": [1, 3]}


# -- graph6 ---------------------------------------------------------------


def test_graph6_known_encodings():
    assert Graph.complete(4).to_graph6() == "C~"
    assert Graph.empty(1).to_graph6() == "@"
    assert Graph.from_graph6("C~") == Graph.complete(4)
    assert Graph.from_graph6(">>graph6<<C~") == Graph.complete(4)


def test_graph6_rejects_garbage():
    with pytest.raises(InputError):
        Graph.from_graph6("")
    with pytest.raises(InputError):
        Graph.from_graph6("C~~")  # wrong body length
    with pytest.raises(InputError):
        Graph.from_graph6("C\x1f")  # \x1f is whitespace to strip(): an empty body


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty graph6 string"),
        (">>graph6<<", "empty graph6 string"),
        ("C>", "graph6 characters must be in range 63..126"),  # '>' is 62
        ("C\x7f", "graph6 characters must be in range 63..126"),
        ("~??", "truncated graph6 vertex count"),
        ("?", "graph6 vertex count 0 outside 1..128"),
        ("~?A@", "graph6 vertex count 129 outside 1..128"),  # long form, 2*64+1
        ("D?", "graph6 body length 1 does not match n=5 (need 2)"),
        ("C~~", "graph6 body length 2 does not match n=4 (need 1)"),
        ("Bx", "graph6 padding bits must be zero"),  # 'x' is 111001
    ],
    ids=[
        "empty",
        "header-only",
        "below-63",
        "above-126",
        "truncated-count",
        "n=0",
        "n=129",
        "body-short",
        "body-long",
        "padding",
    ],
)
def test_graph6_error_texts(text, message):
    with pytest.raises(InputError) as exc:
        Graph.from_graph6(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text", [b"C~", None, 4], ids=["bytes", "None", "int"])
def test_graph6_refuses_a_non_str(text):
    with pytest.raises(InputError) as exc:
        Graph.from_graph6(text)
    assert str(exc.value) == f"graph6 input must be a str, not {type(text).__name__}"


def _outcome(call, *args):
    try:
        return call(*args)
    except InputError as exc:
        return str(exc)


def _reference_row_error(n, rows):
    """The constructor's verdict on rows, from the reference symmetry check."""
    for v, row in enumerate(rows):
        if row >> n:
            return f"row {v} references vertices >= n"
        if row >> v & 1:
            return f"loop at vertex {v}"
    pair = reference_is_symmetric(rows)
    return None if pair is None else "asymmetric adjacency at ({},{})".format(*pair)


def test_graph6_codec_and_symmetry_check_match_the_reference_for_every_order():
    rng = random.Random(2024)
    for n in range(1, 129):
        for density in (0, 0.5, 1):
            rows = [0] * n
            edges = set()
            for a, b in combinations(range(n), 2):
                if rng.random() < density:
                    rows[a] |= 1 << b
                    rows[b] |= 1 << a
                    edges.add((a, b))
            rows = tuple(rows)
            text = reference_to_graph6(n, rows)
            G = Graph(n, rows)
            assert G.to_graph6() == text
            assert Graph.from_graph6(text) == G
            assert reference_from_graph6(text) == (n, rows)
            H = nx.from_graph6_bytes(text.encode())
            assert {tuple(sorted(e)) for e in H.edges} == edges
            assert nx.to_graph6_bytes(H, header=False).decode().strip() == text
            # one bit set past n, on a loop, or flipped on one side only
            v = rng.randrange(n)
            w = rng.choice([x for x in range(n) if x != v] or [v])
            for flip in (1 << n + rng.randrange(4), 1 << v, 1 << w):
                bad = list(rows)
                bad[v] ^= flip
                expected = _reference_row_error(n, bad)
                assert expected is not None
                assert _outcome(Graph, n, bad) == expected
            # one character replaced, dropped or added
            chars = list(text)
            i = rng.randrange(len(chars))
            chars[i] = chr(rng.randrange(60, 130))
            for broken in ("".join(chars), text[:-1], text + "?", text + "~"):
                got = _outcome(lambda t: Graph.from_graph6(t).rows, broken)
                want = _outcome(lambda t: reference_from_graph6(t)[1], broken)
                assert got == want


def test_decoded_graph_skips_the_constructor_checks(monkeypatch):
    # a decoded graph is symmetric by construction: one transpose builds it,
    # none checks it, and it equals the checked graph of its rows
    rng = random.Random(33)
    transposes = []
    transpose = graphs_mod._transpose
    monkeypatch.setattr(
        graphs_mod, "_transpose", lambda *args: transposes.append(1) or transpose(*args)
    )
    for n in range(1, 129):
        edges = [(a, b) for a, b in combinations(range(n), 2) if rng.random() < 0.5]
        text = reference_to_graph6(n, Graph.from_edges(n, edges).rows)
        transposes.clear()
        G = Graph.from_graph6(text)
        assert len(transposes) == 1
        checked = Graph(n, G.rows)
        assert type(G.rows) is tuple and G.full_mask == checked.full_mask
        assert (G, hash(G), repr(G)) == (checked, hash(checked), repr(checked))


def test_graph6_large_order_round_trip():
    import random

    rng = random.Random(99)
    edges = [
        (a, b)
        for a in range(70)
        for b in range(a + 1, 70)
        if rng.random() < 0.08
    ]
    G = Graph.from_edges(70, edges)
    text = G.to_graph6()
    assert text.startswith("~")  # long-form vertex count
    assert Graph.from_graph6(text) == G
    H = nx.from_graph6_bytes(text.encode())
    assert {tuple(sorted(e)) for e in H.edges} == set(G.edges())


def test_vertex_count_caps():
    with pytest.raises(InputError):
        Graph.empty(0)
    with pytest.raises(InputError):
        Graph.empty(129)
    Graph.empty(128)  # the cap itself is fine


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_graph6_round_trip_matches_networkx(G):
    text = G.to_graph6()
    assert Graph.from_graph6(text) == G
    H = nx.from_graph6_bytes(text.encode())
    assert set(H.nodes) == set(range(G.n))
    assert {tuple(sorted(e)) for e in H.edges} == set(G.edges())


@settings(max_examples=80, deadline=None)
@given(graphs(min_n=2, max_n=8))
def test_networkx_graph6_parses_back(G):
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges())
    data = nx.to_graph6_bytes(H, header=False).strip()
    assert Graph.from_graph6(data.decode()) == G


# -- invariants ------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(graphs(), st.integers(0, 2**28))
def test_edge_partition_invariant(G, pick):
    smask = pick & G.full_mask
    S = set(bits_of(smask))
    inside, boundary = edge_counts(G, S)
    rest = set(range(G.n)) - S
    outside, _ = edge_counts(G, rest)
    assert inside + boundary + outside == G.edge_count()
    assert boundary == edges_between(G, S, rest)


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=6), st.integers(1, 6))
def test_heavy_vertex_bound_when_condition_holds(G, k):
    if satisfies_local_condition(G, k) is not None:
        return
    for smask in range(1, 1 << G.n):
        v = heavy_vertex(G, smask, k)
        assert smask >> v & 1
        assert 2 * G.degree(v) - len(set(bits_of(G.rows[v])) & set(bits_of(smask))) >= k


def test_heavy_vertex_bound_exhaustive_small():
    for n in range(1, 6):
        for bits in range(1 << (n * (n - 1) // 2)):
            G = graph_from_bits(n, bits)
            for k in range(1, n + 1):
                if satisfies_local_condition(G, k) is not None:
                    continue
                v = heavy_vertex(G, G.full_mask, k)
                assert 2 * G.degree(v) - G.degree(v) >= k


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=6), st.integers(1, 6))
def test_local_condition_matches_oracle(G, k):
    got = satisfies_local_condition(G, k)
    want = brute_local_condition(G, k)
    assert got == want


def test_local_condition_matches_oracle_on_every_small_class():
    # past k = 2*maxdeg + 1 every singleton violates and the witness is {0}
    for G in graphs_up_to(7):
        for k in range(1, 2 * max(map(G.degree, range(G.n))) + 3):
            assert satisfies_local_condition(G, k) == brute_local_condition(G, k)


def test_local_condition_matches_subset_scan_on_seeded_hosts():
    rng = random.Random(16)
    for n in range(8, 17):
        for p in (0.2, 0.5, 0.8):
            G = Graph.from_edges(
                n, [(a, b) for a, b in combinations(range(n), 2) if rng.random() < p]
            )
            for k in sorted(rng.sample(range(1, n + 2), 3)):
                want = scan_local_condition(G, k)
                got = satisfies_local_condition(G, k)
                assert got == (None if want is None else set(bits_of(want)))


def _planted_host(n: int, seed: int) -> Graph:
    """A circulant C_m(1, 2) on m = n // 3 vertices (4-regular) beside a
    G(n - m, 1/2), joined by three edges, labels shuffled.  For k = 6..8
    long arcs of the circulant violate while no single vertex does."""
    rng = random.Random(seed)
    m = n // 3
    edges = {(i, (i + j) % m) for i in range(m) for j in (1, 2)}
    edges |= {(a, b) for a, b in combinations(range(m, n), 2) if rng.random() < 0.5}
    edges |= {(rng.randrange(m), rng.randrange(m, n)) for _ in range(3)}
    label = list(range(n))
    rng.shuffle(label)
    return Graph.from_edges(n, [(label[a], label[b]) for a, b in edges])


def _nx_min_h(G: Graph, k: int, inside: int, outside: int) -> int:
    """min of h(S) = d(S) + sum over S of (d(v) - (k-1)) over the sets with
    inside <= S <= V - outside, by networkx.minimum_cut (source side S)."""
    D = nx.DiGraph()
    D.add_nodes_from("st")
    for a, b in G.edges():
        D.add_edge(a, b, capacity=1)
        D.add_edge(b, a, capacity=1)
    shift = 0
    forced = 2 * G.n * (G.n + k)  # more than every arc below together
    for v in range(G.n):
        c = G.degree(v) - (k - 1)
        shift += min(c, 0)
        to_t = max(c, 0) + (forced if outside >> v & 1 else 0)
        from_s = max(-c, 0) + (forced if inside >> v & 1 else 0)
        if to_t:
            D.add_edge(v, "t", capacity=to_t)
        if from_s:
            D.add_edge("s", v, capacity=from_s)
    value, _ = nx.minimum_cut(D, "s", "t")
    return value + shift


@pytest.mark.parametrize("n", [30, 45, 60])
def test_local_condition_matches_networkx_cuts(n):
    G = _planted_host(n, n)
    full = G.full_mask
    sizes = []
    for k in (5, 6, 7):
        got = satisfies_local_condition(G, k)
        sizes.append(0 if got is None else len(got))
        if got is None:
            assert all(_nx_min_h(G, k, 1 << v, 0) >= 1 for v in range(n))
            continue
        e, d = brute_edge_counts(G, got)
        assert 2 * (e + d) <= (k - 1) * len(got)
        w = sum(1 << v for v in got)
        # no violator below w: for each bit j of w, none agrees with w above
        # j and leaves j out
        for j in got:
            above = w & -(2 << j)
            outside = (full & -(2 << j) & ~w) | 1 << j
            starts = [above] if above else [1 << v for v in range(j)]
            assert all(_nx_min_h(G, k, s, outside) >= 1 for s in starts)
    assert sizes[0] == 0 and min(sizes[1:]) > 1  # both sides are reached


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=8))
def test_recognize_H_is_verified_and_maximal(G):
    cert = recognize_H(G)
    splits = brute_whole_graph_splits(G)
    if cert is None:
        assert not splits
        return
    assert verify_H_certificate(G, cert)
    assert set(cert.x_side) | set(cert.y_side) == set(range(G.n))
    assert len(cert.x_side) == max(len(x) for x, _ in splits)


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=7), st.integers(0, 2**28))
def test_induced_preserves_symmetry(G, pick):
    keep = (pick & G.full_mask) | 1  # nonempty
    H, old = G.induced(keep)
    assert H.n == len(old)
    for i in range(H.n):
        for j in bits_of(H.rows[i]):
            assert H.has_edge(j, i) and G.has_edge(old[i], old[j])
    inside, _ = edge_counts(G, keep)
    assert H.edge_count() == inside


def _small_networks():
    # every class with n <= 6 at each k that builds a network, up to the
    # k past which every singleton violates
    for G in graphs_up_to(6):
        degrees = list(map(G.degree, range(G.n)))
        for k in range(min(degrees) + 1, 2 * max(degrees) + 3):
            yield G, k


def _stream_networks():
    # the benchmark's `stream` requests whose condition builds a network
    pins = Path(__file__).resolve().parent.parent / "perfbench" / "pins.json"
    for key in json.loads(pins.read_text())["stream"]:
        k, line = key.split(":", 1)
        G = Graph.from_graph6(line)
        if min(map(G.degree, range(G.n))) < int(k):
            yield G, int(k)


def _planted_networks():
    for n in (30, 64, 128):
        for k in (5, 6, 7, 8):
            yield _planted_host(n, n), k


@pytest.mark.parametrize(
    "networks, count",
    [(_small_networks, 1551), (_stream_networks, 396), (_planted_networks, 12)],
    ids=["small-classes", "stream", "planted"],
)
def test_violator_search_matches_the_reference_cut_for_cut(networks, count):
    # one network per (G, k), asked the unconstrained question and seeded
    # (inside, outside) pairs: the least-mask search's suffix and bit
    # constraints, and random forced sets
    rng = random.Random(35)
    built = asked = found = 0
    for G, k in networks():
        got, want = graphs_mod._violator_search(G, k), reference_violator_search(G, k)
        pairs = [(0, 0)]
        for j in rng.sample(range(G.n), min(G.n, 3)):
            suffix = G.full_mask & -(2 << j)
            below = rng.getrandbits(j + 1) & ((1 << j) - 1)
            drawn = [rng.choice("..io") for _ in range(G.n)]
            inside = sum(1 << v for v, c in enumerate(drawn) if c == "i")
            outside = sum(1 << v for v, c in enumerate(drawn) if c == "o")
            pairs += [(0, suffix), (1 << j, suffix | below), (inside, outside)]
        for pair in pairs:
            answer = got(*pair)
            assert answer == want(*pair), (G.to_graph6(), k, pair)
            found += answer is not None
        built += 1
        asked += len(pairs)
    assert built == count, built
    assert 0 < found < asked


@pytest.mark.parametrize(
    "line, k, outside, want",
    [("IHGh`Wa{O", 5, 1 << 9, 511), ("JFD[`aPEAe?", 5, 1 << 10, 1023)],
)
def test_violator_search_reopens_an_emptied_edge_arc(line, k, outside, want):
    # hosts found by a seeded search: a later phase pushes flow back along
    # an edge whose arc an earlier phase emptied, and the last level search
    # must cross that arc again to reach the whole source side
    G = Graph.from_graph6(line)
    assert reference_violator_search(G, k)(0, outside) == want
    assert graphs_mod._violator_search(G, k)(0, outside) == want
