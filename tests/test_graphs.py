import io
import json
import random
from itertools import combinations

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
    scan_find_H_subgraph,
    scan_local_condition,
)

from esos.cli import main
from esos.embed import theorem2_check
from esos.enumeration import graphs_up_to
from esos.errors import InputError
from esos.graphs import (
    Graph,
    HCertificate,
    bits_of,
    edge_counts,
    edges_between,
    find_H_subgraph,
    heavy_vertex,
    recognize_H,
    satisfies_density,
    satisfies_local_condition,
    verify_H_certificate,
)

C4 = Graph.cycle(4)
K13 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])


def test_construction_rejects_bad_rows():
    with pytest.raises(InputError):
        Graph(2, (1, 0))  # asymmetric
    with pytest.raises(InputError):
        Graph(1, (1,))  # loop
    with pytest.raises(InputError):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(InputError):
        Graph.from_edges(3, [(1, 1)])


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


def test_verify_H_certificate_examples():
    assert verify_H_certificate(C4, HCertificate(frozenset({0, 2}), frozenset({1, 3})))
    assert not verify_H_certificate(
        C4, HCertificate(frozenset({0, 1}), frozenset({2, 3}))
    )
    assert verify_H_certificate(C4, HCertificate(frozenset(), frozenset({1})))


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
        Graph.from_graph6("C\x1f")  # character below 63


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
