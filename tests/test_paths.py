import sys
import threading
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_from_bits, graphs
from oracles import (
    brute_longest_path,
    brute_longest_path_len,
    brute_prefix_states,
    brute_reroute_ends,
    brute_reroute_last_neighbor,
    brute_second_ends,
    brute_spanning_path_to,
)

import esos.paths as paths_mod
from esos.enumeration import enumerate_graphs
from esos.errors import Budget, CapabilityError, InputError
from esos.graphs import Graph, bits_of, mask_of
from esos.paths import (
    MEMO_SIZE,
    UPath,
    absorb,
    check_lemma1_bound,
    check_lemma2_bound,
    check_observation1,
    is_absorbable,
    is_strictly_absorbable,
    is_valid_upath,
    longest_u_path,
    remember,
    reroute_ends,
    reroute_maximizing_last_neighbor,
    reroute_path_to,
    second_ends,
    spanning_path_to,
)

C4 = Graph.cycle(4)
C5 = Graph.cycle(5)
K4 = Graph.complete(4)
P4G = Graph.path_graph(4)


def all_upaths(G, u):
    """Every anchored path from u, nontrivial, by plain recursion."""
    out = []

    def walk(seq):
        for z in range(G.n):
            if z not in seq and G.has_edge(seq[-1], z):
                out.append(tuple(seq + [z]))
                walk(seq + [z])

    walk([u])
    return out


def test_upath_basics():
    P = UPath((0, 1, 2))
    assert is_valid_upath(C4, P.vertices)
    assert (P.anchor, P.end, P.length) == (0, 2, 2)
    assert not is_valid_upath(C4, (0, 2))  # non-edge
    assert not is_valid_upath(C4, (0, 1, 0))
    with pytest.raises(InputError):
        UPath(())


def test_strictly_absorbable_examples():
    assert is_strictly_absorbable(K4, UPath((0, 1)), 2) == 0
    assert is_strictly_absorbable(C4, UPath((0, 1, 2)), 3) is None
    lonely = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert is_strictly_absorbable(lonely, UPath((0, 1, 2)), 3) is None
    with pytest.raises(InputError):
        is_strictly_absorbable(C4, UPath((0, 1)), 1)


def test_absorbable_examples():
    assert is_absorbable(C4, UPath((0, 1, 2)), 3)
    assert not is_absorbable(P4G, UPath((0, 1)), 3)
    assert is_absorbable(K4, UPath((0, 1, 2)), 3)


def test_absorb_examples():
    assert absorb(C4, UPath((0, 1, 2)), 3).vertices == (0, 1, 2, 3)
    # end rule beats insertion
    assert absorb(K4, UPath((0, 1)), 2).vertices == (0, 1, 2)
    assert absorb(Graph.complete(3), UPath((0,)), 1).vertices == (0, 1)
    with pytest.raises(InputError):
        absorb(P4G, UPath((0, 1)), 3)


@settings(max_examples=120, deadline=None)
@given(graphs(max_n=6), st.data())
def test_absorb_grows_by_one_with_same_anchor(G, data):
    paths = [p for u in range(G.n) for p in all_upaths(G, u)]
    if not paths:
        return
    P = UPath(data.draw(st.sampled_from(paths)))
    outside = [v for v in range(G.n) if v not in P.vertices]
    if not outside:
        return
    v = data.draw(st.sampled_from(outside))
    if not is_absorbable(G, P, v):
        return
    Q = absorb(G, P, v)
    assert is_valid_upath(G, Q.vertices)
    assert Q.length == P.length + 1
    assert Q.anchor == P.anchor
    assert set(Q.vertices) == set(P.vertices) | {v}


def test_reroute_ends_examples():
    assert reroute_ends(K4, UPath((0, 1, 2, 3))) == {1, 2, 3}
    assert reroute_ends(P4G, UPath((0, 1, 2, 3))) == {3}
    assert reroute_ends(C5, UPath((0, 1, 2, 3, 4))) == {1, 4}


def test_reroute_exact_cap():
    G = Graph.path_graph(18)
    with pytest.raises(CapabilityError):
        reroute_ends(G, UPath(tuple(range(18))))


def test_reroute_ends_match_brute_exhaustive_small():
    for n in range(2, 6):
        for bits in range(1 << (n * (n - 1) // 2)):
            G = graph_from_bits(n, bits)
            for u in range(n):
                for seq in all_upaths(G, u):
                    P = UPath(seq)
                    assert reroute_ends(G, P) == brute_reroute_ends(G, P)


def test_longest_u_path_examples():
    assert longest_u_path(C5, 0).length == 4
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert longest_u_path(star, 0).length == 1
    assert longest_u_path(P4G, 1, [0]).vertices == (1, 2, 3)
    with pytest.raises(InputError):
        longest_u_path(C5, 0, [0])


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=7), st.integers(0, 6))
def test_longest_matches_brute(G, u):
    u %= G.n
    assert longest_u_path(G, u).length == brute_longest_path_len(G, u)


def test_second_ends_examples():
    P3 = Graph.path_graph(3)
    assert second_ends(P3, UPath((0, 1, 2))) == (frozenset(), frozenset({1}))
    assert second_ends(C4, UPath((0, 1, 2))) == (frozenset(), frozenset({1}))
    out, ins = second_ends(K4, UPath((0, 1, 2)))
    assert out == {3} and ins == {1}
    with pytest.raises(InputError):
        second_ends(C4, UPath((0,)))


@settings(max_examples=120, deadline=None)
@given(graphs(min_n=2, max_n=6), st.data())
def test_second_ends_match_brute(G, data):
    pool = [p for u in range(G.n) for p in all_upaths(G, u)]
    if not pool:
        return
    P = UPath(data.draw(st.sampled_from(pool)))
    got = second_ends(G, P)
    want = brute_second_ends(G, P)
    assert got == (frozenset(want[0]), frozenset(want[1]))


def test_inside_second_end_neighbourhood_property():
    # whenever no outside second end exists and P is longest, inside second
    # ends see only P
    for n in range(2, 6):
        for bits in range(1 << (n * (n - 1) // 2)):
            G = graph_from_bits(n, bits)
            for u in range(n):
                best = longest_u_path(G, u)
                if best.length < 1:
                    continue
                for seq in all_upaths(G, u):
                    if len(seq) - 1 != best.length:
                        continue
                    P = UPath(seq)
                    outside, inside = second_ends(G, P)
                    if outside:
                        continue
                    for w in inside:
                        assert set(bits_of(G.rows[w])) <= set(P.vertices)


def test_reroute_path_to_and_last_neighbor():
    G = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    P = UPath((0, 1, 2))
    assert reroute_path_to(G, P, 1).vertices == (0, 2, 1)
    assert reroute_path_to(G, P, 0) is None
    best = reroute_maximizing_last_neighbor(G, P, 3)
    # 3 sees 0 and 2; ordering 0-1-2 puts a neighbour of 3 last
    assert best.vertices == (0, 1, 2)
    with pytest.raises(InputError):
        reroute_maximizing_last_neighbor(G, P, 1)


def small_classes():
    for n in range(1, 6):
        yield from enumerate_graphs(n)


def small_graphs():
    """Every labelled graph with n <= 5: ties depend on the labelling."""
    for n in range(1, 6):
        for bits in range(1 << (n * (n - 1) // 2)):
            yield graph_from_bits(n, bits)


def test_longest_path_matches_brute_oracle():
    # the whole sequence, so the lexicographic tie-break is pinned as well
    for G in small_graphs():
        for u in range(G.n):
            others = [v for v in range(G.n) if v != u]
            for size in range(3):
                for avoid in combinations(others, size):
                    got = longest_u_path(G, u, avoid).vertices
                    assert got == brute_longest_path(G, u, avoid), (G, u, avoid)


def test_spanning_paths_and_reroutes_match_brute_oracle():
    for G in small_graphs():
        for u in range(G.n):
            others = [v for v in range(G.n) if v != u]
            for size in range(len(others) + 1):
                for rest in combinations(others, size):
                    verts = (u,) + rest
                    for end in verts:
                        got = spanning_path_to(G, mask_of(verts), u, end)
                        want = brute_spanning_path_to(G, verts, u, end)
                        assert (got and got.vertices) == want, (G, verts, end)
                    # the search reads only the anchor and the vertex set of P
                    P = UPath(verts)
                    for x in others:
                        if x in rest:
                            continue
                        want = brute_reroute_last_neighbor(G, P, x)
                        if want is None:
                            with pytest.raises(InputError):
                                reroute_maximizing_last_neighbor(G, P, x)
                        else:
                            got = reroute_maximizing_last_neighbor(G, P, x)
                            assert got.vertices == want, (G, verts, x)


def trips_at(monkeypatch, call, nodes):
    """call() raises CapabilityError under ESOS_BUDGET = nodes - 1 and
    succeeds under ESOS_BUDGET = nodes."""
    if nodes:
        monkeypatch.setenv("ESOS_BUDGET", str(nodes - 1))
        with pytest.raises(CapabilityError):
            call()
    monkeypatch.setenv("ESOS_BUDGET", str(nodes))
    call()


def test_path_search_budgets_trip_at_the_state_count(monkeypatch):
    # one node per distinct (vertex set, last vertex) path prefix; the
    # longest-path search counts the one-vertex root, the ends searches not
    for G in small_classes():
        for u in range(G.n):
            states = brute_prefix_states(G, u, range(G.n))
            trips_at(monkeypatch, lambda: longest_u_path(G, u), states)
            for seq in all_upaths(G, u):
                P = UPath(seq)
                states = brute_prefix_states(G, u, seq) - 1
                trips_at(monkeypatch, lambda: reroute_ends(G, P), states)
                states = brute_prefix_states(G, u, seq[:-1]) - 1
                trips_at(monkeypatch, lambda: second_ends(G, P), states)


def test_warm_path_memo_follows_the_budget(monkeypatch):
    G, P = Graph.complete(5), UPath((0, 1, 2, 3))
    budgets = []

    class Recorded(Budget):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            budgets.append(self)

    def no_search(*args):
        raise AssertionError("a memo hit must not search")

    monkeypatch.setattr(paths_mod, "Budget", Recorded)
    searches = (
        (lambda: longest_u_path(G, 0), brute_prefix_states(G, 0, range(5))),
        (lambda: reroute_ends(G, P), brute_prefix_states(G, 0, P.vertices) - 1),
        (lambda: second_ends(G, P), brute_prefix_states(G, 0, P.vertices[:-1]) - 1),
    )
    for call, nodes in searches:
        monkeypatch.setattr(paths_mod, "_path_memo", {})
        # a repeated search charges exactly what the first one spent
        first = call()
        assert call() == first
        assert budgets[-1].used == budgets[-2].used == nodes
        # a result found under the default limit does not answer a call
        # under a smaller one: the hit raises the cold search's error
        # without searching
        monkeypatch.setenv("ESOS_BUDGET", str(nodes - 1))
        with monkeypatch.context() as m:
            m.setattr(paths_mod, "_reach", no_search)
            with pytest.raises(CapabilityError) as warm:
                call()
        monkeypatch.setattr(paths_mod, "_path_memo", {})
        with pytest.raises(CapabilityError) as cold:
            call()
        assert str(warm.value) == str(cold.value)
        assert f"({nodes} > {nodes - 1} nodes)" in str(cold.value)
        monkeypatch.delenv("ESOS_BUDGET")


# -- bound checkers -----------------------------------------------------------


def test_observation1_examples():
    assert check_observation1(C4, UPath((0, 1, 2)), 3)
    lonely = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert check_observation1(lonely, UPath((0, 1, 2)), 3)
    assert check_observation1(K4, UPath((0, 1, 2)), 3)


def test_lemma1_bound_examples():
    assert check_lemma1_bound(K4, UPath((0, 1, 2, 3)))
    assert check_lemma1_bound(K4, UPath((0,)))
    assert check_lemma1_bound(C5, UPath((0, 1, 2, 3, 4)))


def test_lemma2_bound_example_and_preconditions():
    G = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 2)])
    P = longest_u_path(G, 0)
    assert P.length == 4
    assert check_lemma2_bound(G, P, UPath((0, 5)))
    with pytest.raises(InputError):
        check_lemma2_bound(G, UPath((0, 1)), UPath((0, 5)))  # P not longest
    with pytest.raises(InputError):
        check_lemma2_bound(G, P, UPath((0,)))  # trivial probe
    lonely = Graph.from_edges(3, [(0, 1), (0, 2)])
    with pytest.raises(InputError):
        # probe end sees nothing on P-u
        check_lemma2_bound(lonely, UPath((0, 1)), UPath((0, 2)))


def test_bound_checkers_exhaustive_n5():
    # all three proven bounds hold on every valid configuration, n ≤ 5
    for n in range(2, 6):
        for bits in range(1 << (n * (n - 1) // 2)):
            G = graph_from_bits(n, bits)
            for u in range(n):
                longest = longest_u_path(G, u).length
                for seq in all_upaths(G, u):
                    P = UPath(seq)
                    assert check_lemma1_bound(G, P)
                    for v in range(n):
                        if v not in seq:
                            assert check_observation1(G, P, v)
                    if len(seq) - 1 == longest:
                        pm = P.mask() & ~(1 << u)
                        for qseq in all_upaths(G, u):
                            if set(qseq) & set(seq) != {u}:
                                continue
                            x = qseq[-1]
                            if not G.rows[x] & pm:
                                continue
                            assert check_lemma2_bound(G, P, UPath(qseq))


def test_memo_stays_bounded_under_threads():
    # the search memos are shared by every thread of the process
    memo, errors = {}, []

    def fill(base):
        try:
            for i in range(5000):
                remember(memo, (base, i), i)
        except Exception as exc:
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fill, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(memo) == MEMO_SIZE
