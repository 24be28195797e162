import math
import sys
import threading
import tracemalloc
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_from_bits, graphs
from oracles import (
    brute_longest_path,
    brute_longest_path_len,
    brute_on_every_upath,
    brute_prefix_states,
    brute_reroute_ends,
    brute_reroute_last_neighbor,
    brute_second_ends,
    brute_spanning_path_to,
    reference_is_valid_upath,
)

import esos.paths as paths_mod
from esos.enumeration import enumerate_graphs
from esos.errors import Budget, CapabilityError, InputError
from esos.graphs import Graph, bits_of, mask_of
from esos.paths import (
    MEMO_SIZE,
    UPath,
    _spanning_path,
    check_lemma1_bound,
    check_lemma2_bound,
    check_observation1,
    first_upath_to,
    is_absorbable,
    is_strictly_absorbable,
    is_valid_upath,
    iter_upaths,
    iter_upaths_exact,
    longest_u_path,
    on_every_upath,
    recall,
    reroute_ends,
    reroute_maximizing_last_neighbor,
    second_ends,
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
    with pytest.raises(InputError, match="distinct"):
        UPath((0, 1, 0))
    with pytest.raises(InputError, match="nonnegative"):
        UPath((-1, 0))
    # list vertices are taken as a tuple, so the path stays hashable
    assert UPath([0, 1]) == UPath((0, 1)) and hash(UPath([0, 1])) == hash(UPath((0, 1)))
    # the mask built at construction stays out of equality, hash and repr
    assert UPath((0, 1)) == UPath((0, 1)) and UPath((0, 1)) != UPath((1, 0))
    assert hash(UPath((0, 1))) == hash(UPath((0, 1)))
    assert P.mask() == 0b111 and UPath((2, 0)).mask() == 0b101
    assert repr(P) == "UPath(vertices=(0, 1, 2))"
    assert P.to_json() == [0, 1, 2]


def test_huge_path_vertex_is_rejected_before_it_becomes_a_bit():
    # 1 << 400_000_000 alone would take 50 MB
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="below 128"):
            UPath((0, 400_000_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("vertices", [(0, True), (0, 1.0), (True,), (0.0, 1), (0, "1")])
def test_non_integer_path_vertices_are_input_errors(vertices):
    # a bool vertex printed as JSON true, a float one failed its shift; the
    # type is checked before any other check
    with pytest.raises(InputError, match="^path vertices must be integer ids$"):
        UPath(vertices)


def test_valid_upath_matches_reference_on_small_classes():
    for n in range(1, 5):
        for G in enumerate_graphs(n):
            for size in range(5):
                for seq in product(range(-1, n + 1), repeat=size):
                    assert is_valid_upath(G, seq) == reference_is_valid_upath(
                        G, seq
                    ), (G, seq)


@pytest.mark.parametrize("u", [-1, 4])
def test_longest_u_path_rejects_an_anchor_out_of_range(u):
    with pytest.raises(InputError, match=r"^anchor outside 0\.\.3$"):
        longest_u_path(K4, u)


@pytest.mark.parametrize(
    "call",
    [
        lambda v: is_absorbable(K4, UPath((0, 1)), v),
        lambda v: is_strictly_absorbable(K4, UPath((0, 1)), v),
        lambda v: check_observation1(K4, UPath((0, 1)), v),
        lambda v: reroute_maximizing_last_neighbor(K4, UPath((0, 1)), v),
        lambda v: longest_u_path(K4, 0, avoid=[v]),
    ],
    ids=[
        "is_absorbable",
        "is_strictly_absorbable",
        "check_observation1",
        "reroute_maximizing_last_neighbor",
        "longest_u_path_avoid",
    ],
)
@pytest.mark.parametrize("v", [-1, 9])
def test_path_helpers_reject_a_vertex_out_of_range(call, v):
    with pytest.raises(InputError):
        call(v)


def test_path_helpers_keep_the_on_path_texts():
    P = UPath((0, 1))
    for call in (is_absorbable, is_strictly_absorbable, check_observation1):
        with pytest.raises(InputError, match="vertex already on the path"):
            call(K4, P, 1)
    with pytest.raises(InputError, match="reference vertex lies on the path"):
        reroute_maximizing_last_neighbor(K4, P, 1)


@pytest.mark.parametrize(
    "call",
    [
        is_absorbable,
        is_strictly_absorbable,
        check_observation1,
        reroute_maximizing_last_neighbor,
    ],
    ids=lambda call: call.__name__,
)
@pytest.mark.parametrize("G, P", [(K4, UPath((0, 7))), (C4, UPath((0, 2)))])
def test_path_helpers_reject_a_non_path(call, G, P):
    with pytest.raises(InputError, match="P must be a path of the host"):
        call(G, P, 1)


def test_second_ends_rejects_a_non_path():
    for G, P in ((K4, UPath((0, 7))), (C4, UPath((0, 2)))):
        with pytest.raises(InputError, match="P must be a path of the host"):
            second_ends(G, P)


def test_reroute_ends_rejects_a_non_path():
    for G, P in ((K4, UPath((0, 7))), (C4, UPath((0, 2)))):
        with pytest.raises(InputError, match="P must be a path of the host"):
            reroute_ends(G, P)


def test_lemma1_bound_rejects_a_non_path():
    for G, P in ((K4, UPath((0, 7))), (C4, UPath((0, 2)))):
        with pytest.raises(InputError, match="P must be a path of the host"):
            check_lemma1_bound(G, P)


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


def test_absorption_checks_its_input_once_per_call(monkeypatch):
    # each public predicate validates P once, then scans P's edges unchecked;
    # in the first host P's end misses v, so absorption needs a splice
    checked = []
    real = paths_mod.is_valid_upath

    def counted(G, vertices):
        checked.append(vertices)
        return real(G, vertices)

    monkeypatch.setattr(paths_mod, "is_valid_upath", counted)
    splice = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    cases = [
        (splice, UPath((0, 1, 2)), 3),
        (C4, UPath((0, 1, 2)), 3),
        (P4G, UPath((0, 1)), 3),
    ]
    for G, P, v in cases:
        for call in (is_absorbable, is_strictly_absorbable, check_observation1):
            checked.clear()
            call(G, P, v)
            assert len(checked) == 1, (call.__name__, G, P)


def test_reroute_ends_examples():
    assert reroute_ends(K4, UPath((0, 1, 2, 3))) == {1, 2, 3}
    assert reroute_ends(P4G, UPath((0, 1, 2, 3))) == {3}
    assert reroute_ends(C5, UPath((0, 1, 2, 3, 4))) == {1, 4}


def test_reroute_exact_cap():
    G = Graph.path_graph(18)
    with pytest.raises(CapabilityError):
        reroute_ends(G, UPath(tuple(range(18))))


@pytest.mark.parametrize(
    "search, cap, message",
    [
        (
            lambda G, m: reroute_maximizing_last_neighbor(G, UPath(tuple(range(m))), m),
            16,
            "^exact reroute set capped at 16 vertices$",
        ),
        (
            lambda G, m: _spanning_path(G, (1 << m) - 1, 0, m - 1),
            18,
            "^spanning-path scan capped at 18 vertices$",
        ),
    ],
    ids=["last-neighbor-reroute", "spanning-path"],
)
def test_unbudgeted_path_tables_are_capped(search, cap, message):
    # a path graph's tables are tiny, so only the cap refuses one vertex more
    G = Graph.path_graph(cap + 2)
    assert search(G, cap).vertices == tuple(range(cap))
    with pytest.raises(CapabilityError, match=message):
        search(G, cap + 1)


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


def test_reroute_by_spanning_path_and_last_neighbor():
    # a reroute of P ending at a given vertex is a spanning path of V(P)
    G = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    P = UPath((0, 1, 2))
    assert _spanning_path(G, P.mask(), P.anchor, 1).vertices == (0, 2, 1)
    assert _spanning_path(G, P.mask(), P.anchor, 0) is None
    best = reroute_maximizing_last_neighbor(G, P, 3)
    # 3 sees 0 and 2; ordering 0-1-2 puts a neighbour of 3 last
    assert best.vertices == (0, 1, 2)
    with pytest.raises(InputError):
        reroute_maximizing_last_neighbor(G, P, 1)


K5 = Graph.complete(5)
K5_ALL = K5.full_mask


@pytest.mark.parametrize(
    "call",
    [
        lambda b: iter_upaths(K5, -1, K5_ALL, b),
        lambda b: iter_upaths(K5, 9, K5_ALL | 1 << 9, b),
        lambda b: iter_upaths(K5, 9, K5_ALL, b),
        lambda b: iter_upaths(K5, 0, K5_ALL | 1 << 9, b),
        lambda b: iter_upaths(K5, 0, -1, b),
        lambda b: list(iter_upaths_exact(K5, 9, K5_ALL, 2, b)),
        lambda b: first_upath_to(K5, 0, K5_ALL | 1 << 9, 9, b),
        lambda b: first_upath_to(K5, -1, K5_ALL, 1, b),
        lambda b: first_upath_to(K5, 0, K5_ALL, -1, b),
        lambda b: first_upath_to(K5, 0, K5_ALL, 9, b),
    ],
    ids=[
        "walk-anchor-negative",
        "walk-anchor-and-mask-beyond-host",
        "walk-anchor-beyond-host",
        "walk-mask-beyond-host",
        "walk-mask-negative",
        "exact-anchor-beyond-host",
        "first-target-and-mask-beyond-host",
        "first-anchor-negative",
        "first-target-negative",
        "first-target-beyond-host",
    ],
)
def test_path_walks_reject_ids_outside_the_host(call):
    # the plain walk checks when it is called, and no call spends a node
    budget = Budget(10**6)
    with pytest.raises(InputError, match="outside 0..4"):
        call(budget)
    assert budget.used == 0


@pytest.mark.parametrize(
    "call",
    [
        lambda b: iter_upaths(K5, 0, K5_ALL, b, shortest=-1),
        lambda b: iter_upaths(K5, 0, K5_ALL, b, longest=-1),
        lambda b: iter_upaths_exact(K5, 0, K5_ALL, -1, b),
    ],
    ids=["walk-shortest-negative", "walk-longest-negative", "exact-length-negative"],
)
def test_path_walks_reject_a_negative_bound(call):
    # longest=-1 used to walk every u-path, as if there were no bound
    budget = Budget(10**6)
    with pytest.raises(InputError, match="path length bounds must be nonnegative"):
        list(call(budget))
    assert budget.used == 0


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


def test_on_every_upath_matches_brute_oracle(monkeypatch):
    # the answer, and a charge of the root plus one node per (vertex set,
    # last vertex) state of the u-paths with 1..p edges: the table stops at
    # level p, and the search trips at the limit's next node
    monkeypatch.setattr(paths_mod, "_memo", {})
    for G in small_graphs():
        for u in range(G.n):
            others = [v for v in range(G.n) if v != u]
            for size in range(3):
                for avoid in combinations(others, size):
                    longest = brute_longest_path_len(G, u, avoid)
                    allowed = set(range(G.n)) - set(avoid)
                    for p in range(G.n + 1):
                        if p <= longest:  # no state lies past the longest path
                            nodes = brute_prefix_states(G, u, allowed, p)
                        exact = Budget(nodes, "longest_u_path")
                        got = on_every_upath(G, u, mask_of(allowed), p, exact)
                        want = brute_on_every_upath(G, u, allowed, p)
                        assert set(bits_of(got)) == want, (G, u, avoid, p)
                        assert exact.used == nodes, (G, u, avoid, p)
                        short = Budget(nodes - 1, "longest_u_path")
                        with pytest.raises(CapabilityError) as tripped:
                            on_every_upath(G, u, mask_of(allowed), p, short)
                        assert str(tripped.value) == (
                            f"longest_u_path budget exceeded ({nodes} > {nodes - 1} nodes)"
                        )
    assert paths_mod._memo == {}  # the question keeps no memo entry


def test_on_every_upath_checks_its_input():
    budget = Budget(10**6)
    for u, allowed, who in (
        (4, 0b1111, "anchor"),
        (-1, 0b1111, "anchor"),
        (0, 0b11111, "allowed set references vertices"),
        (0, -1, "allowed set references vertices"),
    ):
        with pytest.raises(InputError, match=rf"^{who} outside 0\.\.3$"):
            on_every_upath(C4, u, allowed, 1, budget)
    with pytest.raises(InputError, match="path length must be nonnegative"):
        on_every_upath(C4, 0, 0b1111, -1, budget)
    K21 = Graph.complete(21)
    with pytest.raises(CapabilityError, match="capped at 20 vertices"):
        on_every_upath(K21, 0, K21.full_mask, 1, budget)
    # no path leaves an anchor outside the allowed set, and nothing is searched
    assert on_every_upath(C4, 0, 0b1110, 1, budget) == 0b1110
    assert budget.used == 0
    # vertices 0..19 are within the cap: the root and 19 one-edge paths
    assert on_every_upath(K21, 0, K21.full_mask >> 1, 1, budget) == 0b1
    assert budget.used == 20


def test_spanning_paths_and_reroutes_match_brute_oracle():
    for G in small_graphs():
        for u in range(G.n):
            others = [v for v in range(G.n) if v != u]
            for size in range(len(others) + 1):
                for rest in combinations(others, size):
                    verts = (u,) + rest
                    span = None
                    for end in verts:
                        got = _spanning_path(G, mask_of(verts), u, end)
                        want = brute_spanning_path_to(G, verts, u, end)
                        assert (got and got.vertices) == want, (G, verts, end)
                        span = span or want
                    # the search reads only the anchor and the vertex set of
                    # P, so any spanning path of the set serves; a set with
                    # none leaves P a non-path, which is rejected
                    P = UPath(span or verts)
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
    G = Graph.complete(5)
    budgets = []

    class Recorded(Budget):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            budgets.append(self)

    def no_search(*args):
        raise AssertionError("a memo hit must not search")

    monkeypatch.setattr(paths_mod, "Budget", Recorded)
    # the one memoised path search with a limit (the last-neighbour reroute
    # only counts); the reroute-end and second-end searches keep no memo
    # entry, and test_path_search_budgets_trip_at_the_state_count checks
    # their nodes
    searches = ((lambda: longest_u_path(G, 0), brute_prefix_states(G, 0, range(5))),)
    for call, nodes in searches:
        monkeypatch.setattr(paths_mod, "_memo", {})
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
        monkeypatch.setattr(paths_mod, "_memo", {})
        with pytest.raises(CapabilityError) as cold:
            call()
        assert str(warm.value) == str(cold.value)
        assert f"({nodes} > {nodes - 1} nodes)" in str(cold.value)
        monkeypatch.delenv("ESOS_BUDGET")


def test_counting_path_tables_answer_under_a_zero_esos_budget(monkeypatch):
    # the spanning-path and optimal-reroute tables count one node per state
    # after the root under no limit, which ESOS_BUDGET does not reach; a
    # memo hit charges what the cold table spent
    budgets = []

    class Recorded(Budget):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            budgets.append(self)

    monkeypatch.setattr(paths_mod, "Budget", Recorded)
    monkeypatch.setattr(paths_mod, "_memo", {})
    monkeypatch.setenv("ESOS_BUDGET", "0")
    G, P = Graph.complete(5), UPath((0, 1, 2, 3))
    states = brute_prefix_states(G, 0, P.vertices) - 1
    assert _spanning_path(G, P.mask(), 0, 1) == UPath((0, 2, 3, 1))
    assert (budgets[-1].label, budgets[-1].used) == ("spanning path", states)
    for _ in range(2):  # cold, then from the memo
        assert reroute_maximizing_last_neighbor(G, P, 4) == P
        assert (budgets[-1].label, budgets[-1].used) == ("optimal reroute", states)
    assert len(budgets) == 3


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


def test_memo_stays_bounded_under_threads(monkeypatch):
    # the search memo is shared by every thread of the process
    monkeypatch.setattr(paths_mod, "_memo", {})
    errors = []

    def fill(base):
        try:
            for i in range(5000):
                budget = Budget(math.inf, "thread")
                assert recall(("thread", base, i), budget, int, i) == i
                assert budget.used == 0
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
    assert errors == [] and len(paths_mod._memo) == MEMO_SIZE
