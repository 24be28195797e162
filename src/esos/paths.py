"""Anchored-path surgery.

A UPath is a simple path written from its anchor; its "end" is the last
vertex.  Everything here treats paths as values and searches
deterministically (neighbours in ascending id order, ties broken by
lexicographically smallest vertex sequence), so results are reproducible.

Vocabulary used throughout:

* v is *strictly absorbable* to P when some P-edge has both endpoints
  adjacent to v (v can be spliced into that edge);
* v is *absorbable* when it is adjacent to P's end or strictly absorbable;
* a *reroute* of P is a path on the same vertex set with the same anchor;
* a *second end* of P (end v) is a vertex w outside P such that the vertex
  set of P-v plus w carries a spanning anchor-to-w path, or, failing any
  such w, a vertex of P-v reachable as the end of a spanning path of P-v.

Searches over anchored paths read one table, the Bellman / Held-Karp subset
recursion (``_reach``): level i maps the vertex set of each u-path with i
edges inside an allowed set to the bitmask of its possible last vertices,
and each (vertex set, last vertex) state after the root costs one budget
node.  A query is a goal on the table: the whole set's state for reroute and
second ends, the last nonempty level for the longest path, the state (verts,
end) for ``spanning_path_to``, and for the optimal reroute a state on the
latest level that holds every x-neighbour of P-u and ends at one, then any
spanning completion.  ``_leading_to`` keeps the states that reach a goal and
``_lex_least`` walks them in ascending neighbour order.

The longest, ends and optimal-reroute results share one memo of MEMO_SIZE
entries keyed by (query, graph, anchor, allowed set[, x]), never by a budget;
``recall`` states how a hit is charged.  Only results are kept: at
LONGEST_PATH_CAP vertices a table holds millions of states.

The three ``check_*`` predicates recast proven degree bounds as executable
assertions: on every configuration meeting their preconditions they must
return True, and the test suite enumerates such configurations exhaustively
at small order.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import Budget, CapabilityError, InputError, search_budget
from .graphs import Graph, VertexSetLike, bit, mask_of, set_of

EXACT_REROUTE_CAP = 16
LONGEST_PATH_CAP = 20
LONGEST_PATH_BUDGET = 2_000_000
HAM_SET_CAP = 18

# Entries per search memo.  Lemma instances repeat a search within a few
# hundred calls of its first run, and a larger memo only costs memory.
MEMO_SIZE = 256
_memo_lock = threading.Lock()


def remember(memo: dict, key, value) -> None:
    """Store ``value`` under ``key``, first dropping the oldest entry of a
    full memo.  Safe to call from several threads."""
    with _memo_lock:
        if len(memo) >= MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[key] = value


@dataclass(frozen=True)
class UPath:
    vertices: tuple[int, ...]

    def __post_init__(self):
        if not self.vertices:
            raise InputError("a path needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("path vertices must be distinct")

    @property
    def anchor(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    def mask(self) -> int:
        return mask_of(self.vertices)

    def to_json(self) -> list[int]:
        return list(self.vertices)


def is_valid_upath(G: Graph, vertices: tuple[int, ...]) -> bool:
    if not vertices or len(set(vertices)) != len(vertices):
        return False
    if any(not 0 <= v < G.n for v in vertices):
        return False
    return all(G.has_edge(a, b) for a, b in zip(vertices, vertices[1:]))


# -- absorption --------------------------------------------------------------


def is_strictly_absorbable(G: Graph, P: UPath, v: int) -> Optional[int]:
    """Least edge index i with v adjacent to both P[i] and P[i+1], else None."""
    if bit(v) & P.mask():
        raise InputError("vertex already on the path")
    row = G.rows[v]
    for i in range(P.length):
        if row & bit(P.vertices[i]) and row & bit(P.vertices[i + 1]):
            return i
    return None


def is_absorbable(G: Graph, P: UPath, v: int) -> bool:
    if bit(v) & P.mask():
        raise InputError("vertex already on the path")
    if G.rows[v] & bit(P.end):
        return True
    return is_strictly_absorbable(G, P, v) is not None


def absorb(G: Graph, P: UPath, v: int) -> UPath:
    """P extended by v: end-extension when possible, else splice into the
    least absorbing edge.  Length grows by exactly 1, anchor unchanged."""
    if bit(v) & P.mask():
        raise InputError("vertex already on the path")
    if G.rows[v] & bit(P.end):
        return UPath(P.vertices + (v,))
    i = is_strictly_absorbable(G, P, v)
    if i is None:
        raise InputError("vertex is not absorbable to this path")
    return UPath(P.vertices[: i + 1] + (v,) + P.vertices[i + 1 :])


# -- the reachable-path table ----------------------------------------------------


def recall(memo: dict, key, budget: Optional[Budget], search, *args):
    """``search(*args)``, memoised under ``key`` with the nodes it spent of
    ``budget``.  A hit never searches: it charges those nodes, capped at the
    limit's next node.  Every memoised search trips at that node (one node per
    step, or ``_reach``'s ``room + 1``), so node counts and budget errors
    are those of a cold search under any limit."""
    got = memo.get(key)
    if got is not None:
        value, nodes = got
        if budget is not None:
            budget.spend(min(nodes, budget.limit - budget.used + 1))
        return value
    start = budget.used if budget is not None else 0
    value = search(*args)
    spent = budget.used - start if budget is not None else 0
    remember(memo, key, (value, spent))
    return value


# Results of the longest-path, ends and optimal-reroute queries.
_path_memo: dict[tuple, tuple] = {}


def _reach(G: Graph, u: int, allowed: int, budget: Optional[Budget]) -> list[dict]:
    """The table of u-paths inside ``allowed``: level i maps the vertex set
    of each path with i edges to the bitmask of its possible last vertices.
    Every (vertex set, last vertex) state after the root costs one node."""
    rows = G.rows
    level = {bit(u): bit(u)}
    table = [level]
    room = budget.limit - budget.used if budget is not None else 0
    spent = 0
    for _ in range(allowed.bit_count() - 1):
        nxt: dict[int, int] = {}
        get = nxt.get
        for m, lasts in level.items():
            free = allowed & ~m
            while lasts:
                low = lasts & -lasts
                lasts ^= low
                ext = rows[low.bit_length() - 1] & free
                while ext:
                    z = ext & -ext
                    ext ^= z
                    nm = m | z
                    nxt[nm] = get(nm, 0) | z
        if not nxt:
            break
        if budget is not None:
            spent += sum(map(int.bit_count, nxt.values()))
            if spent > room:
                budget.spend(room + 1)  # trips at the limit's next node
        table.append(nxt)
        level = nxt
    if spent:
        budget.spend(spent)
    return table


def _leading_to(G: Graph, table: list[dict], level: int, goal: dict) -> list[dict]:
    """Levels 0..``level`` of ``table`` cut down to the states from which
    some path reaches a state of ``goal`` (a dict shaped like a level)."""
    rows = G.rows
    good = table[: level + 1]
    good[level] = goal
    for i in range(level, 0, -1):
        reached = table[i - 1].get
        back: dict[int, int] = {}
        get = back.get
        for m, lasts in good[i].items():
            while lasts:
                z = lasts & -lasts
                lasts ^= z
                pm = m ^ z
                preds = rows[z.bit_length() - 1] & reached(pm, 0)
                if preds:
                    back[pm] = get(pm, 0) | preds
        good[i - 1] = back
    return good


def _lex_least(G: Graph, u: int, good: list[dict]) -> UPath:
    """The lexicographically least u-path stepping through a state of every
    level of ``good``, whose root state must be present."""
    rows = G.rows
    m = bit(u)
    last = u
    seq = [u]
    for level in good[1:]:
        ext = rows[last] & ~m
        while True:
            z = ext & -ext
            if level.get(m | z, 0) & z:
                break
            ext ^= z
        m |= z
        last = z.bit_length() - 1
        seq.append(last)
    return UPath(tuple(seq))


def _ends(G: Graph, core: int, u: int, budget: Budget) -> int:
    """Bitmask of vertices z such that G[core] has a spanning u->z path."""
    if not core & bit(u):
        raise InputError("anchor not inside the set")
    if core.bit_count() > HAM_SET_CAP:
        raise CapabilityError(f"spanning-path scan capped at {HAM_SET_CAP} vertices")
    key = ("ends", G.rows, u, core)
    return recall(_path_memo, key, budget, _spanning_ends, G, u, core, budget)


def _spanning_ends(G: Graph, u: int, core: int, budget: Budget) -> int:
    return _reach(G, u, core, budget)[-1].get(core, 0)


def reroute_ends(G: Graph, P: UPath) -> frozenset[int]:
    """Ends reachable by reroutes of P (same anchor, same vertex set)."""
    if len(P.vertices) > EXACT_REROUTE_CAP:
        raise CapabilityError(
            f"exact reroute set capped at {EXACT_REROUTE_CAP} vertices"
        )
    budget = Budget(search_budget(4_000_000), "reroute_ends")
    return set_of(_ends(G, P.mask(), P.anchor, budget))


def _component(G: Graph, u: int, allowed: int) -> int:
    comp = frontier = bit(u)
    while frontier:
        seen = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            seen |= G.rows[low.bit_length() - 1]
        frontier = seen & allowed & ~comp
        comp |= frontier
    return comp


def longest_u_path(G: Graph, u: int, avoid: VertexSetLike = 0) -> UPath:
    """A maximum-length path from u in G minus ``avoid``; lexicographically
    smallest vertex sequence among the maximum-length ones."""
    avoid_mask = mask_of(avoid)
    if bit(u) & avoid_mask:
        raise InputError("anchor is in the avoid set")
    if not 0 <= u < G.n:
        raise InputError("anchor out of range")
    comp = _component(G, u, G.full_mask & ~avoid_mask)
    if comp.bit_count() > LONGEST_PATH_CAP:
        raise CapabilityError(
            f"exact longest-path search capped at {LONGEST_PATH_CAP} vertices"
        )
    budget = Budget(search_budget(LONGEST_PATH_BUDGET), "longest_u_path")
    key = ("longest", G.rows, u, comp)
    return recall(_path_memo, key, budget, _longest, G, u, comp, budget)


def _longest(G: Graph, u: int, comp: int, budget: Budget) -> UPath:
    budget.spend()  # the root state
    table = _reach(G, u, comp, budget)
    return _lex_least(G, u, _leading_to(G, table, len(table) - 1, table[-1]))


def second_ends(G: Graph, P: UPath) -> tuple[frozenset[int], frozenset[int]]:
    """(outside, inside) second ends of P.

    outside: vertices w off P such that V(P-v)+w has a spanning anchor-to-w
    path; inside: ends of spanning anchor paths of G[V(P-v)].  The working
    convention: a second end is any member of outside when outside is
    nonempty, else any member of inside.
    """
    if P.length < 1:
        raise InputError("second ends need a path of length >= 1")
    pmask = P.mask()
    budget = Budget(search_budget(4_000_000), "second_ends")
    ends_core = _ends(G, pmask & ~bit(P.end), P.anchor, budget)
    outside = frozenset(
        w for w in range(G.n) if not bit(w) & pmask and G.rows[w] & ends_core
    )
    return outside, set_of(ends_core)


def spanning_path_to(G: Graph, verts: int, u: int, end: int) -> Optional[UPath]:
    """Lexicographically least path from u to ``end`` covering exactly the
    vertex set ``verts``, or None when no such path exists."""
    if not verts & bit(u) or not verts & bit(end):
        return None
    table = _reach(G, u, verts, None)
    full = verts.bit_count() - 1
    if full >= len(table) or not table[full].get(verts, 0) & bit(end):
        return None
    return _lex_least(G, u, _leading_to(G, table, full, {verts: bit(end)}))


def reroute_path_to(G: Graph, P: UPath, end: int) -> Optional[UPath]:
    """Lexicographically least reroute of P ending at ``end``, or None."""
    return spanning_path_to(G, P.mask(), P.anchor, end)


def reroute_maximizing_last_neighbor(G: Graph, P: UPath, x: int) -> UPath:
    """The reroute of P whose last position adjacent to x is as late as
    possible; lexicographically least among the maximizers.

    Positions are indices along the rerouted sequence (anchor at 0); only
    positions >= 1 count, which never changes the argmax since the anchor is
    common to all reroutes.  The search runs under no budget; its result is
    memoised with the other path queries (see the module docstring).
    """
    verts = P.mask()
    if bit(x) & verts:
        raise InputError("reference vertex lies on the path")
    u = P.anchor
    key = ("reroute", G.rows, u, verts, x)
    return recall(_path_memo, key, None, _last_neighbor_reroute, G, u, verts, x)


def _last_neighbor_reroute(G: Graph, u: int, verts: int, x: int) -> UPath:
    table = _reach(G, u, verts, None)
    full = verts.bit_count() - 1
    ends = table[full].get(verts, 0) if full < len(table) else 0
    if not ends:
        raise InputError("path cannot be rerouted (no spanning completion)")
    good = _leading_to(G, table, full, {verts: ends})
    # the last x-neighbour sits at level i when the path's state there holds
    # every x-neighbour of P-u and ends at one
    near = G.rows[x] & verts & ~bit(u)
    for i in range(full, 0, -1):
        goal = {
            m: lasts & near
            for m, lasts in good[i].items()
            if m & near == near and lasts & near
        }
        if goal:
            good = _leading_to(G, table, i, goal) + good[i + 1 :]
            break
    return _lex_least(G, u, good)


# -- depth-first path enumeration -----------------------------------------------


def iter_upaths(
    G: Graph,
    u: int,
    allowed: int,
    budget: Budget,
    shortest: int = 1,
    longest: Optional[int] = None,
) -> Iterator[tuple[int, ...]]:
    """Every u-path inside ``allowed`` with ``shortest`` to ``longest``
    edges (no upper bound when None), in lexicographic vertex-sequence
    order; each vertex the walk places after u costs one node."""
    if not allowed & bit(u):
        return
    if shortest == 0:
        yield (u,)
    depth = (G.n if longest is None else longest) + 1
    if depth == 1:
        return
    rows = G.rows
    stack = [u]
    mask = bit(u)
    untried = [rows[u] & allowed & ~mask]  # per depth, the next steps left
    while untried:
        ext = untried[-1]
        if not ext:
            untried.pop()
            mask ^= bit(stack.pop())
            continue
        low = ext & -ext
        untried[-1] = ext ^ low
        budget.spend()
        z = low.bit_length() - 1
        stack.append(z)
        if len(stack) > shortest:
            yield tuple(stack)
        if len(stack) == depth:
            stack.pop()
        else:
            mask |= low
            untried.append(rows[z] & allowed & ~mask)


def iter_upaths_exact(
    G: Graph, u: int, allowed: int, length: int, budget: Budget
) -> Iterator[tuple[int, ...]]:
    """All u-paths of exactly ``length`` edges inside ``allowed``, in
    lexicographic vertex-sequence order."""
    yield from iter_upaths(G, u, allowed, budget, length, length)


def first_upath_to(
    G: Graph, u: int, allowed: int, target: int, budget: Budget
) -> Optional[tuple[int, ...]]:
    """Lexicographically first simple u-path to ``target`` inside ``allowed``."""
    if not (allowed & bit(u)) or not (allowed & bit(target)) or u == target:
        return None
    # the walk never passes through target before it ends there
    walk = iter_upaths(G, u, allowed, budget)
    return next((path for path in walk if path[-1] == target), None)


# -- bound checkers ------------------------------------------------------------


def check_observation1(G: Graph, P: UPath, v: int) -> bool:
    """Non-absorbable vertices see at most (p+1)/2 of P, non-strictly-absorbable
    at most (p+2)/2; doubled-integer comparison, vacuous when absorbable."""
    if bit(v) & P.mask():
        raise InputError("vertex already on the path")
    attach2 = 2 * (G.rows[v] & P.mask()).bit_count()
    p = P.length
    if not is_absorbable(G, P, v) and attach2 > p + 1:
        return False
    if is_strictly_absorbable(G, P, v) is None and attach2 > p + 2:
        return False
    return True


def check_lemma1_bound(G: Graph, P: UPath) -> bool:
    """Every reachable reroute end v keeps 2*e(v,V(P)) - e(v,S) <= p+1, where
    S is the full exact reroute-end set."""
    S = reroute_ends(G, P)
    smask = mask_of(S)
    pmask = P.mask()
    p = P.length
    for v in S:
        if 2 * (G.rows[v] & pmask).bit_count() - (G.rows[v] & smask).bit_count() > p + 1:
            return False
    return True


def check_lemma2_bound(G: Graph, P: UPath, Q: UPath) -> bool:
    """With P a verified longest u-path and Q a nontrivial u-path avoiding
    V(P-u) whose end x touches V(P-u): 2*e(x, V(P-u)) <= p+1-2q."""
    u = P.anchor
    if Q.anchor != u:
        raise InputError("paths must share the anchor")
    if not is_valid_upath(G, P.vertices) or not is_valid_upath(G, Q.vertices):
        raise InputError("arguments must be paths of the graph")
    if Q.length < 1:
        raise InputError("probe path must have length >= 1")
    lmask = P.mask() & ~bit(u)
    if Q.mask() & lmask:
        raise InputError("probe path must avoid V(P-u)")
    if longest_u_path(G, u).length != P.length:
        raise InputError("P is not a longest anchored path of the graph")
    x = Q.end
    if not G.rows[x] & lmask:
        raise InputError("probe end has no neighbour on V(P-u)")
    return 2 * (G.rows[x] & lmask).bit_count() <= P.length + 1 - 2 * Q.length
