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
second ends, the last nonempty level for the longest path, the AND of level
p's vertex sets for ``on_every_upath`` (whose table stops there), the state
(verts, end) for the guided phase's private ``_spanning_path``, and for the
optimal reroute a state on the latest level that holds every x-neighbour of
P-u and ends at one, then any spanning completion.  ``_leading_to`` keeps the
states that reach a goal and ``_lex_least`` walks them in ascending neighbour
order.  Every table is charged to a Budget; the optimal reroute's and
``_spanning_path``'s only count, as vertex caps bound them.

The searches callers repeat share one memo of MEMO_SIZE entries through
``recall``, which states how a hit is charged.  A key starts with its query
name: "longest" and "reroute" here, each then (graph, anchor, allowed
set[, x]), and "maximal" and "attachment" in ``esos.lemmas``, the latter
holding ``on_every_upath``'s answers.  That query and the reroute-end and
second-end searches keep no entry here.  Only results are kept: at
LONGEST_PATH_CAP vertices a table holds millions of states.

The three ``check_*`` predicates recast proven degree bounds as executable
assertions: on every configuration meeting their preconditions they must
return True, and the test suite enumerates such configurations exhaustively
at small order.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .errors import Budget, CapabilityError, InputError, search_budget
from .graphs import MAX_VERTICES, Graph, VertexSetLike, _checked_int, _checked_mask
from .graphs import _checked_vertex, bit, mask_of, set_of

EXACT_REROUTE_CAP = 16
LONGEST_PATH_CAP = 20
LONGEST_PATH_BUDGET = 2_000_000
HAM_SET_CAP = 18

# Entries in the search memo.  Lemma instances repeat a search within a few
# hundred calls of its first run, and a larger memo only costs memory.
MEMO_SIZE = 512
_memo: dict[tuple, tuple] = {}
_memo_lock = threading.Lock()


@dataclass(frozen=True, init=False)
class UPath:
    """A simple path written from its anchor.  Its vertex mask is computed
    once, at construction; equality, hash and repr see only ``vertices``,
    kept as a tuple whatever iterable is given.  ``UPath._of(vertices, mask)``
    skips the checks, only for sequences the library took from free-bit masks."""

    vertices: tuple[int, ...]
    _mask: int = field(init=False, repr=False, compare=False)

    def __init__(self, vertices: Iterable[int]):
        if type(vertices) is not tuple:  # e.g. a list: keep the path hashable
            try:
                vertices = tuple(vertices)
            except TypeError:  # e.g. a bare id
                raise InputError("a path must be an iterable of vertex ids") from None
        if not vertices:
            raise InputError("a path needs at least one vertex")
        for v in vertices:  # a float or a bool is no vertex id
            if type(v) is not int:
                raise InputError("path vertices must be integer ids")
        # ids are checked before they become bits, so a huge id costs
        # nothing; a negative one fails its shift
        if max(vertices) >= MAX_VERTICES:
            raise InputError(f"path vertices must be ids below {MAX_VERTICES}")
        m = 0
        try:
            for v in vertices:
                m |= 1 << v
        except ValueError:
            raise InputError("path vertices must be nonnegative ids") from None
        if m.bit_count() != len(vertices):
            raise InputError("path vertices must be distinct")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "_mask", m)

    @classmethod
    def _of(cls, vertices: tuple[int, ...], mask: int) -> "UPath":
        path = object.__new__(cls)
        object.__setattr__(path, "vertices", vertices)
        object.__setattr__(path, "_mask", mask)
        return path

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
        return self._mask

    def to_json(self) -> list[int]:
        return list(self.vertices)


def is_valid_upath(G: Graph, vertices: tuple[int, ...]) -> bool:
    """Whether ``vertices`` is a nonempty simple path of G, in one pass
    checking each vertex's type, range, repeats and edge to its predecessor."""
    if not vertices:
        return False
    n, rows = G.n, G.rows
    seen = 0
    prev = -1  # the predecessor's row; the first vertex has none to match
    for v in vertices:
        if type(v) is not int or not 0 <= v < n:  # a float or a bool is no id
            return False
        b = 1 << v
        if seen & b or not prev & b:
            return False
        seen |= b
        prev = rows[v]
    return True


# -- absorption --------------------------------------------------------------


def _off_path(G: Graph, P: UPath, v: int, on_path="vertex already on the path"):
    """InputError unless P is a path of G and v a vertex of G off it."""
    if not is_valid_upath(G, P.vertices):
        raise InputError("P must be a path of the host")
    if _checked_vertex(G, v, "vertex") & P.mask():
        raise InputError(on_path)


def _absorbing_edge(row: int, P: UPath) -> Optional[int]:
    """Least edge index i of P with both P[i] and P[i+1] in ``row``, else
    None; its callers check their input once and then call it."""
    for i in range(P.length):
        if row & (1 << P.vertices[i]) and row & (1 << P.vertices[i + 1]):
            return i
    return None


def is_strictly_absorbable(G: Graph, P: UPath, v: int) -> Optional[int]:
    """Least edge index i with v adjacent to both P[i] and P[i+1], else None."""
    _off_path(G, P, v)
    return _absorbing_edge(G.rows[v], P)


def is_absorbable(G: Graph, P: UPath, v: int) -> bool:
    _off_path(G, P, v)
    return _absorbs(G.rows[v], P)


def _absorbs(row: int, P: UPath) -> bool:
    """Whether a vertex with neighbourhood ``row`` off P is absorbable to P;
    ``is_absorbable`` checks its input once and then calls it."""
    return bool(row & (1 << P.end)) or _absorbing_edge(row, P) is not None


# -- the reachable-path table ----------------------------------------------------


def recall(key: tuple, budget: Budget, search, *args):
    """``search(*args)``, memoised under ``key`` with the nodes it spent of
    ``budget``.  A hit never searches: it charges those nodes, capped at the
    limit's next node.  Every memoised search trips at that node (one node per
    step, or the ``room + 1`` of ``_reach`` and ``lemmas._argmax_paths``),
    so node counts and budget errors are those of a cold search under any
    limit.  A miss drops the oldest entry of a full memo first; safe to call
    from several threads."""
    got = _memo.get(key)
    if got is not None:
        value, nodes = got
        if budget.used + nodes <= budget.limit:
            budget.used += nodes
        else:
            budget.spend(min(nodes, budget.limit - budget.used + 1))
        return value
    start = budget.used
    value = search(*args)
    spent = budget.used - start
    with _memo_lock:
        if len(_memo) >= MEMO_SIZE:
            del _memo[next(iter(_memo))]
        _memo[key] = (value, spent)
    return value


def _reach(
    G: Graph, u: int, allowed: int, budget: Budget, levels: Optional[int] = None
) -> list[dict]:
    """The table of u-paths inside ``allowed``: level i maps the vertex set
    of each path with i edges to the bitmask of its possible last vertices.
    It stops at the first empty level, or after level ``levels`` when given.
    Every (vertex set, last vertex) state after the root costs one node."""
    rows = G.rows
    level = {bit(u): bit(u)}
    table = [level]
    room = budget.limit - budget.used
    spent = 0
    steps = allowed.bit_count() - 1
    for _ in range(steps if levels is None else min(steps, levels)):
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


def _cap(size: int, cap: int, search: str) -> None:
    """CapabilityError when a search's table would span more than ``cap``
    vertices; each exact search checks this before building its table."""
    if size > cap:
        raise CapabilityError(f"{search} capped at {cap} vertices")


def _ends(G: Graph, core: int, u: int, budget: Budget) -> int:
    """Bitmask of vertices z such that G[core] has a spanning u->z path."""
    _cap(core.bit_count(), HAM_SET_CAP, "spanning-path scan")
    return _reach(G, u, core, budget)[-1].get(core, 0)


def reroute_ends(G: Graph, P: UPath) -> frozenset[int]:
    """Ends reachable by reroutes of P (same anchor, same vertex set)."""
    if not is_valid_upath(G, P.vertices):
        raise InputError("P must be a path of the host")
    _cap(len(P.vertices), EXACT_REROUTE_CAP, "exact reroute set")
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
    _checked_vertex(G, u, "anchor")
    avoid_mask = _checked_mask(G, avoid, "avoid set")
    if bit(u) & avoid_mask:
        raise InputError("anchor is in the avoid set")
    comp = _component(G, u, G.full_mask & ~avoid_mask)
    _cap(comp.bit_count(), LONGEST_PATH_CAP, "exact longest-path search")
    budget = Budget(search_budget(LONGEST_PATH_BUDGET), "longest_u_path")
    key = ("longest", G.rows, u, comp)
    return recall(key, budget, _longest, G, u, comp, budget)


def _longest(G: Graph, u: int, comp: int, budget: Budget) -> UPath:
    budget.spend()  # the root state
    table = _reach(G, u, comp, budget)
    return _lex_least(G, u, _leading_to(G, table, len(table) - 1, table[-1]))


def on_every_upath(G: Graph, u: int, allowed: int, p: int, budget: Budget) -> int:
    """The vertices on every u-path with p edges inside ``allowed`` (the AND
    of level p's vertex sets), or ``allowed`` when there is none.  The root
    and each state of levels 1..p cost one node.  InputError for u or
    ``allowed`` outside the host or a negative p; CapabilityError past
    LONGEST_PATH_CAP allowed vertices."""
    _checked_vertex(G, u, "anchor")
    allowed = _checked_mask(G, allowed, "allowed set")
    if _checked_int(p, "p") < 0:
        raise InputError("path length must be nonnegative")
    _cap(allowed.bit_count(), LONGEST_PATH_CAP, "exact longest-path search")
    if not allowed & bit(u):
        return allowed
    budget.spend()  # the root state
    table = _reach(G, u, allowed, budget, p)
    common = allowed
    for m in table[p] if p < len(table) else ():
        common &= m
    return common


def second_ends(G: Graph, P: UPath) -> tuple[frozenset[int], frozenset[int]]:
    """(outside, inside) second ends of P.

    outside: vertices w off P such that V(P-v)+w has a spanning anchor-to-w
    path; inside: ends of spanning anchor paths of G[V(P-v)].  The working
    convention: a second end is any member of outside when outside is
    nonempty, else any member of inside.
    """
    if not is_valid_upath(G, P.vertices):
        raise InputError("P must be a path of the host")
    if P.length < 1:
        raise InputError("second ends need a path of length >= 1")
    pmask = P.mask()
    budget = Budget(search_budget(4_000_000), "second_ends")
    ends_core = _ends(G, pmask & ~bit(P.end), P.anchor, budget)
    outside = frozenset(
        w for w in range(G.n) if not bit(w) & pmask and G.rows[w] & ends_core
    )
    return outside, set_of(ends_core)


def _spanning_path(G: Graph, verts: int, u: int, end: int) -> Optional[UPath]:
    """Lexicographically least path from u to ``end`` covering exactly the
    vertex mask ``verts``, which holds both, or None when no such path
    exists.  CapabilityError past HAM_SET_CAP vertices, as its budget only
    counts."""
    _cap(verts.bit_count(), HAM_SET_CAP, "spanning-path scan")
    table = _reach(G, u, verts, Budget(math.inf, "spanning path"))
    full = verts.bit_count() - 1
    if full >= len(table) or not table[full].get(verts, 0) & bit(end):
        return None
    return _lex_least(G, u, _leading_to(G, table, full, {verts: bit(end)}))


def reroute_maximizing_last_neighbor(G: Graph, P: UPath, x: int) -> UPath:
    """The reroute of P whose last position adjacent to x is as late as
    possible; lexicographically least among the maximizers.

    Positions are indices along the rerouted sequence (anchor at 0); only
    positions >= 1 count, which never changes the argmax since the anchor is
    common to all reroutes.  The search's budget only counts, so P is capped
    at EXACT_REROUTE_CAP vertices; its result is memoised with the other
    path queries (see the module docstring).
    """
    _off_path(G, P, x, "reference vertex lies on the path")
    return _optimal_reroute(G, P, x)


def _optimal_reroute(G: Graph, P: UPath, x: int) -> UPath:
    """``reroute_maximizing_last_neighbor`` once P is known to be a path of
    G and x a vertex of G off it."""
    _cap(len(P.vertices), EXACT_REROUTE_CAP, "exact reroute set")
    verts = P.mask()
    u = P.anchor
    key = ("reroute", G.rows, u, verts, x)
    budget = Budget(math.inf, "optimal reroute")
    return recall(key, budget, _last_neighbor_reroute, G, u, verts, x, budget)


def _last_neighbor_reroute(
    G: Graph, u: int, verts: int, x: int, budget: Budget
) -> UPath:
    table = _reach(G, u, verts, budget)
    full = verts.bit_count() - 1
    # P itself is a spanning completion, so the whole set's state is there
    good = _leading_to(G, table, full, {verts: table[full][verts]})
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
    order; each vertex the walk places after u costs one node.  InputError,
    when called, for u or ``allowed`` outside the host or a negative bound."""
    _checked_vertex(G, u, "anchor")
    allowed = _checked_mask(G, allowed, "allowed set")
    if _checked_int(shortest, "shortest") < 0 or (
        longest is not None and _checked_int(longest, "longest") < 0
    ):
        raise InputError("path length bounds must be nonnegative")
    return _upaths(G, u, allowed, budget, shortest, longest)


def _upaths(
    G: Graph, u: int, allowed: int, budget: Budget, shortest: int, longest: Optional[int]
) -> Iterator[tuple[int, ...]]:
    if not allowed & (1 << u):
        return
    if shortest == 0:
        yield (u,)
    depth = (G.n if longest is None else longest) + 1
    if depth == 1:
        return
    rows = G.rows
    stack = [u]
    mask = 1 << u
    untried = [rows[u] & allowed & ~mask]  # per depth, the next steps left
    while untried:
        ext = untried[-1]
        if not ext:
            untried.pop()
            mask ^= 1 << stack.pop()
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
    _checked_int(length, "length")
    yield from iter_upaths(G, u, allowed, budget, length, length)


def first_upath_to(
    G: Graph, u: int, allowed: int, target: int, budget: Budget
) -> Optional[tuple[int, ...]]:
    """Lexicographically first simple u-path to ``target`` inside ``allowed``;
    InputError for ``target``, u or ``allowed`` outside the host."""
    ends = _checked_vertex(G, target, "target") | _checked_vertex(G, u, "anchor")
    allowed = _checked_mask(G, allowed, "allowed set")
    if allowed & ends != ends or u == target:
        return None
    # the walk never passes through target before it ends there
    walk = _upaths(G, u, allowed, budget, 1, None)
    return next((path for path in walk if path[-1] == target), None)


# -- bound checkers ------------------------------------------------------------


def check_observation1(G: Graph, P: UPath, v: int) -> bool:
    """Non-absorbable vertices see at most (p+1)/2 of P, non-strictly-absorbable
    at most (p+2)/2; doubled-integer comparison, vacuous when absorbable."""
    _off_path(G, P, v)
    row = G.rows[v]
    attach2 = 2 * (row & P.mask()).bit_count()
    p = P.length
    strict = _absorbing_edge(row, P) is not None
    if not (strict or row & bit(P.end)) and attach2 > p + 1:
        return False
    return strict or attach2 <= p + 2


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
