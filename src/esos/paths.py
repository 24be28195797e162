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
from .graphs import Graph, VertexSetLike, bit, bits_of, mask_of, set_of

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


def make_upath(G: Graph, vertices) -> UPath:
    seq = tuple(vertices)
    if not is_valid_upath(G, seq):
        raise InputError(f"not a path of this graph: {seq}")
    return UPath(seq)


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


# -- Hamiltonian-path machinery ----------------------------------------------


def _ham_end_mask(G: Graph, core: int, u: int, budget: Budget) -> int:
    """Bitmask of vertices z such that G[core] has a spanning u->z path."""
    if not core & bit(u):
        raise InputError("anchor not inside the set")
    if core.bit_count() > HAM_SET_CAP:
        raise CapabilityError(f"spanning-path scan capped at {HAM_SET_CAP} vertices")
    if core == bit(u):
        return bit(u)
    level = {bit(u): bit(u)}
    result = 0
    while level:
        nxt: dict[int, int] = {}
        for m, lasts in level.items():
            for last in bits_of(lasts):
                ext = G.rows[last] & core & ~m
                while ext:
                    low = ext & -ext
                    ext ^= low
                    nm = m | low
                    cur = nxt.get(nm, 0)
                    if not cur & low:
                        nxt[nm] = cur | low
                        budget.spend()
        if core in nxt:
            result = nxt[core]
        level = nxt
    return result


def reroute_ends(G: Graph, P: UPath, mode: str = "exact") -> frozenset[int]:
    """Ends reachable by reroutes of P (same anchor, same vertex set).

    exact: the full set, by subset dynamic programming (|V(P)| <= 16).
    rotation: the subset reachable by iterated single-edge rotations; a
    sound under-approximation of the exact set, usable on longer paths.
    """
    verts = P.mask()
    u = P.anchor
    if mode == "exact":
        if len(P.vertices) > EXACT_REROUTE_CAP:
            raise CapabilityError(
                f"exact reroute set capped at {EXACT_REROUTE_CAP} vertices"
            )
        budget = Budget(search_budget(4_000_000), "reroute_ends")
        return set_of(_ham_end_mask(G, verts, u, budget))
    if mode == "rotation":
        budget = Budget(search_budget(100_000), "rotation closure")
        seen = {P.vertices}
        queue = [P.vertices]
        ends = {P.end}
        while queue:
            path = queue.pop()
            last = path[-1]
            row = G.rows[last]
            for i in range(len(path) - 2):
                if row & bit(path[i]):
                    new = path[: i + 1] + path[:i:-1]
                    if new not in seen:
                        budget.spend()
                        seen.add(new)
                        ends.add(new[-1])
                        queue.append(new)
        return frozenset(ends)
    raise InputError(f"unknown mode {mode!r} (want 'exact' or 'rotation')")


def _component(G: Graph, u: int, allowed: int) -> int:
    comp = bit(u)
    frontier = bit(u)
    while frontier:
        nxt = 0
        for v in bits_of(frontier):
            nxt |= G.rows[v] & allowed & ~comp
        comp |= nxt
        frontier = nxt
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
    memo: dict[tuple[int, int], int] = {}

    def extend(mask: int, last: int) -> int:
        key = (mask, last)
        got = memo.get(key)
        if got is not None:
            return got
        budget.spend()
        best = 0
        ext = G.rows[last] & comp & ~mask
        for z in bits_of(ext):
            cand = 1 + extend(mask | bit(z), z)
            if cand > best:
                best = cand
        memo[key] = best
        return best

    total = extend(bit(u), u)
    seq = [u]
    mask = bit(u)
    last = u
    for remaining in range(total, 0, -1):
        for z in bits_of(G.rows[last] & comp & ~mask):
            if 1 + extend(mask | bit(z), z) == remaining:
                seq.append(z)
                mask |= bit(z)
                last = z
                break
    return UPath(tuple(seq))


def second_ends(
    G: Graph, P: UPath, forbidden: VertexSetLike = 0
) -> tuple[frozenset[int], frozenset[int]]:
    """(outside, inside) second ends of P.

    outside: vertices w off P (and off ``forbidden``) such that V(P-v)+w has
    a spanning anchor-to-w path; inside: ends of spanning anchor paths of
    G[V(P-v)].  The working convention: a second end is any member of
    outside when outside is nonempty, else any member of inside.
    """
    if P.length < 1:
        raise InputError("second ends need a path of length >= 1")
    fmask = mask_of(forbidden)
    if fmask & P.mask():
        raise InputError("forbidden set overlaps the path")
    core = P.mask() & ~bit(P.end)
    budget = Budget(search_budget(4_000_000), "second_ends")
    ends_core = _ham_end_mask(G, core, P.anchor, budget)
    inside = set_of(ends_core)
    outside = set()
    blocked = P.mask() | fmask
    for w in range(G.n):
        if bit(w) & blocked:
            continue
        if G.rows[w] & ends_core:
            outside.add(w)
    return frozenset(outside), frozenset(inside)


# -- deterministic path searches ----------------------------------------------


def iter_upaths_exact(
    G: Graph, u: int, allowed: int, length: int, budget: Budget
) -> Iterator[tuple[int, ...]]:
    """All u-paths of exactly ``length`` edges inside ``allowed``, in
    lexicographic vertex-sequence order."""
    if not allowed & bit(u):
        return
    if length == 0:
        yield (u,)
        return
    stack: list[int] = [u]
    mask = bit(u)
    iters = [bits_of(G.rows[u] & allowed & ~mask)]
    while iters:
        try:
            z = next(iters[-1])
        except StopIteration:
            iters.pop()
            v = stack.pop()
            mask &= ~bit(v)
            continue
        budget.spend()
        stack.append(z)
        mask |= bit(z)
        if len(stack) == length + 1:
            yield tuple(stack)
            stack.pop()
            mask &= ~bit(z)
        else:
            iters.append(bits_of(G.rows[z] & allowed & ~mask))


def first_upath_to(
    G: Graph, u: int, allowed: int, target: int, budget: Budget
) -> Optional[tuple[int, ...]]:
    """Lexicographically first simple u-path to ``target`` inside ``allowed``."""
    if not (allowed & bit(u)) or not (allowed & bit(target)) or u == target:
        return None

    def walk(path: list[int], mask: int) -> Optional[tuple[int, ...]]:
        last = path[-1]
        for z in bits_of(G.rows[last] & allowed & ~mask):
            budget.spend()
            path.append(z)
            if z == target:
                return tuple(path)
            got = walk(path, mask | bit(z))
            if got is not None:
                return got
            path.pop()
        return None

    return walk([u], bit(u))


def spanning_path_to(G: Graph, verts: int, u: int, end: int) -> Optional[UPath]:
    """Lexicographically least path from u to ``end`` covering exactly the
    vertex set ``verts``, or None when no such path exists."""
    if not verts & bit(u) or not verts & bit(end):
        return None
    if u == end:
        return UPath((u,)) if verts == bit(u) else None
    memo: dict[tuple[int, int], bool] = {}

    def finishes(mask: int, last: int) -> bool:
        if mask == verts:
            return last == end
        if last == end:
            return False
        key = (mask, last)
        got = memo.get(key)
        if got is not None:
            return got
        ok = any(
            finishes(mask | bit(z), z) for z in bits_of(G.rows[last] & verts & ~mask)
        )
        memo[key] = ok
        return ok

    if not finishes(bit(u), u):
        return None
    seq = [u]
    mask = bit(u)
    while mask != verts:
        for z in bits_of(G.rows[seq[-1]] & verts & ~mask):
            if finishes(mask | bit(z), z):
                seq.append(z)
                mask |= bit(z)
                break
        else:
            return None
    return UPath(tuple(seq))


def reroute_path_to(G: Graph, P: UPath, end: int) -> Optional[UPath]:
    """Lexicographically least reroute of P ending at ``end``, or None."""
    return spanning_path_to(G, P.mask(), P.anchor, end)


_reroute_memo: dict[tuple, UPath] = {}


def reroute_maximizing_last_neighbor(G: Graph, P: UPath, x: int) -> UPath:
    """The reroute of P whose last position adjacent to x is as late as
    possible; lexicographically least among the maximizers.

    Positions are indices along the rerouted sequence (anchor at 0); only
    positions >= 1 count, which never changes the argmax since the anchor is
    common to all reroutes.

    Memoised per (graph, anchor, vertex set of P, x), MEMO_SIZE entries.
    The search runs under no budget, so a hit is exactly what it returns;
    errors are not stored.
    """
    verts = P.mask()
    if bit(x) & verts:
        raise InputError("reference vertex lies on the path")
    u = P.anchor
    key = (G.rows, u, verts, x)
    got = _reroute_memo.get(key)
    if got is None:
        got = _reroute_last_neighbor(G, u, verts, x)
        remember(_reroute_memo, key, got)
    return got


def _reroute_last_neighbor(G: Graph, u: int, verts: int, x: int) -> UPath:
    xrow = G.rows[x]
    memo: dict[tuple[int, int], int] = {}
    NO_COMPLETION = -2

    def future_best(mask: int, last: int) -> int:
        """Max position of an x-neighbour among future placements; -1 when a
        completion exists but no future x-neighbour; -2 when stuck."""
        if mask == verts:
            return -1
        key = (mask, last)
        got = memo.get(key)
        if got is not None:
            return got
        best = NO_COMPLETION
        pos = mask.bit_count()
        for z in bits_of(G.rows[last] & verts & ~mask):
            sub = future_best(mask | bit(z), z)
            if sub == NO_COMPLETION:
                continue
            cand = sub
            if xrow & bit(z) and pos > cand:
                cand = pos
            if cand > best:
                best = cand
        memo[key] = best
        return best

    target = future_best(bit(u), u)
    if target == NO_COMPLETION:
        raise InputError("path cannot be rerouted (no spanning completion)")
    seq = [u]
    mask = bit(u)
    achieved = -1
    while mask != verts:
        pos = mask.bit_count()
        for z in bits_of(G.rows[seq[-1]] & verts & ~mask):
            here = achieved
            if xrow & bit(z) and pos > here:
                here = pos
            sub = future_best(mask | bit(z), z)
            if sub == NO_COMPLETION:
                continue
            if max(here, sub) == target:
                seq.append(z)
                mask |= bit(z)
                achieved = here
                break
        else:
            raise AssertionError("reconstruction lost the optimum")
    return UPath(tuple(seq))


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
    S = reroute_ends(G, P, mode="exact")
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
