"""Dense small-graph core.

Graphs are immutable values over vertex ids 0..n-1 with one adjacency
bitmask per vertex, so every set operation is a handful of int ops.
Vertex sets travel as plain ints (bit v set <=> vertex v in the set);
public functions also accept any iterable of ids and normalize.

Counting functionals follow the usual boundary conventions:

* ``e_in``  of S counts edges with both ends in S,
* ``d_out`` of S counts edges with exactly one end in S,
* ``edges_between(S1, S2)`` counts edges with one end in each (disjoint sets).

Density comparisons are done in doubled integers (2*e > (k-1)*n) so no
fractions ever appear.  The per-subset condition lists no subsets: a
minimum s-t cut on the adjacency rows minimises its defect over all sets
(a selection problem, Picard & Queyranne 1982), and a few more cuts fix
the violating set with the least mask bit by bit.

An H(a,b) split of a vertex set is a partition X, Y with |X|=a, |Y|=b where
every X-vertex's neighbourhood inside X∪Y is exactly Y (edges inside Y are
unconstrained).  ``HCertificate`` carries such a partition; recognition
returns the maximal-X split of the whole graph, and ``find_H_subgraph``
searches for an induced split through a required vertex.

graph6 ingestion/emission is bit-exact: 6-bit big-endian packing of the
upper triangle in column order, each byte offset by 63.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator, Optional, Union

from .errors import Budget, InputError, search_budget

MAX_VERTICES = 128

VertexSetLike = Union[int, Iterable[int]]


def bit(v: int) -> int:
    return 1 << v


def bits_of(mask: int) -> Iterator[int]:
    """Vertex ids in mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: VertexSetLike) -> int:
    if isinstance(vertices, int):
        return vertices
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def set_of(mask: int) -> frozenset[int]:
    return frozenset(bits_of(mask))


@dataclass(frozen=True)
class Graph:
    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.n <= MAX_VERTICES:
            raise InputError(f"vertex count {self.n} outside 1..{MAX_VERTICES}")
        if len(self.rows) != self.n:
            raise InputError("adjacency row count does not match n")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.rows):
            if row & ~full:
                raise InputError(f"row {v} references vertices >= n")
            if row & bit(v):
                raise InputError(f"loop at vertex {v}")
        for v in range(self.n):
            for w in bits_of(self.rows[v]):
                if not self.rows[w] & bit(v):
                    raise InputError(f"asymmetric adjacency at ({v},{w})")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for a, b in edges:
            if a == b:
                raise InputError(f"loop edge ({a},{b})")
            if not (0 <= a < n and 0 <= b < n):
                raise InputError(f"edge ({a},{b}) out of range for n={n}")
            rows[a] |= bit(b)
            rows[b] |= bit(a)
        return cls(n, tuple(rows))

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, (0,) * n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls(n, tuple(full ^ bit(v) for v in range(n)))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def path_graph(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    # -- basic queries -----------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def has_edge(self, a: int, b: int) -> bool:
        return bool(self.rows[a] & bit(b))

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for a in range(self.n):
            for b in bits_of(self.rows[a]):
                if a < b:
                    yield (a, b)

    def neighbors(self, v: int) -> list[int]:
        return list(bits_of(self.rows[v]))

    # -- derived graphs ----------------------------------------------------

    def with_edge(self, a: int, b: int) -> "Graph":
        if a == b:
            raise InputError("loop edge")
        rows = list(self.rows)
        rows[a] |= bit(b)
        rows[b] |= bit(a)
        return Graph(self.n, tuple(rows))

    def masked(self, keep: VertexSetLike) -> "Graph":
        """Same id space; keeps only edges with both ends inside ``keep``."""
        m = mask_of(keep)
        return Graph(
            self.n,
            tuple(r & m if bit(v) & m else 0 for v, r in enumerate(self.rows)),
        )

    def induced(self, keep: VertexSetLike) -> tuple["Graph", list[int]]:
        """Relabelled induced subgraph plus the new->old vertex map."""
        m = mask_of(keep)
        old = list(bits_of(m))
        if not old:
            raise InputError("induced subgraph needs at least one vertex")
        index = {v: i for i, v in enumerate(old)}
        rows = []
        for v in old:
            r = 0
            for w in bits_of(self.rows[v] & m):
                r |= bit(index[w])
            rows.append(r)
        return Graph(len(old), tuple(rows)), old

    # -- graph6 ------------------------------------------------------------

    def to_graph6(self) -> str:
        chunks = []
        if self.n <= 62:
            chunks.append(chr(self.n + 63))
        else:
            chunks.append(chr(126))
            for shift in (12, 6, 0):
                chunks.append(chr(((self.n >> shift) & 63) + 63))
        acc = 0
        nbits = 0
        for j in range(1, self.n):
            for i in range(j):
                acc = (acc << 1) | ((self.rows[i] >> j) & 1)
                nbits += 1
                if nbits == 6:
                    chunks.append(chr(acc + 63))
                    acc = 0
                    nbits = 0
        if nbits:
            acc <<= 6 - nbits
            chunks.append(chr(acc + 63))
        return "".join(chunks)

    @classmethod
    def from_graph6(cls, text: str) -> "Graph":
        s = text.strip()
        if s.startswith(">>graph6<<"):
            s = s[len(">>graph6<<"):]
        if not s:
            raise InputError("empty graph6 string")
        data = [ord(c) - 63 for c in s]
        if any(x < 0 or x > 63 for x in data):
            raise InputError("graph6 characters must be in range 63..126")
        if data[0] == 63:
            if len(data) < 4:
                raise InputError("truncated graph6 vertex count")
            n = (data[1] << 12) | (data[2] << 6) | data[3]
            body = data[4:]
        else:
            n = data[0]
            body = data[1:]
        if not 1 <= n <= MAX_VERTICES:
            raise InputError(f"graph6 vertex count {n} outside 1..{MAX_VERTICES}")
        need = (n * (n - 1) // 2 + 5) // 6
        if len(body) != need:
            raise InputError(
                f"graph6 body length {len(body)} does not match n={n} (need {need})"
            )
        rows = [0] * n
        pos = 0
        for j in range(1, n):
            for i in range(j):
                byte = body[pos // 6]
                if (byte >> (5 - pos % 6)) & 1:
                    rows[i] |= bit(j)
                    rows[j] |= bit(i)
                pos += 1
        tail = need * 6 - pos
        if tail and body and body[-1] & ((1 << tail) - 1):
            raise InputError("graph6 padding bits must be zero")
        return cls(n, tuple(rows))


# -- counting functionals ---------------------------------------------------


def _checked_mask(G: Graph, S: VertexSetLike, what: str = "vertex set") -> int:
    m = mask_of(S)
    if m & ~G.full_mask:
        raise InputError(f"{what} references vertices outside 0..{G.n - 1}")
    return m


def e_inside(G: Graph, S: VertexSetLike) -> int:
    """Edges with both ends in S."""
    return _e_inside_mask(G, _checked_mask(G, S))


def _e_inside_mask(G: Graph, m: int) -> int:
    """``e_inside`` for a mask already known to lie inside 0..n-1."""
    rows = G.rows
    twice = 0
    rest = m
    while rest:
        low = rest & -rest
        twice += (rows[low.bit_length() - 1] & m).bit_count()
        rest ^= low
    return twice // 2


def edge_counts(G: Graph, S: VertexSetLike) -> tuple[int, int]:
    """(edges inside S, edges leaving S)."""
    m = _checked_mask(G, S)
    inside2 = 0
    out = 0
    for v in bits_of(m):
        inside2 += (G.rows[v] & m).bit_count()
        out += (G.rows[v] & ~m).bit_count()
    return inside2 // 2, out


def edges_between(G: Graph, S1: VertexSetLike, S2: VertexSetLike) -> int:
    m1 = _checked_mask(G, S1, "first set")
    m2 = _checked_mask(G, S2, "second set")
    if m1 & m2:
        raise InputError("edges_between requires disjoint sets")
    return sum((G.rows[v] & m2).bit_count() for v in bits_of(m1))


def satisfies_density(G: Graph, k: int) -> bool:
    """2*e(G) > (k-1)*n, in exact integer arithmetic."""
    if k < 1:
        raise InputError("k must be positive")
    return 2 * G.edge_count() > (k - 1) * G.n


def satisfies_local_condition(G: Graph, k: int) -> Optional[frozenset[int]]:
    """None if every nonempty S has 2*(e(S)+d(S)) > (k-1)*|S|, else the
    violator whose mask is the least integer.

    S violates exactly when h(S) = d(S) + sum over v in S of (d(v) - (k-1))
    is <= 0.  h is a cut function plus a modular term, so one minimum s-t
    cut minimises it over the sets between a forced-in and a forced-out
    set (see ``_violator_search``).  The least violating mask takes three
    steps:

    1. decide: one cut says whether any nonempty violator exists;
    2. top bit: the least t with a violator inside {0..t}, by binary search;
    3. lower bits: from t-1 down to 0, each bit stays out when some violator
       still fits, else it is forced in.

    A violator already in hand answers a step without a cut whenever it
    fits the tighter constraint, so a graph meeting the condition costs one
    cut and a violating one at most n + ceil(log2 n) + 1.
    """
    if k < 1:
        raise InputError("k must be positive")
    violator = _violator_search(G, k)
    found = violator(0, 0)
    if found is None:
        return None
    full = G.full_mask
    lo, hi = 0, found.bit_length() - 1
    while lo < hi:
        mid = (lo + hi) // 2
        got = violator(0, full & -(2 << mid))
        if got is None:
            lo = mid + 1
        else:
            found, hi = got, got.bit_length() - 1
    inside, outside = bit(hi), full & -(2 << hi)
    for v in range(hi - 1, -1, -1):
        if found & bit(v):
            got = violator(inside, outside | bit(v))
            if got is None:
                inside |= bit(v)
                continue
            found = got
        outside |= bit(v)
    return set_of(found)


def _violator_search(G: Graph, k: int) -> Callable[[int, int], Optional[int]]:
    """A function of (inside, outside) returning, as a mask, the smallest
    minimiser of (n+1)*h(S) - |S| over inside ⊆ S ⊆ V - outside when that
    minimum is negative, else None.  Negative means h(S) <= 0 with S
    nonempty (h(S) >= 1 makes the value positive), so the empty set needs
    no special case.

    Nodes s = n and t = n+1, source side S: each edge is two arcs of
    capacity n+1, and v of weight w = (n+1)*(d(v)-(k-1)) - 1 (never 0) gets
    v->t of capacity w if w > 0, else s->v of capacity -w.  A cut costs the
    value plus ``limit``, the sum of the s->v capacities, so the minimum is
    negative exactly when the maximum flow stays below ``limit``.  Forced
    vertices get an s->v (in) or v->t (out) arc of capacity ``limit``,
    which no cut below ``limit`` contains.
    """
    n = G.n
    s, t = n, n + 1
    base = [[0] * (n + 2) for _ in range(n + 2)]
    adj: list[list[int]] = []
    limit = 0
    for v, row in enumerate(G.rows):
        arcs = base[v]
        nbrs = list(bits_of(row))
        for w in nbrs:
            arcs[w] = n + 1
        adj.append(nbrs + [t])
        weight = (n + 1) * (row.bit_count() - (k - 1)) - 1
        if weight > 0:
            arcs[t] = weight
        else:
            base[s][v] = -weight
            limit -= weight
    adj += [list(range(n)), []]

    def violator(inside: int, outside: int) -> Optional[int]:
        if not limit:
            return None
        cap = [row[:] for row in base]
        for v in bits_of(inside):
            cap[s][v] += limit
        for v in bits_of(outside):
            cap[v][t] += limit
        reached = _max_flow(cap, adj, s, t, limit)
        return None if reached is None else reached & ~bit(s)

    return violator


def _max_flow(
    cap: list[list[int]], adj: list[list[int]], s: int, t: int, limit: int
) -> Optional[int]:
    """Dinic's maximum flow on the dense residual matrix ``cap``, changed in
    place; ``adj[u]`` lists every node u may have an arc to, and every arc
    that does not touch s or t has its reverse.  None once the flow reaches
    ``limit``, else the mask of the nodes the last residual search reaches
    from s: the source side of the smallest minimum cut."""
    size = len(cap)
    flow = 0
    while True:
        level = [-1] * size
        level[s] = 0
        queue = [s]
        for u in queue:
            for v in adj[u]:
                if level[v] < 0 and cap[u][v]:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[t] < 0:
            return sum(1 << u for u in queue)
        nxt = [0] * size

        def push(u: int, room: int) -> int:
            if u == t:
                return room
            arcs = adj[u]
            row = cap[u]
            step = level[u] + 1
            sent = 0
            while nxt[u] < len(arcs):
                v = arcs[nxt[u]]
                if row[v] and level[v] == step:
                    got = push(v, min(room - sent, row[v]))
                    if got:
                        row[v] -= got
                        cap[v][u] += got
                        sent += got
                        if sent == room:
                            return sent
                nxt[u] += 1
            return sent

        flow += push(s, limit - flow)
        if flow >= limit:
            return None


def heavy_vertex(G: Graph, S: VertexSetLike, k: int) -> int:
    """A vertex of S maximizing 2*d(v) - e(v,S); ties go to the smallest id.

    Whenever 2*(e(S)+d(S)) > (k-1)*|S| holds, the returned vertex satisfies
    2*d(v) - e(v,S) >= k (the average exceeds k-1, so the max reaches k).
    """
    m = _checked_mask(G, S)
    if not m:
        raise InputError("heavy_vertex needs a nonempty set")
    if k < 1:
        raise InputError("k must be positive")
    best_v = -1
    best_score = None
    for v in bits_of(m):
        score = 2 * G.rows[v].bit_count() - (G.rows[v] & m).bit_count()
        if best_score is None or score > best_score:
            best_v, best_score = v, score
    return best_v


# -- H(a,b) splits -----------------------------------------------------------


@dataclass(frozen=True)
class HCertificate:
    x_side: frozenset[int]
    y_side: frozenset[int]

    @property
    def a(self) -> int:
        return len(self.x_side)

    @property
    def b(self) -> int:
        return len(self.y_side)

    def vertex_mask(self) -> int:
        return mask_of(self.x_side) | mask_of(self.y_side)

    def to_json(self) -> dict:
        return {"x": sorted(self.x_side), "y": sorted(self.y_side)}

    @classmethod
    def from_json(cls, obj: dict) -> "HCertificate":
        return cls(frozenset(obj["x"]), frozenset(obj["y"]))


def verify_H_certificate(G: Graph, cert: HCertificate) -> bool:
    """True iff on G[X∪Y] every X-vertex's neighbourhood is exactly Y."""
    xm = mask_of(cert.x_side)
    ym = mask_of(cert.y_side)
    if (xm | ym) & ~G.full_mask:
        return False
    if xm & ym:
        return False
    both = xm | ym
    return all(G.rows[v] & both == ym for v in bits_of(xm))


def recognize_H(G: Graph) -> Optional[HCertificate]:
    """Maximal-X whole-graph split, or None.

    Vertices are grouped by exact neighbourhood; a class X with common
    neighbourhood Y qualifies when X ∪ Y covers the graph.  Output is unique:
    the largest qualifying class wins, ties by smallest sorted X.
    """
    classes: dict[int, list[int]] = {}
    for v in range(G.n):
        classes.setdefault(G.rows[v], []).append(v)
    best: Optional[tuple[int, list[int], int]] = None
    for ymask, members in classes.items():
        xmask = mask_of(members)
        if xmask & ymask:
            continue
        if (xmask | ymask) != G.full_mask:
            continue
        key = (-len(members), sorted(members))
        if best is None or key < (best[0], best[1]):
            best = (-len(members), sorted(members), ymask)
    if best is None:
        return None
    return HCertificate(frozenset(best[1]), set_of(best[2]))


FIND_H_DEFAULT_BUDGET = 10_000_000


def find_H_subgraph(G: Graph, a: int, b: int, u: int) -> Optional[HCertificate]:
    """Induced H(a,b) split through u, or None when the search exhausts.

    Y-candidates are the b-subsets of neighbourhoods N(z) for z in the closed
    neighbourhood of u (every split through u has its Y inside some such
    neighbourhood); X is collected by exact whole-graph neighbourhood match
    and trimmed to size a, keeping u when u sits on the X side.  Each
    candidate subset costs one budget unit; running out raises rather than
    returning None.
    """
    if a < 1 or b < 0:
        raise InputError("need a >= 1 and b >= 0")
    if not 0 <= u < G.n:
        raise InputError("u out of range")
    if a + b > G.n:
        return None
    budget = Budget(search_budget(FIND_H_DEFAULT_BUDGET), "find_H_subgraph")
    seen: set[int] = set()
    for z in [u] + list(bits_of(G.rows[u])):
        nbrs = list(bits_of(G.rows[z]))
        if len(nbrs) < b:
            continue
        for ys in combinations(nbrs, b):
            budget.spend()
            ymask = mask_of(ys)
            if ymask in seen:
                continue
            seen.add(ymask)
            xs = [v for v in range(G.n) if not ymask & bit(v) and G.rows[v] == ymask]
            if len(xs) < a:
                continue
            if not (bit(u) & ymask) and u not in xs:
                continue
            if u in xs:
                picked = [u] + [v for v in xs if v != u][: a - 1]
            else:
                picked = xs[:a]
            cert = HCertificate(frozenset(picked), set_of(ymask))
            if verify_H_certificate(G, cert):
                return cert
    return None
