"""Dense small-graph core.

Graphs are immutable values over vertex ids 0..n-1 with one adjacency
bitmask per vertex, so every set operation is a handful of int ops.
Vertex sets travel as plain ints (bit v set <=> vertex v in the set);
public functions also accept any iterable of ids, and turn an outside id
or set into bits only through ``_checked_vertex`` and ``_checked_mask``.
Every count, size, length and k from outside passes ``_checked_int``.

Counting functionals follow the usual boundary conventions:

* ``e_in``  of S counts edges with both ends in S,
* ``d_out`` of S counts edges with exactly one end in S,
* ``edges_between(S1, S2)`` counts edges with one end in each (disjoint sets).

Density comparisons are done in doubled integers (2*e > (k-1)*n), so no
fractions ever appear.  The per-subset condition lists no subsets: one
minimum s-t cut minimises its defect over all sets (a selection problem,
Picard & Queyranne 1982), and a few more fix the violating set with the
least mask bit by bit.  Dinic's flow keeps one residual bit row per node:
levels OR the rows of the level before, and steps mask a row with the next.

An H(a,b) split of a vertex set is a partition X, Y with |X|=a, |Y|=b where
every X-vertex's neighbourhood inside X∪Y is exactly Y (edges inside Y are
unconstrained).  ``HCertificate`` carries such a partition.  Every split
is read off one partition, ``twin_classes``: the vertices of a pool grouped
by their neighbourhood inside it.  X is always a set of twins and Y their
shared neighbourhood, so ``recognize_H`` (the maximal-X split covering a
pool, the whole graph by default) and ``find_H_subgraph`` (an induced split
through a required vertex) look at classes, never at subsets.  The pool of
``recognize_H`` serves both covering splits: the whole-graph certificate of
embed-or-certify and the balanced split of the growth rules' case B.

graph6 ingestion/emission is bit-exact: 6-bit big-endian packing of the
upper triangle in column order, each byte offset by 63 (McKay's graph6
format notes).  Both directions hold that bit stream as one int, stream
bit p at bit p, and pass each character through one table of its 6 bits
reversed.
Column j of the upper triangle is row j below the diagonal, so decoding
packs those rows into one width x width bit matrix (row v at bit
v * width, width the least power of two >= n) and ORs in its transpose.
The same packing checks a graph's symmetry: rows are symmetric exactly
when the packed matrix equals its transpose, which log2(width) delta
swaps compute (Warren, Hacker's Delight, 2nd ed., section 7-3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .errors import InputError

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


def _checked_int(value: int, what: str) -> int:
    if type(value) is not int:  # a float or a bool is no count, size or length
        raise InputError(f"{what} {value!r} is not an integer")
    return value


def _check_order(n: int) -> None:
    # the integers 1..128 only: a float or a bool is no vertex count
    if type(n) is not int or not 1 <= n <= MAX_VERTICES:
        raise InputError(f"vertex count {n} outside 1..{MAX_VERTICES}")


# -- packed bit matrices: row r of a width x width matrix at bit r * width ---

# graph6 character -> its 6 bits, least significant first, as a bit string
_BITS6 = {63 + x: f"{x:06b}"[::-1] for x in range(64)}
_CHAR6 = {bits: chr(code) for code, bits in _BITS6.items()}


def _width(n: int) -> int:
    """The least power of two >= n: 1, 2, 4, ..., 128."""
    return 1 << (n - 1).bit_length()


def _packed(rows: Sequence[int], width: int) -> int:
    packed = 0
    for row in reversed(rows):
        packed = packed << width | row
    return packed


@lru_cache(maxsize=8)
def _swap_masks(width: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) per delta swap of ``_transpose``.  The swap of block
    size j moves bit (r, c) to (r + j, c - j) and back wherever bit j of r
    is clear and bit j of c is set, so it exchanges bit j of the row and
    column indices; the log2(width) swaps together transpose (Warren,
    Hacker's Delight, 2nd ed., 7-3).  Cached per width: at most 8."""
    swaps = []
    j = width >> 1
    while j:
        cols = sum(1 << c for c in range(width) if c & j)
        mask = sum(cols << r * width for r in range(width) if not r & j)
        swaps.append((j * (width - 1), mask))
        j >>= 1
    return tuple(swaps)


def _transpose(packed: int, width: int) -> int:
    for shift, mask in _swap_masks(width):
        t = (packed ^ packed >> shift) & mask
        packed ^= t ^ t << shift
    return packed


@dataclass(frozen=True)
class Graph:
    """``full_mask``, the set of all n vertices, is computed once, at
    construction; equality, hash and repr see only ``n`` and ``rows``.

    Construction checks each row in turn for an int, vertices >= n and a
    loop, then the symmetry of all rows at once: the packed rows must equal
    their transpose.  Only when they do not are the rows walked edge by
    edge, to name the first asymmetric pair in row order.  ``Graph._of(n,
    rows)`` skips the checks, only for a tuple of rows symmetric, loop-free
    and inside n by construction: a graph6 decode, ``lemmas._propose``'s
    host, and enumeration's candidates and ``_from_key`` graphs."""

    n: int
    rows: tuple[int, ...]
    full_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if type(self.rows) is not tuple:  # e.g. list rows: keep G hashable
            if not isinstance(self.rows, Iterable):  # e.g. a bare mask
                raise InputError("adjacency rows must be an iterable of integer masks")
            object.__setattr__(self, "rows", tuple(self.rows))
        _check_order(self.n)
        if len(self.rows) != self.n:
            raise InputError("adjacency row count does not match n")
        rows = self.rows
        full = (1 << self.n) - 1
        object.__setattr__(self, "full_mask", full)
        for v, row in enumerate(rows):
            if type(row) is not int:  # a float or a bool is no row
                raise InputError(f"row {v} must be an integer mask")
            if row & ~full:
                raise InputError(f"row {v} references vertices >= n")
            if row >> v & 1:
                raise InputError(f"loop at vertex {v}")
        width = _width(self.n)
        packed = _packed(rows, width)
        if _transpose(packed, width) == packed:
            return
        for v, row in enumerate(rows):  # name the first asymmetric pair
            while row:
                low = row & -row
                w = low.bit_length() - 1
                if not rows[w] >> v & 1:
                    raise InputError(f"asymmetric adjacency at ({v},{w})")
                row ^= low

    @classmethod
    def _of(cls, n: int, rows: tuple[int, ...]) -> "Graph":
        G = object.__new__(cls)
        object.__setattr__(G, "n", n)
        object.__setattr__(G, "rows", rows)
        object.__setattr__(G, "full_mask", (1 << n) - 1)
        return G

    # -- constructors ------------------------------------------------------
    # each checks n before it builds a row, so a huge n costs nothing

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        _check_order(n)
        rows = [0] * n
        if not isinstance(edges, Iterable):
            raise InputError("edges must be an iterable of vertex pairs")
        for edge in edges:
            try:
                a, b = edge
            except (TypeError, ValueError):  # e.g. a bare id or a triple
                raise InputError(f"edge {edge!r} must be a pair of vertex ids") from None
            if type(a) is not int or type(b) is not int:  # True == 1
                raise InputError(f"edge ({a!r},{b!r}) must join integer ids")
            if a == b:
                raise InputError(f"loop edge ({a},{b})")
            if not (0 <= a < n and 0 <= b < n):
                raise InputError(f"edge ({a},{b}) out of range for n={n}")
            rows[a] |= bit(b)
            rows[b] |= bit(a)
        return cls(n, tuple(rows))

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls.from_edges(n, ())

    @classmethod
    def complete(cls, n: int) -> "Graph":
        _check_order(n)
        full = (1 << n) - 1
        return cls(n, tuple(full ^ bit(v) for v in range(n)))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        _check_order(n)  # before range(n), which a float n fails
        return cls.from_edges(n, ((i, (i + 1) % n) for i in range(n)))

    @classmethod
    def path_graph(cls, n: int) -> "Graph":
        _check_order(n)
        return cls.from_edges(n, ((i, i + 1) for i in range(n - 1)))

    # -- basic queries -----------------------------------------------------

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def has_edge(self, a: int, b: int) -> bool:
        return bool(self.rows[a] & bit(b))

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for a, row in enumerate(self.rows):
            for b in bits_of(row & -(2 << a)):  # the neighbours above a
                yield (a, b)

    # -- derived graphs ----------------------------------------------------

    def induced(self, keep: VertexSetLike) -> tuple["Graph", list[int]]:
        """Relabelled induced subgraph plus the new->old vertex map."""
        m = _checked_mask(self, keep)
        old = list(bits_of(m))
        if not old:
            raise InputError("induced subgraph needs at least one vertex")
        index = {v: i for i, v in enumerate(old)}
        rows = [sum(1 << index[w] for w in bits_of(self.rows[v] & m)) for v in old]
        return Graph(len(old), tuple(rows)), old

    # -- graph6 ------------------------------------------------------------

    def to_graph6(self) -> str:
        n = self.n
        head = chr(n + 63) if n <= 62 else "~" + "".join(
            chr((n >> shift & 63) + 63) for shift in (12, 6, 0)
        )
        acc = 0  # bit j(j-1)/2 + i is edge (i, j), i < j: the column order
        for j in range(n - 1, 0, -1):
            acc = acc << j | self.rows[j] & ((1 << j) - 1)
        size = 6 * ((n * (n - 1) // 2 + 5) // 6)
        bits = f"{acc:0{size}b}"  # the last character's bits, reversed, first
        chunks = [bits[i:i + 6] for i in range(0, size, 6)]
        return head + "".join(map(_CHAR6.__getitem__, chunks))[::-1]

    @classmethod
    def from_graph6(cls, text: str) -> "Graph":
        if not isinstance(text, str):
            raise InputError(f"graph6 input must be a str, not {type(text).__name__}")
        s = text.strip()
        if s.startswith(">>graph6<<"):
            s = s[len(">>graph6<<"):]
        if not s:
            raise InputError("empty graph6 string")
        if min(s) < "?" or max(s) > "~":
            raise InputError("graph6 characters must be in range 63..126")
        if s[0] == "~":
            if len(s) < 4:
                raise InputError("truncated graph6 vertex count")
            n = (ord(s[1]) - 63) << 12 | (ord(s[2]) - 63) << 6 | ord(s[3]) - 63
            body = s[4:]
        else:
            n = ord(s[0]) - 63
            body = s[1:]
        if not 1 <= n <= MAX_VERTICES:
            raise InputError(f"graph6 vertex count {n} outside 1..{MAX_VERTICES}")
        need = (n * (n - 1) // 2 + 5) // 6
        if len(body) != need:
            raise InputError(
                f"graph6 body length {len(body)} does not match n={n} (need {need})"
            )
        acc = int(body[::-1].translate(_BITS6) or "0", 2)  # bit p: the p-th body bit
        if acc >> n * (n - 1) // 2:
            raise InputError("graph6 padding bits must be zero")
        width = _width(n)
        packed = 0  # row j below the diagonal is column j of the upper triangle
        for j in range(n - 1, 0, -1):
            packed = packed << width | acc >> j * (j - 1) // 2 & ((1 << j) - 1)
        packed <<= width  # row 0 has nothing below the diagonal
        packed |= _transpose(packed, width)
        mask = (1 << width) - 1
        return cls._of(n, tuple(packed >> v * width & mask for v in range(n)))


# -- counting functionals ---------------------------------------------------


def _checked_vertex(G: Graph, v: int, role: str) -> int:
    if type(v) is not int:  # a float or a bool is no vertex id
        raise InputError(f"{role} must be an integer id")
    if not 0 <= v < G.n:
        raise InputError(f"{role} outside 0..{G.n - 1}")
    return 1 << v


def _checked_mask(G: Graph, S: VertexSetLike, what: str = "vertex set") -> int:
    # each id is checked before it becomes a bit, so a huge id costs nothing
    if type(S) is int:  # a bool is no mask
        ok = not S & ~G.full_mask
    else:
        if not hasattr(S, "__iter__"):
            raise InputError(f"{what} must be a mask or an iterable of vertex ids")
        S = list(S)
        if any(type(v) is not int for v in S):
            raise InputError(f"{what} must hold integer ids")
        ok = all(0 <= v < G.n for v in S)
    if not ok:
        raise InputError(f"{what} references vertices outside 0..{G.n - 1}")
    return mask_of(S)


def e_inside(G: Graph, S: VertexSetLike) -> int:
    """Edges with both ends in S."""
    return _inner_edges(G.rows, _checked_mask(G, S))


def _inner_edges(rows: tuple[int, ...], m: int) -> int:
    """``e_inside`` once m is known to be a vertex set of the host."""
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
    inside = _inner_edges(G.rows, m)  # d(S) is the degree sum less 2*e(S)
    return inside, sum(G.rows[v].bit_count() for v in bits_of(m)) - 2 * inside


def edges_between(G: Graph, S1: VertexSetLike, S2: VertexSetLike) -> int:
    m1 = _checked_mask(G, S1, "first set")
    m2 = _checked_mask(G, S2, "second set")
    if m1 & m2:
        raise InputError("edges_between requires disjoint sets")
    return sum((G.rows[v] & m2).bit_count() for v in bits_of(m1))


def _check_k(k: int) -> None:
    if _checked_int(k, "k") < 1:
        raise InputError("k must be positive")


def satisfies_density(G: Graph, k: int) -> bool:
    """2*e(G) > (k-1)*n, in exact integer arithmetic."""
    _check_k(k)
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
    fits the tighter constraint.  No cut when every degree is >= k, else one
    when the condition holds and at most n + ceil(log2 n) + 1 when it fails.
    Step 2 stays: bit fixing from n-1 down finds the same violator without
    it, but with more cuts in all (3,664 against 2,702 over every dense
    (G, k) with n <= 7, though 479 against 568 on G(n, 1/2), n = 12..16).
    """
    _check_k(k)
    if min(map(int.bit_count, G.rows)) >= k:  # every h(S) >= |S| > 0
        return None
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
    which no cut below ``limit`` contains; a degree below k makes it > 0.
    The capacities and their bit rows are built once; each call copies both.
    """
    n = G.n
    s, t = n, n + 1
    base = [[0] * (n + 2) for _ in range(n + 2)]
    res = list(G.rows) + [0, 0]  # bit v of res[u] <=> base[u][v] > 0
    limit = 0
    for v, row in enumerate(G.rows):
        arcs = base[v]
        while row:
            low = row & -row
            arcs[low.bit_length() - 1] = n + 1
            row ^= low
        weight = (n + 1) * (res[v].bit_count() - (k - 1)) - 1
        if weight > 0:
            arcs[t] = weight
            res[v] |= 1 << t
        else:
            base[s][v] = -weight
            res[s] |= 1 << v
            limit -= weight

    def violator(inside: int, outside: int) -> Optional[int]:
        cap = [row[:] for row in base]
        rows = res[:]
        rows[s] |= inside
        for v in bits_of(inside):
            cap[s][v] += limit
        for v in bits_of(outside):
            cap[v][t] += limit
            rows[v] |= 1 << t
        reached = _max_flow(cap, rows, s, t, limit)
        return None if reached is None else reached & ~bit(s)

    return violator


def _max_flow(
    cap: list[list[int]], res: list[int], s: int, t: int, limit: int
) -> Optional[int]:
    """Dinic's maximum flow on the dense residual matrix ``cap`` and its bit
    rows ``res`` (bit v of ``res[u]`` set exactly when ``cap[u][v] > 0``),
    both changed in place.  Each level mask is the union of the previous
    level's rows minus the nodes seen; the blocking flow steps from u to
    ``res[u] & alive[level + 1]`` and drops u from ``alive`` once it is
    blocked.  None once the flow reaches ``limit``, else the mask of the
    nodes the last level search reaches from s: the source side of the
    smallest minimum cut."""
    flow = 0

    def push(u: int, level: int, room: int) -> int:
        if u == t:
            return room
        row = cap[u]
        sent = 0
        ahead = res[u] & alive[level + 1]
        while ahead:
            low = ahead & -ahead
            v = low.bit_length() - 1
            got = push(v, level + 1, min(room - sent, row[v]))
            if got:
                row[v] -= got
                if not row[v]:
                    res[u] ^= low
                cap[v][u] += got
                res[v] |= 1 << u
                sent += got
                if sent == room:
                    return sent
            ahead ^= low  # v's arc is full or v is blocked
        alive[level] &= ~(1 << u)
        return sent

    while True:
        seen = frontier = 1 << s
        alive = [frontier]
        while not seen >> t & 1:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= res[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~seen
            if not frontier:
                return seen
            seen |= frontier
            alive.append(frontier)
        alive[-1] = 1 << t  # no other node of t's level reaches t
        flow += push(s, 0, limit - flow)
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
    _check_k(k)
    rows = G.rows  # max keeps the first maximiser: the smallest id
    return max(
        bits_of(m), key=lambda v: 2 * rows[v].bit_count() - (rows[v] & m).bit_count()
    )


# -- H(a,b) splits -----------------------------------------------------------


@dataclass(frozen=True)
class HCertificate:
    x_side: frozenset[int]
    y_side: frozenset[int]

    def __post_init__(self):  # e.g. set sides: keep the certificate hashable
        try:
            x_side, y_side = frozenset(self.x_side), frozenset(self.y_side)
        except TypeError:  # a side that is no iterable, or holds a list
            raise InputError("certificate sides must be iterables of vertex ids") from None
        for v in x_side | y_side:  # a float or a bool is no vertex id
            if type(v) is not int:
                raise InputError("certificate sides must hold integer ids")
        object.__setattr__(self, "x_side", x_side)
        object.__setattr__(self, "y_side", y_side)

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


def verify_H_certificate(G: Graph, cert: HCertificate) -> bool:
    """True iff on G[X∪Y] every X-vertex's neighbourhood is exactly Y; so
    overlapping sides fail, as a shared vertex would have to see itself."""
    if not all(0 <= v < G.n for v in cert.x_side | cert.y_side):
        return False
    xm = mask_of(cert.x_side)
    ym = mask_of(cert.y_side)
    both = xm | ym
    return all(G.rows[v] & both == ym for v in bits_of(xm))


def twin_classes(G: Graph, pool: int) -> dict[int, int]:
    """The vertices of ``pool`` grouped by their neighbourhood inside it:
    {neighbourhood mask: members mask}, in order of first member."""
    classes: dict[int, int] = {}
    for v in bits_of(pool):
        nbhd = G.rows[v] & pool
        classes[nbhd] = classes.get(nbhd, 0) | bit(v)
    return classes


def recognize_H(
    G: Graph, pool: Optional[VertexSetLike] = None
) -> Optional[HCertificate]:
    """The covering split of ``pool`` (the whole graph by default), or None.

    X is a twin class of G[pool] and Y its neighbourhood inside the pool;
    the class qualifies when X ∪ Y is the pool.  Output is unique: the
    largest qualifying class wins, ties by smallest sorted X.  Classes are
    disjoint and met in order of first member, so that is the first of the
    largest.
    """
    pool = G.full_mask if pool is None else _checked_mask(G, pool, "pool")
    covering = [(x, y) for y, x in twin_classes(G, pool).items() if x | y == pool]
    if not covering:
        return None
    xmask, ymask = max(covering, key=lambda c: c[0].bit_count())
    return HCertificate(set_of(xmask), set_of(ymask))


def find_H_subgraph(G: Graph, a: int, b: int, u: int) -> Optional[HCertificate]:
    """Induced H(a,b) split through u, or None when there is none.

    Every X-vertex has whole-graph neighbourhood exactly Y, so X lies in
    one twin class and Y is that class's neighbourhood: Y qualifies when
    |Y| = b, its class has at least a members and u is in X ∪ Y.  Order
    contract: for z = u and then the neighbours of u ascending, the first z
    whose neighbourhood contains a qualifying Y gives the lexicographically
    least such Y (as a sorted tuple); X is the first a members of the
    class, u first when it is one of them.
    """
    if _checked_int(a, "a") < 1 or _checked_int(b, "b") < 0:
        raise InputError("need a >= 1 and b >= 0")
    _checked_vertex(G, u, "u")
    classes = {
        ymask: xmask
        for ymask, xmask in twin_classes(G, G.full_mask).items()
        if ymask.bit_count() == b
        and xmask.bit_count() >= a
        and (xmask | ymask) & bit(u)
    }
    for z in [u, *bits_of(G.rows[u])]:
        inside = [y for y in classes if not y & ~G.rows[z]]
        if inside:
            ymask = min(inside, key=lambda y: list(bits_of(y)))
            xs = sorted(bits_of(classes[ymask]), key=lambda x: x != u)  # u first
            return HCertificate(frozenset(xs[:a]), set_of(ymask))
    return None
