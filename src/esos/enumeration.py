"""Canonical enumeration of small graphs, one per isomorphism class.

Built-in enumeration is capped at 7 vertices; larger populations come from
external graph6 streams.  Classes are produced incrementally: every class on
m vertices is extended by a new vertex with each possible neighbourhood, and
the results are deduplicated by a canonical key (colour refinement to an
invariant ordered partition, then the lexicographically least row-by-row
adjacency encoding over partition-respecting orderings, with prefix
pruning).  Results are cached per order and returned sorted by graph6
string, so enumeration order is stable across runs.
"""

from __future__ import annotations

from typing import Iterator

from .errors import CapabilityError, InputError
from .graphs import Graph, bit, bits_of

ENUMERATION_CAP = 7

_cache: dict[int, list[Graph]] = {}


def refined_cells(G: Graph) -> list[list[int]]:
    """Stable colour refinement from degrees; cells in invariant order."""
    color = [G.degree(v) for v in range(G.n)]
    while True:
        sigs = [
            (color[v], tuple(sorted(color[w] for w in bits_of(G.rows[v]))))
            for v in range(G.n)
        ]
        palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [palette[s] for s in sigs]
        if new == color:
            break
        color = new
    cells: dict[int, list[int]] = {}
    for v in range(G.n):
        cells.setdefault(color[v], []).append(v)
    return [cells[c] for c in sorted(cells)]


def canonical_key(G: Graph) -> tuple[int, ...]:
    """Lex-least row-by-row lower-triangle encoding over orderings that
    respect the refined partition."""
    n = G.n
    cells = refined_cells(G)
    pos_cell = []
    for idx, cell in enumerate(cells):
        pos_cell.extend([idx] * len(cell))
    best: list[int] | None = None
    placed: list[int] = []
    used = set()
    rowbits: list[int] = []

    def rec(t: int):
        nonlocal best
        if t == n:
            if best is None or rowbits < best:
                best = rowbits.copy()
            return
        for v in cells[pos_cell[t]]:
            if v in used:
                continue
            row = 0
            gr = G.rows[v]
            for i, q in enumerate(placed):
                if gr & bit(q):
                    row |= 1 << i
            rowbits.append(row)
            if best is None or rowbits <= best[: t + 1]:
                placed.append(v)
                used.add(v)
                rec(t + 1)
                used.remove(v)
                placed.pop()
            rowbits.pop()

    rec(0)
    assert best is not None
    return tuple(best)


def canonical_form(G: Graph) -> Graph:
    """An isomorphic copy whose labelling realizes the canonical key."""
    return _from_key(canonical_key(G))


def _from_key(key: tuple[int, ...]) -> Graph:
    """The graph a canonical key encodes: row j lists the earlier
    neighbours of vertex j."""
    edges = []
    for j, row in enumerate(key):
        for i in bits_of(row):
            edges.append((i, j))
    return Graph.from_edges(len(key), edges)


def enumerate_graphs(n: int) -> list[Graph]:
    """One representative per isomorphism class on n vertices, sorted by
    graph6 string of the canonical form."""
    if n < 1:
        raise InputError("n must be positive")
    if n > ENUMERATION_CAP:
        raise CapabilityError(
            f"built-in enumeration capped at n <= {ENUMERATION_CAP}; "
            "stream graph6 input for larger orders"
        )
    if n in _cache:
        return _cache[n]
    if n == 1:
        reps = [Graph.empty(1)]
    else:
        reps_by_key: dict[tuple[int, ...], Graph] = {}
        for H in enumerate_graphs(n - 1):
            for nbrs in range(1 << (n - 1)):
                rows = [r | (bit(n - 1) if nbrs & bit(v) else 0) for v, r in enumerate(H.rows)]
                rows.append(nbrs)
                G = Graph(n, tuple(rows))
                key = canonical_key(G)
                if key not in reps_by_key:
                    reps_by_key[key] = _from_key(key)
        reps = sorted(reps_by_key.values(), key=lambda g: g.to_graph6())
    _cache[n] = reps
    return reps


def graphs_up_to(n_max: int) -> Iterator[Graph]:
    for n in range(1, n_max + 1):
        yield from enumerate_graphs(n)


def read_graph6_stream(lines) -> Iterator[Graph]:
    """One graph per nonempty line, read lazily; a bad line raises an
    InputError naming its 1-based line number."""
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if line:
            try:
                G = Graph.from_graph6(line)
            except InputError as exc:
                raise InputError(f"line {number}: {exc}") from exc
            yield G
