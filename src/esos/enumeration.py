"""Canonical enumeration of small graphs, one per isomorphism class.

Built-in enumeration is capped at 7 vertices; larger populations come from
external graph6 streams.  Classes are produced incrementally: every class H
on m vertices is extended by a new vertex with each neighbourhood that
leaves the new vertex at minimum degree and meets each twin class of H in a
lowest-id-first prefix, and the results are deduplicated by a canonical
key.  All three shortcuts are exact:

* every graph is a smaller graph plus a vertex of minimum degree (delete a
  vertex of minimum degree and read off its class), so the extensions
  that keep the new vertex at minimum degree still reach every class;
* permuting a twin class of H (twins u, v have N(u) - v = N(v) - u) is an
  automorphism of H that carries any neighbourhood to its prefix form, so
  both extensions are isomorphic; twins share a degree, so the
  minimum-degree filter keeps or drops the two forms together;
* the key is colour refinement to an invariant ordered partition, then the
  lexicographically least row-by-row adjacency encoding over
  partition-respecting orderings, with prefix pruning.  Twins u, v lie in
  one cell, and swapping two unplaced twins is an automorphism fixing
  every placed vertex, so the two subtrees give the same encodings and the
  search tries one twin of each class per position.

Colour refinement stops at the first round that splits no class, or once
every class is a single vertex: a signature starts with the vertex's colour,
so the next round would read the same counts off the same classes and
split nothing either, and a single vertex cannot be split.

The key does not depend on which extension produced a graph, and the
representative of a class is built from its key, so the classes and their
labellings are those of the unfiltered, unpruned search.  Results are
cached per order and returned sorted by graph6 string, so enumeration
order is stable across runs.  ``graphs_up_to`` runs ``_check_order``, as
``enumerate_graphs`` does, when it is called, before any class is built.
"""

from __future__ import annotations

from itertools import chain, product
from typing import Iterator

from .errors import CapabilityError, InputError
from .graphs import Graph, _checked_int, bit, bits_of, mask_of

ENUMERATION_CAP = 7

_cache: dict[int, list[Graph]] = {}


def refined_cells(G: Graph) -> list[list[int]]:
    """Stable colour refinement from degrees; cells in invariant order.

    A vertex's signature is its colour, then its negated neighbour count
    in each colour class: one colour has one degree, so these sort as the
    sorted tuples of neighbour colours would."""
    rows = G.rows
    color = [row.bit_count() for row in rows]
    while True:
        classes: dict[int, int] = {}
        for v, c in enumerate(color):
            classes[c] = classes.get(c, 0) | 1 << v
        if len(classes) == G.n:
            break
        counts = [[-(row & classes[c]).bit_count() for row in rows] for c in sorted(classes)]
        sigs = list(zip(color, *counts))
        palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
        if len(palette) == len(classes):
            break
        color = [palette[s] for s in sigs]
    cells: dict[int, list[int]] = {}
    for v in range(G.n):
        cells.setdefault(color[v], []).append(v)
    return [cells[c] for c in sorted(cells)]


def _twin_before(rows: tuple[int, ...]) -> list[int]:
    """Each vertex's nearest lower-id twin, else -1.  An open row never
    equals another vertex's closed row, so one dict finds both kinds."""
    last: dict[int, int] = {}
    before = []
    for v, row in enumerate(rows):
        closed = row | 1 << v
        before.append(last.get(row, last.get(closed, -1)))
        last[row] = last[closed] = v
    return before


def canonical_key(G: Graph) -> tuple[int, ...]:
    """Lex-least row-by-row lower-triangle encoding over orderings that
    respect the refined partition: row t has bit i set when the vertices at
    positions i and t are adjacent.  Each twin class is placed in one fixed
    order (see the module docstring)."""
    n = G.n
    rows = G.rows
    cell_at: list[list[int]] = []
    for cell in refined_cells(G):
        cell_at += [cell] * len(cell)
    twin_before = _twin_before(rows)  # twins share a cell
    adj = [0] * n  # adj[v]: positions of v's placed neighbours
    rowbits = [0] * n
    best: list[int] = []

    def rec(t: int, used: int, tied: bool) -> bool:
        """Search below a prefix of t rows; ``tied`` says the prefix equals
        the best key's (else it is smaller, or there is no best yet).
        Returns whether the best key changed."""
        nonlocal best
        if t == n:
            if tied:
                return False
            best = rowbits.copy()
            return True
        found = False
        bit_t = 1 << t
        for v in cell_at[t]:
            if used >> v & 1:
                continue
            twin = twin_before[v]
            if twin >= 0 and not used >> twin & 1:
                continue
            row = adj[v]
            if tied:
                if row > best[t]:
                    continue
                below_tied = row == best[t]
            else:
                below_tied = False
            rowbits[t] = row
            nbrs = list(bits_of(rows[v] & ~used))
            for w in nbrs:
                adj[w] ^= bit_t
            if rec(t + 1, used | 1 << v, below_tied):
                found = tied = True
            for w in nbrs:
                adj[w] ^= bit_t
        return found

    rec(0, 0, False)
    return tuple(best)


def canonical_form(G: Graph) -> Graph:
    """An isomorphic copy whose labelling realizes the canonical key."""
    return _from_key(canonical_key(G))


def _from_key(key: tuple[int, ...]) -> Graph:
    """The graph a canonical key encodes: row j lists the earlier
    neighbours of vertex j."""
    rows = list(key)
    for j, row in enumerate(key):
        for i in bits_of(row):
            rows[i] |= 1 << j
    return Graph._of(len(key), tuple(rows))


def _check_order(n: int) -> None:
    """The one order check of ``enumerate_graphs`` and ``graphs_up_to``."""
    if _checked_int(n, "order") < 1:
        raise InputError("n must be positive")
    if n > ENUMERATION_CAP:
        raise CapabilityError(
            f"built-in enumeration capped at n <= {ENUMERATION_CAP}; "
            "stream graph6 input for larger orders"
        )


def enumerate_graphs(n: int) -> list[Graph]:
    """One representative per isomorphism class on n vertices, sorted by
    graph6 string of the canonical form."""
    _check_order(n)
    if n in _cache:
        return _cache[n]
    if n == 1:
        reps = [Graph.empty(1)]
    else:
        reps_by_key: dict[tuple[int, ...], Graph] = {}
        for H in enumerate_graphs(n - 1):
            # The new vertex keeps minimum degree d: every old vertex of
            # degree below d must gain the new edge, and none is below d - 1.
            degs = [r.bit_count() for r in H.rows]
            max_d = min(degs) + 1
            below = [mask_of(v for v, dv in enumerate(degs) if dv < d) for d in range(n)]
            # The new vertex meets each twin class of H in a lowest-id-first
            # prefix; prefixes maps a class's highest vertex to those masks.
            prefixes: dict[int, list[int]] = {}
            for v, twin in enumerate(_twin_before(H.rows)):
                grown = prefixes.pop(twin, [0])
                prefixes[v] = grown + [grown[-1] | 1 << v]
            for nbrs in map(sum, product(*prefixes.values())):
                d = nbrs.bit_count()
                if d > max_d or below[d] & ~nbrs:
                    continue
                rows = [r | (bit(n - 1) if nbrs & bit(v) else 0) for v, r in enumerate(H.rows)]
                rows.append(nbrs)
                key = canonical_key(Graph._of(n, tuple(rows)))
                if key not in reps_by_key:
                    reps_by_key[key] = _from_key(key)
        reps = sorted(reps_by_key.values(), key=lambda g: g.to_graph6())
    _cache[n] = reps
    return reps


def graphs_up_to(n_max: int) -> Iterator[Graph]:
    _check_order(n_max)
    return chain.from_iterable(map(enumerate_graphs, range(1, n_max + 1)))


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
