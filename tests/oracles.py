"""Independent brute-force oracles used to freeze expected values.

Everything here works from explicit edge lists / adjacency sets with
itertools, deliberately avoiding the library's bitmask machinery, so the
two routes stay independent.  The exceptions are the ``scan_*`` oracles:
the subset scans the library once ran, over the adjacency rows, kept to pin
the polynomial searches that replaced them, ``reference_is_valid_upath``,
the library's earlier path check, kept to pin its one-pass loop, and the
``reference_*`` enumerator, the library's earlier canonical key and
unfiltered extend-and-dedup, kept to pin the pruned search and the
minimum-degree extension byte for byte, and ``reference_embed_search`` and
``reference_verify_embedding``, the library's earlier recursive embedding
oracle and leg-by-leg embedding check, kept to pin the flat search (same
embedding, same node charge) and the one-pass check, and
``reference_case_b_holds`` and ``reference_case_a_holds``, the witness
check's earlier statements of the growth rules' cases B and A, kept to pin
the statements the analyzers and the witness check now share, and
``reference_attachment``, the attachment set as first written, over
``brute_longest_path_len``, kept to pin the level-bounded question, and
``reference_path_pair`` and ``reference_first_upath``, the nested and
first-of path walks of growth rules 4 and 6 before they asked the placement
search, kept to pin its witnesses and node charges, and
``reference_paths2_through``, the 3-vertex paths through w collected in a
set and then sorted, kept to pin the list built already in order, and
``reference_to_graph6``, ``reference_from_graph6`` and
``reference_is_symmetric``, the library's earlier bit-by-bit graph6 codec
and edge-by-edge symmetry check, kept to pin the packed-matrix codec and
transpose test byte for byte and text for text.
``polya_counts`` counts the classes per edge count with no canonical form.
``scan_local_condition`` is fast enough for hosts of up to 16 vertices.
"""

from collections import Counter
from itertools import combinations, permutations
from math import factorial, gcd, lcm

from esos.embed import Embedding
from esos.errors import InputError
from esos.graphs import Graph, bit, bits_of
from esos.paths import UPath, is_valid_upath


def adj_sets(G):
    nbr = {v: set() for v in range(G.n)}
    for a, b in G.edges():
        nbr[a].add(b)
        nbr[b].add(a)
    return nbr


def brute_edge_counts(G, S):
    S = set(S)
    inside = outside = 0
    for a, b in G.edges():
        ins = (a in S) + (b in S)
        if ins == 2:
            inside += 1
        elif ins == 1:
            outside += 1
    return inside, outside


def brute_edges_between(G, S1, S2):
    S1, S2 = set(S1), set(S2)
    return sum(
        1
        for a, b in G.edges()
        if (a in S1 and b in S2) or (a in S2 and b in S1)
    )


def brute_local_condition(G, k):
    """First violating subset in mask order, as a set, else None."""
    verts = list(range(G.n))
    for m in range(1, 1 << G.n):
        S = {v for v in verts if m >> v & 1}
        e, d = brute_edge_counts(G, S)
        if 2 * (e + d) <= (k - 1) * len(S):
            return S
    return None


def scan_local_condition(G, k):
    """First violating subset in mask order, as a mask, else None: every
    nonempty mask in ascending order, e(S)+d(S) summed from the rows."""
    degs = [row.bit_count() for row in G.rows]
    for m in range(1, 1 << G.n):
        degsum = inside2 = 0
        rest = m
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            degsum += degs[v]
            inside2 += (G.rows[v] & m).bit_count()
            rest ^= low
        # e(S)+d(S) = sum(deg) - e(S); doubled to stay integral
        if 2 * degsum - inside2 <= (k - 1) * m.bit_count():
            return m
    return None


def _mask(vertices):
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def scan_find_H_subgraph(G, a, b, u):
    """(X, Y) of the first induced H(a, b) split through u, else None: for
    z = u and then the neighbours of u ascending, every b-subset Y of N(z)
    in lexicographic order; X is every vertex whose neighbourhood is
    exactly Y, u first when it is one of them, cut to a."""
    if a + b > G.n:
        return None
    nbrs_u = [v for v in range(G.n) if G.rows[u] >> v & 1]
    for z in [u] + nbrs_u:
        nbrs = [v for v in range(G.n) if G.rows[z] >> v & 1]
        for ys in combinations(nbrs, b):
            ymask = _mask(ys)
            xs = [v for v in range(G.n) if G.rows[v] == ymask]
            if len(xs) < a or (u not in ys and u not in xs):
                continue
            if u in xs:
                xs.remove(u)
                xs.insert(0, u)
            return set(xs[:a]), set(ys)
    return None


def scan_balanced_split(G, vertices, side):
    """(X, Y) of the first split of exactly ``vertices`` into two sides of
    the given size with every X-vertex seeing exactly Y inside the set,
    X in lexicographic order, else None."""
    verts = sorted(vertices)
    if len(verts) != 2 * side:
        return None
    vsmask = _mask(verts)
    for xs in combinations(verts, side):
        ymask = vsmask & ~_mask(xs)
        if all(G.rows[v] & vsmask == ymask for v in xs):
            return set(xs), set(verts) - set(xs)
    return None


def is_path_of(nbr, seq):
    return all(b in nbr[a] for a, b in zip(seq, seq[1:]))


def reference_is_valid_upath(G, vertices):
    """Whether ``vertices`` is a simple path of G, by the set and
    generator checks ``paths.is_valid_upath`` once made."""
    if not vertices or len(set(vertices)) != len(vertices):
        return False
    if any(not 0 <= v < G.n for v in vertices):
        return False
    return all(G.has_edge(a, b) for a, b in zip(vertices, vertices[1:]))


def brute_upath_counts(G, u, allowed):
    """Entry i is the number of u-paths with i edges using only
    ``allowed`` vertices, by trying every ordering."""
    nbr = adj_sets(G)
    allowed = set(allowed)
    if u not in allowed:
        return [0]
    rest = sorted(allowed - {u})
    return [
        sum(is_path_of(nbr, (u,) + tail) for tail in permutations(rest, r))
        for r in range(len(rest) + 1)
    ]


def brute_reroute_ends(G, P):
    """Ends of spanning anchored paths of the path's vertex set, by trying
    every ordering."""
    nbr = adj_sets(G)
    verts = list(P.vertices)
    u = verts[0]
    ends = set()
    for perm in permutations(verts[1:] if len(verts) > 1 else []):
        seq = (u,) + perm
        if is_path_of(nbr, seq):
            ends.add(seq[-1])
    if len(verts) == 1:
        ends.add(u)
    return ends


def brute_longest_path_len(G, u, avoid=()):
    nbr = adj_sets(G)
    avoid = set(avoid)

    def walk(seq, seen):
        best = len(seq) - 1
        for z in nbr[seq[-1]]:
            if z not in seen and z not in avoid:
                best = max(best, walk(seq + [z], seen | {z}))
        return best

    return walk([u], {u})


def reference_attachment(G, u, w, p_vertices, p):
    """The growth rule's attachment set as a set of ids: the vertices z of
    ``p_vertices`` other than u, adjacent to w, such that G minus {w, z}
    still has a u-path with p edges."""
    nbr = adj_sets(G)
    return {
        z
        for z in p_vertices
        if z != u and z in nbr[w] and brute_longest_path_len(G, u, {w, z}) >= p
    }


def brute_on_every_upath(G, u, allowed, p):
    """The ids on every u-path with p edges using only ``allowed`` vertices,
    or the ``allowed`` set itself when there is no such path; by trying
    every ordering."""
    nbr = adj_sets(G)
    allowed = set(allowed)
    common = set(allowed)
    if u in allowed:
        for tail in permutations(sorted(allowed - {u}), p):
            seq = (u,) + tail
            if is_path_of(nbr, seq):
                common &= set(seq)
    return common


def brute_max_inner_edges(G, u, allowed, p):
    """(most edges inside the vertex set of a u-path with p edges using only
    ``allowed`` vertices, every such path reaching it in lexicographic
    order), or (None, []) when there is no such path; by trying every
    ordering."""
    nbr = adj_sets(G)
    allowed = set(allowed)
    if u not in allowed:
        return None, []
    best, out = None, []
    for tail in permutations(sorted(allowed - {u}), p):
        seq = (u,) + tail
        if not is_path_of(nbr, seq):
            continue
        inner = brute_edge_counts(G, seq)[0]
        if best is None or inner > best:
            best, out = inner, [seq]
        elif inner == best:
            out.append(seq)
    return best, sorted(out)


def brute_second_ends(G, P):
    nbr = adj_sets(G)
    core = list(P.vertices[:-1])
    u = P.vertices[0]
    inside = set()
    for perm in permutations([v for v in core if v != u]):
        seq = (u,) + perm
        if is_path_of(nbr, seq):
            inside.add(seq[-1])
    outside = {
        w
        for w in range(G.n)
        if w not in P.vertices and any(t in nbr[w] for t in inside)
    }
    return outside, inside


def brute_embed_spider(G, legs, center):
    """Spider embedding by raw recursion over neighbour sets; legs is the
    decreasing tuple of leg lengths, centre fixed."""
    nbr = adj_sets(G)

    def place(li, used):
        if li == len(legs):
            return True
        return extend(li, center, legs[li], used)

    def extend(li, at, left, used):
        if left == 0:
            return place(li + 1, used)
        for z in nbr[at]:
            if z not in used:
                if extend(li, z, left - 1, used | {z}):
                    return True
        return False

    return place(0, {center})


def brute_embeds_at(G, T, u):
    """Embeddability with the centre-ambiguity convention for paths: a
    single-leg spider embeds at u when a k-edge path passes through u."""
    if len(T.legs) == 1:
        k = T.k
        for a in range(0, k // 2 + 1):
            legs = tuple(l for l in sorted((k - a, a), reverse=True) if l)
            if brute_embed_spider(G, legs, u):
                return True
        return False
    return brute_embed_spider(G, T.legs, u)


def brute_embeds_anywhere(G, T):
    return any(brute_embed_spider(G, T.legs, c) for c in range(G.n))


def brute_partition_count(k):
    """p(k) by the classic max-part recursion."""

    def count(total, cap):
        if total == 0:
            return 1
        return sum(count(total - first, first) for first in range(min(total, cap), 0, -1))

    return count(k, k)


def brute_whole_graph_splits(G):
    """All (X, Y) whole-graph uniform-neighbourhood splits with X nonempty."""
    nbr = adj_sets(G)
    verts = set(range(G.n))
    out = []
    for r in range(1, G.n + 1):
        for X in combinations(sorted(verts), r):
            Y = verts - set(X)
            if all(nbr[v] == Y for v in X):
                out.append((set(X), Y))
    return out


def brute_canonical_classes(n):
    """Isomorphism classes of n-vertex graphs: canonical key is the minimum
    edge-set encoding over all vertex permutations."""
    pairs = list(combinations(range(n), 2))
    seen = set()
    for m in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if m >> i & 1]
        key = min(
            tuple(sorted((min(p[a], p[b]), max(p[a], p[b])) for a, b in edges))
            for p in permutations(range(n))
        )
        seen.add(key)
    return len(seen)


def _partitions(n, cap):
    """The partitions of n into parts of at most ``cap``, descending."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def polya_counts(n):
    """Isomorphism classes of n-vertex graphs by edge count (index e), by
    Polya's theorem over the cycle index of the pair group: a graph fixed
    by a permutation is a union of its cycles on vertex pairs, so the
    classes with e edges are the average over S_n of the coefficient of x^e
    in prod (1 + x^len) over those cycles.  No canonical form is used."""
    total = [0] * (n * (n - 1) // 2 + 1)
    for parts in _partitions(n, n):
        # the permutations of S_n with this cycle type
        count = factorial(n)
        for k, m in Counter(parts).items():
            count //= k**m * factorial(m)
        lengths = []
        for i, a in enumerate(parts):
            # pairs inside one a-cycle, then pairs across two cycles
            lengths += [a] * ((a - 1) // 2) + [a // 2] * (1 - a % 2)
            for b in parts[i + 1:]:
                lengths += [lcm(a, b)] * gcd(a, b)
        poly = [1]
        for length in lengths:
            poly = [
                c + (poly[e - length] if e >= length else 0)
                for e, c in enumerate(poly + [0] * length)
            ]
        for e, c in enumerate(poly):
            total[e] += count * c
    return [t // factorial(n) for t in total]


def brute_longest_path(G, u, avoid=()):
    """The lexicographically least of the longest u-paths in G minus
    ``avoid``, by trying every ordering (longest first, each length in
    lexicographic order)."""
    nbr = adj_sets(G)
    rest = sorted(set(range(G.n)) - set(avoid) - {u})
    for r in range(len(rest), -1, -1):
        for tail in permutations(rest, r):
            seq = (u,) + tail
            if is_path_of(nbr, seq):
                return seq
    return (u,)


def brute_spanning_path_to(G, verts, u, end):
    """The lexicographically least path from u to ``end`` covering exactly
    ``verts``, or None."""
    nbr = adj_sets(G)
    verts = set(verts)
    if u not in verts or end not in verts:
        return None
    for tail in permutations(sorted(verts - {u})):
        seq = (u,) + tail
        if seq[-1] == end and is_path_of(nbr, seq):
            return seq
    return None


def brute_reroute_last_neighbor(G, P, x):
    """Among the spanning paths from P's anchor over V(P), the
    lexicographically least one whose last position >= 1 adjacent to x is
    as late as possible (-1 when none is); None when V(P) has no such
    path."""
    nbr = adj_sets(G)
    u = P.vertices[0]
    best = best_seq = None
    for tail in permutations(sorted(set(P.vertices) - {u})):
        seq = (u,) + tail
        if not is_path_of(nbr, seq):
            continue
        last = max((i for i in range(1, len(seq)) if seq[i] in nbr[x]), default=-1)
        if best is None or last > best:
            best, best_seq = last, seq
    return best_seq


def brute_prefix_states(G, u, allowed, longest=None):
    """Number of distinct (vertex set, last vertex) pairs over the u-paths
    using only ``allowed`` vertices with at most ``longest`` edges (no bound
    when None), the one-vertex path (u,) included."""
    nbr = adj_sets(G)
    rest = sorted(set(allowed) - {u})
    states = set()
    top = len(rest) if longest is None else min(len(rest), longest)
    for r in range(top + 1):
        for tail in permutations(rest, r):
            seq = (u,) + tail
            if is_path_of(nbr, seq):
                states.add((frozenset(seq), seq[-1]))
    return len(states)


def _row_ids(row):
    return [v for v in range(row.bit_length()) if row >> v & 1]


def reference_refined_cells(G):
    """Stable colour refinement from degrees, by sorting each vertex's
    neighbour colours one by one; cells in invariant order."""
    color = [G.degree(v) for v in range(G.n)]
    while True:
        sigs = [
            (color[v], tuple(sorted(color[w] for w in _row_ids(G.rows[v]))))
            for v in range(G.n)
        ]
        palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [palette[s] for s in sigs]
        if new == color:
            break
        color = new
    cells = {}
    for v in range(G.n):
        cells.setdefault(color[v], []).append(v)
    return [cells[c] for c in sorted(cells)]


def reference_canonical_key(G):
    """Lex-least row-by-row lower-triangle encoding over orderings that
    respect the refined partition: every such ordering is tried, dropping a
    prefix only when it is larger than the best key's prefix."""
    n = G.n
    cells = reference_refined_cells(G)
    pos_cell = []
    for idx, cell in enumerate(cells):
        pos_cell.extend([idx] * len(cell))
    best = None
    placed = []
    rowbits = []

    def rec(t):
        nonlocal best
        if t == n:
            if best is None or rowbits < best:
                best = rowbits.copy()
            return
        for v in cells[pos_cell[t]]:
            if v in placed:
                continue
            row = 0
            for i, q in enumerate(placed):
                if G.rows[v] >> q & 1:
                    row |= 1 << i
            rowbits.append(row)
            if best is None or rowbits <= best[: t + 1]:
                placed.append(v)
                rec(t + 1)
                placed.pop()
            rowbits.pop()

    rec(0)
    return tuple(best)


def reference_from_key(key):
    return Graph.from_edges(
        len(key), [(i, j) for j, row in enumerate(key) for i in _row_ids(row)]
    )


def reference_extensions(H):
    """H plus one new vertex, for every neighbourhood of the new vertex."""
    n = H.n + 1
    for nbrs in range(1 << H.n):
        rows = [r | (1 << H.n if nbrs >> v & 1 else 0) for v, r in enumerate(H.rows)]
        yield Graph(n, tuple(rows) + (nbrs,))


def reference_enumerate_graphs(n, _cache={}):
    """One representative per isomorphism class on n vertices, sorted by
    graph6: every class on n - 1 vertices extended in every way, deduplicated
    by ``reference_canonical_key``."""
    if n not in _cache:
        if n == 1:
            _cache[n] = [Graph(1, (0,))]
        else:
            reps = {}
            for H in reference_enumerate_graphs(n - 1):
                for G in reference_extensions(H):
                    key = reference_canonical_key(G)
                    if key not in reps:
                        reps[key] = reference_from_key(key)
            _cache[n] = sorted(reps.values(), key=lambda g: g.to_graph6())
    return _cache[n]


def reference_embed_search(G, legs, center, budget):
    """Backtracking over legs (longest first, neighbours ascending); the
    first embedding, legs in ``legs`` order, or None.  Raises
    CapabilityError via the budget."""
    done = []
    used = bit(center)

    def place(li):
        nonlocal used
        if li == len(legs):
            return Embedding(center, tuple(UPath(p) for p in done))
        remaining = sum(legs[li:])
        if (G.full_mask & ~used).bit_count() < remaining:
            return None
        floor = -1
        if li and legs[li] == legs[li - 1]:
            floor = done[li - 1][1]  # same-length legs: break the swap symmetry
        for z in bits_of(G.rows[center] & ~used):
            if z <= floor:
                continue
            budget.spend()
            used |= bit(z)
            got = walk(li, [center, z], legs[li] - 1)
            used &= ~bit(z)
            if got is not None:
                return got
        return None

    def walk(li, path, left):
        nonlocal used
        if left == 0:
            done.append(tuple(path))
            got = place(li + 1)
            done.pop()
            return got
        for z in bits_of(G.rows[path[-1]] & ~used):
            budget.spend()
            used |= bit(z)
            path.append(z)
            got = walk(li, path, left - 1)
            path.pop()
            used &= ~bit(z)
            if got is not None:
                return got
        return None

    return place(0)


def reference_verify_embedding(G, T, emb):
    """Leg lengths against T (one or two legs summing to k for a one-leg
    spider), then each leg anchored at the centre, a path of G, and off the
    vertices of the legs before it."""
    if not 0 <= emb.center < G.n:
        return False
    if len(T.legs) == 1:
        lengths = sorted((l.length for l in emb.legs), reverse=True)
        if not 1 <= len(lengths) <= 2 or sum(lengths) != T.k or min(lengths) < 1:
            return False
    else:
        if len(emb.legs) != len(T.legs):
            return False
        if tuple(l.length for l in emb.legs) != T.legs:
            return False
    seen = bit(emb.center)
    for leg in emb.legs:
        if leg.anchor != emb.center:
            return False
        if not is_valid_upath(G, leg.vertices):
            return False
        body = leg.mask() & ~bit(emb.center)
        if body & seen:
            return False
        seen |= body
    return seen.bit_count() == T.k + 1


def reference_case_b_holds(inst, cert):
    """Case B of a valid growth-rule instance, as the witness check once
    stated it, with the p-even condition added: surplus 0, p even, a
    one-edge probe for rules 3, 5 and 6, and ``cert`` a split with both
    sides of p/2 + 1 vertices, inside V(P)+x (V(P)+{x,v} for rule 5), where
    every X-vertex sees exactly Y."""
    p = len(inst.p_path.vertices) - 1
    if cert is None or inst.surplus2 != 0 or p % 2:
        return False
    if inst.lemma in (3, 5, 6) and len(inst.q_path.vertices) != 2:
        return False
    X, Y = set(cert.x_side), set(cert.y_side)
    if len(X) != p // 2 + 1 or len(Y) != p // 2 + 1 or X & Y:
        return False
    pool = set(inst.p_path.vertices) | {inst.x}
    if inst.lemma == 5:
        pool.add(inst.v)
    if not X | Y <= pool:
        return False
    nbr = adj_sets(inst.graph)
    return all(nbr[v] & (X | Y) == Y for v in X)


def reference_case_a_holds(inst):
    """Case A of a valid growth-rule instance, as the witness check once
    stated it, over adjacency sets; L is V(P) less the anchor.  Rule 6
    reroutes P by ``brute_reroute_last_neighbor`` and reads the gap
    patterns of N(w) in L along it."""
    if inst.surplus2 != 0:
        return False
    nbr = adj_sets(inst.graph)
    L = set(inst.p_path.vertices[1:])
    p = len(L)

    def e(v):
        return len(nbr[v] & L)

    x = inst.x
    if inst.lemma == 3:
        return e(inst.w1) + e(inst.w2) == 0
    if inst.lemma == 4:
        return (e(x) < e(inst.w1) == e(inst.w2)) or e(x) == p
    if inst.lemma == 5:
        return L <= nbr[x] and not (nbr[inst.v] | nbr[inst.w]) & L
    vs = brute_reroute_last_neighbor(inst.graph, inst.p_path, x)
    if vs[-1] not in nbr[x]:
        return False
    q = len(inst.q_path.vertices) - 1
    # shift-down: drop the successors of x's neighbours and the probe prefix
    down = {vs[i] for i in range(1, p + 1) if i <= q or vs[i - 1] in nbr[x]}
    # shift-up: keep the vertices whose successor misses x
    up = {vs[i] for i in range(1, p) if vs[i + 1] not in nbr[x]}
    w = inst.w
    if nbr[w] & L not in (L - down, up):
        return False
    return e(w) == 0 or any(
        vs[i] in nbr[w] and vs[i + 1] in nbr[w] for i in range(p)
    )


def _upath_walk(nbr, path, left, allowed, used, budget):
    """Every extension of ``path`` by ``left`` vertices of ``allowed`` off
    ``used``, in lexicographic order; one node of ``budget`` per vertex
    placed, as ``paths.iter_upaths`` charges."""
    if not left:
        yield tuple(path)
        return
    for z in sorted(nbr[path[-1]] & allowed - used):
        budget.spend()
        path.append(z)
        yield from _upath_walk(nbr, path, left - 1, allowed, used | {z}, budget)
        path.pop()


def reference_first_upath(G, u, allowed, p, budget):
    """The first u-path with p edges inside ``allowed`` in lexicographic
    order, or None: rule 6's two-vertex companion search."""
    return next(_upath_walk(adj_sets(G), [u], p, set(allowed), {u}, budget), None)


def reference_path_pair(G, u, short, long_, budget):
    """Rule 4's case-C search by nested walks: the first u-path a with
    ``short`` edges, in lexicographic order, beside which some u-path b
    with ``long_`` edges shares only u, then the first such b; (a, b), or
    None when there is no pair."""
    nbr, everything = adj_sets(G), set(range(G.n))
    for a in _upath_walk(nbr, [u], short, everything, {u}, budget):
        b = next(_upath_walk(nbr, [u], long_, everything, set(a), budget), None)
        if b is not None:
            return a, b
    return None


def reference_paths2_through(G, w):
    """Every 3-vertex path through w, each once and sorted: w-ended ones
    written from w, w-middle ones from their smaller end."""
    nbr = adj_sets(G)
    out = {(w, b, c) for b in nbr[w] for c in nbr[b] if c != w}
    out |= {(a, w, c) for a, c in combinations(sorted(nbr[w]), 2)}
    return sorted(out)


def reference_to_graph6(n, rows):
    """graph6 of the rows, one upper-triangle bit at a time in column order."""
    chunks = [chr(n + 63)] if n <= 62 else ["~"] + [
        chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0)
    ]
    acc = nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | ((rows[i] >> j) & 1)
            nbits += 1
            if nbits == 6:
                chunks.append(chr(acc + 63))
                acc = nbits = 0
    if nbits:
        chunks.append(chr((acc << (6 - nbits)) + 63))
    return "".join(chunks)


def reference_from_graph6(text):
    """(n, rows) of a graph6 string, read one bit at a time, with the
    library's checks and error texts in the library's order."""
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
    if not 1 <= n <= 128:
        raise InputError(f"graph6 vertex count {n} outside 1..128")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise InputError(
            f"graph6 body length {len(body)} does not match n={n} (need {need})"
        )
    rows = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if (body[pos // 6] >> (5 - pos % 6)) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos += 1
    tail = need * 6 - pos
    if tail and body[-1] & ((1 << tail) - 1):
        raise InputError("graph6 padding bits must be zero")
    return n, tuple(rows)


def reference_is_symmetric(rows):
    """None when every edge (v, w) of the rows has its mirror (w, v), else
    the first (v, w) without one, in row order: the pair the constructor's
    error text names."""
    for v, row in enumerate(rows):
        for w in range(row.bit_length()):
            if row >> w & 1 and not rows[w] >> v & 1:
                return v, w
    return None


def reference_violator_search(G, k):
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
    """
    n = G.n
    s, t = n, n + 1
    base = [[0] * (n + 2) for _ in range(n + 2)]
    adj = []
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

    def violator(inside, outside):
        cap = [row[:] for row in base]
        for v in bits_of(inside):
            cap[s][v] += limit
        for v in bits_of(outside):
            cap[v][t] += limit
        reached = _reference_max_flow(cap, adj, s, t, limit)
        return None if reached is None else reached & ~bit(s)

    return violator


def _reference_max_flow(cap, adj, s, t, limit):
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

        def push(u, room):
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
