"""Independent brute-force oracles used to freeze expected values.

Everything here works from explicit edge lists / adjacency sets with
itertools, deliberately avoiding the library's bitmask machinery, so the
two routes stay independent.  The one exception is
``scan_local_condition``, a subset scan over the adjacency rows that is
fast enough for hosts of up to 16 vertices.
"""

from itertools import combinations, permutations


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


def is_path_of(nbr, seq):
    return all(b in nbr[a] for a, b in zip(seq, seq[1:]))


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


def brute_second_ends(G, P, forbidden=()):
    nbr = adj_sets(G)
    core = list(P.vertices[:-1])
    u = P.vertices[0]
    inside = set()
    for perm in permutations([v for v in core if v != u]):
        seq = (u,) + perm
        if is_path_of(nbr, seq):
            inside.add(seq[-1])
    blocked = set(P.vertices) | set(forbidden)
    outside = {
        w
        for w in range(G.n)
        if w not in blocked and any(t in nbr[w] for t in inside)
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


def brute_prefix_states(G, u, allowed):
    """Number of distinct (vertex set, last vertex) pairs over the u-paths
    using only ``allowed`` vertices, the one-vertex path (u,) included."""
    nbr = adj_sets(G)
    rest = sorted(set(allowed) - {u})
    states = set()
    for r in range(len(rest) + 1):
        for tail in permutations(rest, r):
            seq = (u,) + tail
            if is_path_of(nbr, seq):
                states.add((frozenset(seq), seq[-1]))
    return len(states)
