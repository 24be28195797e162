"""Spider embedding: oracle, embed-or-certify, and the density pipeline.

``embed_bruteforce`` is the independent oracle: one deterministic depth-first
search (``place_legs``) over the k vertices a spider places beside its
centre, leg by leg (longest leg first), each leg from the centre outward, and
candidates in ascending order.  Every placed vertex is one node of the search
budget.  The free-vertex prune (k + 1 <= n) costs no node, and a leg as long
as the one before it starts above that leg's first vertex, so equal legs are
not tried in both orders.  The placement is the embedding: its centre, leg
lengths and one flat tuple of the placed vertices, unchecked; its legs are
cut into ``UPath``s only when read, and ``verify_embedding`` checks the flat
placement itself.  Growth rules 4 and 6 ask the same search for their first
disjoint paths inside an allowed vertex set.

``embed_constructive`` grows the spider the way the supporting machinery
suggests: strip a leaf off the longest leg, take the oracle's placement of
the smaller spider at the centre (none: the guided phase abstains), and try
the extension moves on its first stub (a leg of the stripped length, or the
bare centre) in turn.  The direct move extends the placement itself: the
stub's end gains its least free neighbour, and the flat placement built is
checked once, by ``embed_constructive``'s own verification, so a broken
direct move is a SoundnessError.  Only when it has no free neighbour are the
stripped spider's legs cut from its placement and the probe end x of a
longest path off them found; the stub's least second end off the embedding
and x (else its least inside second end), a swap anchor, is searched for
only when the swap is tried.  Absorb, reroute and swap are verify-or-skip:
when they all fail, or a search in them trips a cap or budget, the bounded
exhaustive oracle decides, so correctness never depends on the heuristic
phase.  Each call decides its spider once and keeps no outcome memo.  A
certificate is emitted only after the oracle has confirmed the spider does
not embed at the requested centre, and is verified before it is returned:
``whole_split`` (the whole graph, for any all-even spider) or, tried first
and for the all-twos spider T0 only, ``local_split`` through the centre.

``theorem2_check`` is the density pipeline: while some vertex set violates
the per-subset condition, delete it (the edge identity e(G-S) =
e(G) - d(S) - e(S) keeps density intact), then embed every spider with k
edges at a max-degree vertex, converting certificates into embeddings
inside the certified split.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .errors import Budget, CapabilityError, InputError, SoundnessError, search_budget
from .graphs import (
    MAX_VERTICES,
    Graph,
    HCertificate,
    _check_k,
    _checked_vertex,
    bit,
    bits_of,
    edge_counts,
    find_H_subgraph,
    heavy_vertex,
    mask_of,
    recognize_H,
    satisfies_density,
    satisfies_local_condition,
    twin_classes,
    verify_H_certificate,
)
from .paths import (
    EXACT_REROUTE_CAP,
    UPath,
    _absorbing_edge,
    _spanning_path,
    is_absorbable,
    longest_u_path,
    reroute_ends,
    second_ends,
)
from .report import Report
from .spiders import Spider, enumerate_spiders, in_T0_family, t0

EMBED_DEFAULT_BUDGET = 2_000_000


@dataclass(frozen=True, init=False)
class Embedding:
    """A spider embedding as a placement: the centre, each leg's first
    vertex, the leg lengths and one flat tuple of the vertices after each
    leg's first, leg by leg.  Equality reads these; ``legs``, as ``UPath``s
    (which hash and repr read), is cut from them on first read and kept.
    ``Embedding._placed`` skips the checks, only for the library's own
    placements."""

    center: int
    _firsts: tuple[int, ...]
    _lengths: tuple[int, ...]
    _flat: tuple[int, ...]
    _legs = None  # the cut legs once read: every cut is equal, so no lock

    def __init__(self, center: int, legs: Iterable):
        if type(center) is not int:  # a float or a bool is no vertex id
            raise InputError("embedding centre must be an integer id")
        # e.g. list legs or vertex lists: keep it hashable and verifiable
        try:
            legs = tuple(l if isinstance(l, UPath) else UPath(l) for l in legs)
        except TypeError:  # e.g. a bare path in place of the legs
            raise InputError("embedding legs must be an iterable of paths") from None
        self.__dict__.update(  # frozen: the fields are written directly
            center=center,
            _firsts=tuple(l.vertices[0] for l in legs),
            _lengths=tuple(l.length for l in legs),
            _flat=tuple(v for l in legs for v in l.vertices[1:]),
            _legs=legs,
        )

    @classmethod
    def _placed(cls, center: int, firsts: tuple, lengths: tuple, flat: tuple) -> Embedding:
        emb = object.__new__(cls)
        emb.__dict__.update(center=center, _firsts=firsts, _lengths=lengths, _flat=flat)
        return emb

    @property
    def legs(self) -> tuple[UPath, ...]:
        legs = self._legs
        if legs is None:
            legs = tuple(_placed_legs(self._firsts, self._lengths, self._flat))
            self.__dict__["_legs"] = legs
        return legs

    def __hash__(self) -> int:
        return hash((self.center, self.legs))

    def __repr__(self) -> str:
        return f"Embedding(center={self.center!r}, legs={self.legs!r})"

    def to_json(self) -> dict:
        return {"center": self.center, "legs": [l.to_json() for l in self.legs]}


@dataclass(frozen=True)
class EmbedOutcome:
    embedding: Optional[Embedding] = None
    certificate: Optional[HCertificate] = None
    kind: Optional[str] = None  # "whole-graph" | "local"
    spider_is_t0: Optional[bool] = None
    detail: dict = field(default_factory=dict)

    @property
    def embedded(self) -> bool:
        return self.embedding is not None

    def to_json(self) -> dict:
        if self.embedded:
            out = {"outcome": "embedded"}
            out.update(self.embedding.to_json())
            return out
        return {
            "outcome": "certified",
            "kind": self.kind,
            "x": sorted(self.certificate.x_side),
            "y": sorted(self.certificate.y_side),
            "spider_is_t0": self.spider_is_t0,
            "detail": self.detail,
        }


def verify_embedding(G: Graph, T: Spider, emb: Embedding) -> bool:
    """All structural invariants, from scratch: leg lengths match T, every
    leg is a path of G anchored at the centre, legs share only the centre.

    A single-leg spider is a path and its centre designation is ambiguous,
    so the centre may sit anywhere on the realized path: one or two legs
    with positive lengths summing to k are accepted in that case.  After
    the lengths, one pass over the placement reads each leg's first vertex
    (the centre) and then its stretch of the flat tuple, checking each
    vertex for range, for repeats (against every vertex seen so far) and
    for an edge to its predecessor; no ``UPath`` is read.
    """
    n, rows, center = G.n, G.rows, emb.center
    if not 0 <= center < n:
        return False
    lengths = emb._lengths
    if len(T.legs) == 1:
        if not 1 <= len(lengths) <= 2 or sum(lengths) != T.k or min(lengths) < 1:
            return False
    elif lengths != T.legs:
        return False
    flat = emb._flat
    seen = 1 << center
    s = 0
    for first, ell in zip(emb._firsts, lengths):
        if first != center:
            return False
        prev = rows[center]
        for v in flat[s : s + ell]:
            if not 0 <= v < n:
                return False
            b = 1 << v
            if seen & b or not prev & b:
                return False
            seen |= b
            prev = rows[v]
        s += ell
    return seen.bit_count() == T.k + 1


# -- oracle -------------------------------------------------------------------


def place_legs(
    G: Graph, legs: tuple[int, ...], center: int, allowed: int, budget: Budget
) -> Optional[list[int]]:
    """The k > 0 vertices of the first placement of ``legs`` at ``center``
    inside ``allowed`` (the centre need not be in it), or None.

    One depth-first search over the k placement positions: leg by leg in
    ``legs`` order, each leg vertex by vertex from the centre, candidates
    ascending.  Each placed vertex costs one node of ``budget``: nodes are
    counted locally and charged once on return, or at once at the node that
    crosses the limit, which raises CapabilityError as ``spend`` does.  A leg
    as long as the one before it starts above that leg's first vertex,
    which breaks the swap symmetry of equal legs.  The oracle checks that
    the k placed vertices fit beside the centre (k + 1 <= n).
    """
    k = sum(legs)
    rows = G.rows
    floor = _floors(legs)
    seq = [0] * k
    cand = [0] * k
    free = allowed & ~(1 << center)
    cand[0] = rows[center] & free
    room = budget.limit - budget.used
    nodes = 0
    j = 0
    while True:
        c = cand[j]
        if not c:
            j -= 1
            if j < 0:
                budget.spend(nodes)
                return None
            free |= 1 << seq[j]
            continue
        low = c & -c
        cand[j] = c ^ low
        nodes += 1
        if nodes > room:
            budget.spend(nodes)
        free ^= low
        z = seq[j] = low.bit_length() - 1
        j += 1
        if j == k:
            budget.spend(nodes)
            return seq
        f = floor[j]
        if f is None:
            cand[j] = rows[z] & free
        elif f < 0:
            cand[j] = rows[center] & free
        else:
            cand[j] = rows[center] & free & -(2 << seq[f])


@lru_cache(maxsize=512)
def _floors(legs: tuple[int, ...]) -> tuple[Optional[int], ...]:
    """Per placement position: None inside a leg; at a leg start, the
    position of the previous leg's first vertex when the two legs are
    equally long, else -1.  Cached per leg tuple: the 372 spiders with
    k <= 13 fit, and every path split is one of them."""
    floor: list[Optional[int]] = [None] * sum(legs)
    j = prev = 0
    for ell in legs:
        floor[j] = j - prev if ell == prev else -1
        j += ell
        prev = ell
    return tuple(floor)


def _placed_legs(firsts: tuple, lengths: tuple, flat: Sequence[int]) -> list[UPath]:
    """A placement cut into its legs, each written from its first vertex,
    in one pass and unchecked: placements hold distinct vertices."""
    out, s = [], 0
    for first, ell in zip(firsts, lengths):
        part = flat[s : s + ell]
        m = 1 << first
        for v in part:
            m |= 1 << v
        out.append(UPath._of((first, *part), m))
        s += ell
    return out


def _embed_search(
    G: Graph, legs: tuple[int, ...], center: int, budget: Budget
) -> Optional[Embedding]:
    """The first embedding, legs in ``legs`` order, or None: the placement
    search's vertices as one flat placement."""
    seq = place_legs(G, legs, center, G.full_mask, budget)
    if seq is None:
        return None
    return Embedding._placed(center, (center,) * len(legs), legs, tuple(seq))


@lru_cache(maxsize=MAX_VERTICES)
def _path_splits(k: int) -> tuple[tuple[int, ...], ...]:
    """Leg multisets realizing a k-edge path through a designated vertex:
    the vertex at an end first, then successively more central splits.
    Cached per k; a path has fewer than MAX_VERTICES edges."""
    return ((k,), *((k - a, a) for a in range(1, k // 2 + 1)))


def embed_bruteforce(
    G: Graph, T: Spider, u: Optional[int] = None
) -> Optional[Embedding]:
    """First embedding in deterministic order, centred at u if given, else at
    the smallest workable centre; None when none exists.

    One loop: centres (u, else every vertex), then leg splits.  A one-leg
    spider at a given u embeds as a k-edge path through u (the centre of a
    path is any of its vertices), so each split of it at u is tried in turn.
    The free-vertex prune (k + 1 <= n) comes before any split is listed.
    """
    if u is not None:
        _checked_vertex(G, u, "centre")
    if T.k < 1:
        raise InputError("spider must have at least one edge")
    budget = Budget(search_budget(EMBED_DEFAULT_BUDGET), "embedding oracle")
    if T.k + 1 > G.n:
        return None
    splits = _path_splits(T.k) if u is not None and len(T.legs) == 1 else [T.legs]
    rows = G.rows
    for c in range(G.n) if u is None else (u,):
        for legs in splits:
            if rows[c].bit_count() < len(legs):
                continue
            got = _embed_search(G, legs, c, budget)
            if got is not None:
                return got
    return None


# -- certificate-side embedding -------------------------------------------------


def embed_into_H(cert: HCertificate, T: Spider, u: int) -> Optional[Embedding]:
    """Embed an all-even spider inside a certified split, centred at u in X.

    Legs alternate Y,X,... from the centre, consuming l/2 vertices of each
    side, so only the X-Y edges every certificate guarantees are used.
    Returns None when u sits in Y or either side is too small.
    """
    if not T.legs or not in_T0_family(T):
        raise InputError("only all-even spiders embed alternately in a split")
    if cert.x_side & cert.y_side:
        raise InputError("malformed certificate: overlapping sides")
    if type(u) is not int:  # 1.0 == True == 1 would pass the membership tests
        raise InputError("centre must be an integer id")
    if u not in cert.x_side and u not in cert.y_side:
        raise InputError("centre lies outside the certified split")
    if u not in cert.x_side:
        return None
    half = T.k // 2
    ys = sorted(cert.y_side)
    xs = sorted(cert.x_side - {u})
    if len(ys) < half or len(xs) < half:
        return None
    iy = ix = 0
    legs = []
    for ell in T.legs:
        seq = [u]
        for _ in range(ell // 2):
            seq.append(ys[iy])
            seq.append(xs[ix])
            iy += 1
            ix += 1
        legs.append(UPath(tuple(seq)))
    return Embedding(u, tuple(legs))


# -- embed-or-certify ------------------------------------------------------------


def embed_constructive(G: Graph, T: Spider, u: int) -> EmbedOutcome:
    """Embedding centred at u, or (for all-even spiders only) a verified
    split certificate once the oracle has confirmed non-embeddability at u.

    Requires d(u) >= k.  The guided phase hands over to the oracle only on
    CapabilityError; its other errors surface.  The per-subset condition is
    consulted only if certification fails: a host that violates it and
    admits no certificate is reported as an input error naming the
    violating set, never as a silent wrong answer.
    """
    _checked_vertex(G, u, "centre")
    if T.k < 1:
        raise InputError("spider must have at least one edge")
    if G.degree(u) < T.k:
        raise InputError(
            f"centre degree {G.degree(u)} below the spider size {T.k}"
        )
    # single-leg spiders go straight to the split-aware exhaustive oracle
    try:
        emb = _guided(G, T, u) if len(T.legs) >= 2 else None
    except CapabilityError:
        emb = None
    if emb is None:
        emb = embed_bruteforce(G, T, u)
    if emb is not None:
        if not verify_embedding(G, T, emb):
            raise SoundnessError(f"embedding failed verification: {emb.to_json()}")
        return EmbedOutcome(embedding=emb)
    return _certify(G, T, u)


def whole_split(G: Graph, k: int) -> Optional[HCertificate]:
    """The whole graph as a verified (n - k/2, k/2) split, or None."""
    _check_k(k)
    cert, half = recognize_H(G), k // 2
    fits = cert is not None and (cert.a, cert.b) == (G.n - half, half)
    return cert if fits and verify_H_certificate(G, cert) else None


def local_split(G: Graph, k: int, u: int) -> Optional[HCertificate]:
    """A verified (k/2 + 1, k/2) split through u, or None."""
    _check_k(k)
    cert = find_H_subgraph(G, k // 2 + 1, k // 2, u)
    return cert if cert is not None and verify_H_certificate(G, cert) else None


def _certify(G: Graph, T: Spider, u: int) -> EmbedOutcome:
    k = T.k
    if in_T0_family(T):
        is_t0 = T == t0(k)
        for kind in ("local", "whole-graph") if is_t0 else ("whole-graph",):
            cert = local_split(G, k, u) if kind == "local" else whole_split(G, k)
            if cert is None:
                continue
            detail = {}
            if kind == "local":
                ymask = mask_of(cert.y_side)
                detail["x_available"] = twin_classes(G, G.full_mask)[ymask].bit_count()
            return EmbedOutcome(
                certificate=cert, kind=kind, spider_is_t0=is_t0, detail=detail
            )
    witness = satisfies_local_condition(G, k)
    if witness is not None:
        raise InputError(
            f"spider {T} does not embed at {u} and no certificate exists; "
            f"the per-subset condition fails at S={sorted(witness)}"
        )
    raise SoundnessError(
        f"dichotomy breached: {T} not embeddable at {u} on "
        f"{G.to_graph6()} with the per-subset condition intact"
    )


def _guided(G: Graph, T: Spider, u: int) -> Optional[Embedding]:
    # The oracle's placement of the smaller spider, then the moves on its
    # first stub in order; x is asked for once the direct move has failed,
    # w just before the swap.  The stripped spider uses at most k - 1 <
    # d(u) neighbours of u, so x is never u and a bare-centre stub extends.
    top = T.legs[0] - 1  # a leaf off the longest leg; a one-edge leg goes
    Tp = tuple(sorted((top, *T.legs[1:]) if top else T.legs[1:], reverse=True))
    budget = Budget(search_budget(EMBED_DEFAULT_BUDGET), "embedding oracle")
    seq = place_legs(G, Tp, u, G.full_mask, budget)
    if seq is None:
        return None
    # the stub is the first leg of the stripped length, or the bare centre
    # after every leg; the legs before it are as long as the grown stub
    idx = Tp.index(top) if top else len(Tp)
    s = idx * (top + 1)
    emb_mask = mask_of(seq) | bit(u)
    free = G.full_mask & ~emb_mask

    # direct end extension, on the placement itself: valid by construction,
    # so its one check is embed_constructive's.  The legs before the stub
    # start in ascending order, so the grown stub goes among them by its
    # first vertex and the legs stay sorted
    ext = G.rows[seq[s + top - 1] if top else u] & free
    if ext:
        grown = seq[s : s + top] + [(ext & -ext).bit_length() - 1]
        at = bisect_left(seq[: s : top + 1], grown[0]) * (top + 1)
        del seq[s : s + top]
        seq[at:at] = grown
        return Embedding._placed(u, (u,) * len(T.legs), T.legs, tuple(seq))
    others = _placed_legs((u,) * len(Tp), Tp, seq)
    stub = others.pop(idx)

    def assemble(new_legs: list[UPath]) -> Optional[Embedding]:
        ordered = sorted(new_legs, key=lambda l: (-l.length, l.vertices))
        cand = Embedding(u, tuple(ordered))
        return cand if verify_embedding(G, T, cand) else None

    x = longest_u_path(G, u, avoid=emb_mask & ~bit(u)).end
    # absorb the probe end: x is off the embedding and the stub's end has
    # no free neighbour (the direct move failed), so x is absorbable only
    # by a splice into the stub's least absorbing edge
    if is_absorbable(G, stub, x):
        i = _absorbing_edge(G.rows[x], stub) + 1
        got = assemble(others + [UPath(stub.vertices[:i] + (x,) + stub.vertices[i:])])
        if got:
            return got
    # reroute the stub, then extend (each reroute end has a spanning path)
    if len(stub.vertices) <= EXACT_REROUTE_CAP:
        for v2 in sorted(reroute_ends(G, stub)):
            if not G.rows[v2] & free:
                continue
            rerouted = _spanning_path(G, stub.mask(), u, v2)
            z = (G.rows[v2] & free & -(G.rows[v2] & free)).bit_length() - 1
            got = assemble(others + [UPath(rerouted.vertices + (z,))])
            if got:
                return got
    # swap a sibling leg through x (and w if it sits off the embedding),
    # freeing a neighbour z of the stub's reachable ends
    anchors = [(stub.end, stub)]  # (an end z may hang from, the path to it)
    extra = bit(x)
    outside, inside = second_ends(G, stub)
    wmask = mask_of(outside) & ~(emb_mask | bit(x)) or mask_of(inside)
    w = (wmask & -wmask).bit_length() - 1
    if not bit(w) & emb_mask:
        extra |= bit(w)
        core = (stub.mask() & ~bit(stub.end)) | bit(w)
        wpath = _spanning_path(G, core, u, w)
        if wpath is not None:
            anchors.append((w, wpath))
    for j, leg in enumerate(others):
        for y, base in anchors:
            for z in bits_of(G.rows[y] & leg.mask() & ~bit(u)):
                allowed = (leg.mask() | extra) & ~bit(z)
                try:
                    lp = longest_u_path(G, u, avoid=G.full_mask & ~allowed)
                except CapabilityError:
                    continue
                if lp.length < leg.length:
                    continue
                newleg = UPath(lp.vertices[: leg.length + 1])
                newstub = UPath(base.vertices + (z,))
                rest = [o for t, o in enumerate(others) if t != j]
                got = assemble(rest + [newleg, newstub])
                if got:
                    return got
    return None


# -- the density pipeline ----------------------------------------------------------


def theorem2_check(G: Graph, k: int) -> Report:
    """Embed every spider with k edges via reduction + embed-or-certify.

    Requires 2e(G) > (k-1)n.  Violating subsets are deleted while they
    exist (each deletion preserves density by the edge identity, checked),
    then every spider is embedded at a maximum-degree vertex of the reduced
    host; certificates are converted to embeddings inside the certified
    split, which always holds one: a verified (k/2 + 1, k/2) or
    (n - k/2, k/2) split has k/2 vertices on each side beyond the centre.
    Every reported embedding is lifted back to the original vertex ids and
    verified there.
    """
    start = time.monotonic()
    if not satisfies_density(G, k):
        raise InputError("density precondition 2e(G) > (k-1)n fails")
    H = G
    mapping = list(range(G.n))
    deletions: list[list[int]] = []
    while True:
        witness = satisfies_local_condition(H, k)
        if witness is None:
            break
        smask = mask_of(witness)
        e_in, d_out = edge_counts(H, smask)
        keep = H.full_mask & ~smask
        if not keep:
            raise SoundnessError("reduction tried to delete every vertex")
        H2, sub = H.induced(keep)
        if H2.edge_count() != H.edge_count() - d_out - e_in:
            raise SoundnessError("edge identity failed during reduction")
        if not satisfies_density(H2, k):
            raise SoundnessError("density lost during reduction")
        deletions.append(sorted(mapping[v] for v in witness))
        mapping = [mapping[i] for i in sub]
        H = H2
    u = heavy_vertex(H, H.full_mask, k)
    if H.degree(u) < k:
        raise SoundnessError("no high-degree centre after reduction")
    embedded = []
    failures = []
    certified = 0
    for T in enumerate_spiders(k):
        out = embed_constructive(H, T, u)
        if out.embedded:
            emb = out.embedding
        else:
            certified += 1
            emb = embed_into_H(out.certificate, T, min(out.certificate.x_side))
        if emb is None or not verify_embedding(H, T, emb):
            failures.append({"spider": T.to_json(), "reason": "no embedding found"})
            continue
        lifted = Embedding(
            mapping[emb.center],
            tuple(UPath(tuple(mapping[v] for v in leg.vertices)) for leg in emb.legs),
        )
        if not verify_embedding(G, T, lifted):
            failures.append({"spider": T.to_json(), "reason": "lift failed"})
            continue
        embedded.append({"spider": T.to_json(), "embedding": lifted.to_json()})
    return Report(
        scope={"graph6": G.to_graph6(), "k": k},
        counts={
            "spiders": len(embedded) + len(failures),
            "embedded": len(embedded),
            "via_certificate": certified,
            "reduction_steps": len(deletions),
        },
        failures=failures,
        timing=time.monotonic() - start,
        notes={"deleted_sets": deletions, "embeddings": embedded},
    )
