"""Spider embedding: oracle, embed-or-certify, and the density pipeline.

``embed_bruteforce`` is the independent oracle: deterministic backtracking
over legs, longest leg first, neighbours in ascending order.

``embed_constructive`` grows the spider the way the supporting machinery
suggests: strip a leaf off the longest leg, take the oracle's embedding of
the smaller spider at the centre (none: the guided phase abstains), find
the probe end x of a longest path off it, and try the extension moves on
its first stub (a leg of the stripped length, or the bare centre), with
the stub's least second end off the embedding and x (else its least
inside second end) as the swap anchor.  Guided moves are verify-or-skip:
when they all fail the bounded exhaustive oracle decides, so correctness
never depends on the heuristic phase.  Each call decides its spider once
and keeps no outcome memo.  A certificate is emitted only after the oracle
has confirmed the spider does not embed at the requested centre, and every
certificate is verified before it is returned; ``whole_split`` and
``local_split`` state the two certificate shapes.

``theorem2_check`` is the density pipeline: while some vertex set violates
the per-subset condition, delete it (the edge identity e(G-S) =
e(G) - d(S) - e(S) keeps density intact), then embed every spider with k
edges at a max-degree vertex, converting certificates into embeddings
inside the certified split.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from .errors import Budget, CapabilityError, InputError, SoundnessError, search_budget
from .graphs import (
    Graph,
    HCertificate,
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
    absorb,
    is_absorbable,
    is_valid_upath,
    longest_u_path,
    reroute_ends,
    reroute_path_to,
    second_ends,
    spanning_path_to,
)
from .report import Report
from .spiders import Spider, enumerate_spiders, in_T0_family, strip_leaf, t0

EMBED_DEFAULT_BUDGET = 2_000_000


@dataclass(frozen=True)
class Embedding:
    center: int
    legs: tuple[UPath, ...]

    def vertex_mask(self) -> int:
        m = bit(self.center)
        for leg in self.legs:
            m |= leg.mask()
        return m

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
    with positive lengths summing to k are accepted in that case.
    """
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


# -- oracle -------------------------------------------------------------------


def _embed_search(
    G: Graph,
    legs: tuple[int, ...],
    center: int,
    budget: Budget,
) -> Optional[Embedding]:
    """Backtracking over legs (longest first, neighbours ascending); the
    first embedding, legs in ``legs`` order, or None.  Raises
    CapabilityError via the budget."""
    done: list[tuple[int, ...]] = []
    used = bit(center)

    def place(li: int) -> Optional[Embedding]:
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

    def walk(li: int, path: list[int], left: int) -> Optional[Embedding]:
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


def _path_splits(k: int) -> list[tuple[int, ...]]:
    """Leg multisets realizing a k-edge path through a designated vertex:
    the vertex at an end first, then successively more central splits."""
    out: list[tuple[int, ...]] = [(k,)]
    for a in range(1, k // 2 + 1):
        out.append((k - a, a))
    return out


def embed_bruteforce(
    G: Graph, T: Spider, u: Optional[int] = None
) -> Optional[Embedding]:
    """First embedding in deterministic order, centred at u if given, else at
    the smallest workable centre; None when none exists.

    At a designated centre, a single-leg spider embeds as a k-edge path
    through u (the centre of a path is any of its vertices), so each split
    of the path at u is tried in turn.
    """
    if T.k < 1:
        raise InputError("spider must have at least one edge")
    if T.k + 1 > G.n:
        return None
    budget = Budget(search_budget(EMBED_DEFAULT_BUDGET), "embedding oracle")
    if u is not None and len(T.legs) == 1:
        if not 0 <= u < G.n:
            raise InputError("centre out of range")
        for legs in _path_splits(T.k):
            if G.degree(u) < len(legs):
                continue
            got = _embed_search(G, legs, u, budget)
            if got is not None:
                return got
        return None
    centers = [u] if u is not None else list(range(G.n))
    for c in centers:
        if not 0 <= c < G.n:
            raise InputError("centre out of range")
        if G.degree(c) < len(T.legs):
            continue
        got = _embed_search(G, T.legs, c, budget)
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

    Requires d(u) >= k.  The per-subset condition is consulted only if
    certification fails: a host that violates it and admits no certificate
    is reported as an input error naming the violating set, never as a
    silent wrong answer.
    """
    if not 0 <= u < G.n:
        raise InputError("centre out of range")
    if T.k < 1:
        raise InputError("spider must have at least one edge")
    if G.degree(u) < T.k:
        raise InputError(
            f"centre degree {G.degree(u)} below the spider size {T.k}"
        )
    # single-leg spiders go straight to the split-aware exhaustive oracle;
    # a guided phase that cannot finish abstains and the oracle decides, but
    # a SoundnessError (a broken contract) always surfaces
    emb = None
    if len(T.legs) >= 2:
        try:
            emb = _guided(G, T, u)
        except (InputError, CapabilityError):
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
    cert = recognize_H(G)
    if (
        cert is not None
        and cert.b == k // 2
        and cert.a == G.n - k // 2
        and verify_H_certificate(G, cert)
    ):
        return cert
    return None


def local_split(G: Graph, k: int, u: int) -> Optional[HCertificate]:
    """A verified (k/2 + 1, k/2) split through u, or None."""
    cert = find_H_subgraph(G, k // 2 + 1, k // 2, u)
    return cert if cert is not None and verify_H_certificate(G, cert) else None


def _certify(G: Graph, T: Spider, u: int) -> EmbedOutcome:
    k = T.k
    if in_T0_family(T):
        is_t0 = T == t0(k)
        for kind in ("local", "whole-graph") if is_t0 else ("whole-graph", "local"):
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
    # The oracle's embedding of the smaller spider, then one extension of its
    # first stub (a leg of the stripped length, or the bare centre) with the
    # probe end x off the embedding and, on a stub, its least second end w.
    Tp = strip_leaf(T, 0)
    budget = Budget(search_budget(EMBED_DEFAULT_BUDGET), "embedding oracle")
    emb = _embed_search(G, Tp.legs, u, budget)
    if emb is None:
        return None
    vmask = emb.vertex_mask()
    Q = longest_u_path(G, u, avoid=vmask & ~bit(u))
    if Q.length < 1:
        return None
    x = Q.end
    if T.legs[0] == 1:
        return _extend(G, T, u, emb, None, x, None)
    idx = Tp.legs.index(T.legs[0] - 1)
    stub = emb.legs[idx]
    outside, inside = second_ends(G, stub)
    wmask = mask_of(outside) & ~(vmask | bit(x)) or mask_of(inside)
    w = (wmask & -wmask).bit_length() - 1
    return _extend(G, T, u, emb, idx, x, w)


def _extend(
    G: Graph,
    T: Spider,
    u: int,
    e: Embedding,
    idx: Optional[int],
    x: int,
    w: Optional[int],
) -> Optional[Embedding]:
    stub = e.legs[idx] if idx is not None else UPath((u,))
    others = [leg for j, leg in enumerate(e.legs) if j != idx]
    emb_mask = e.vertex_mask()
    free = G.full_mask & ~emb_mask

    def assemble(new_legs: list[UPath]) -> Optional[Embedding]:
        ordered = sorted(new_legs, key=lambda l: (-l.length, l.vertices))
        cand = Embedding(u, tuple(ordered))
        return cand if verify_embedding(G, T, cand) else None

    # direct end extension
    ext = G.rows[stub.end] & free
    if ext:
        z = (ext & -ext).bit_length() - 1
        got = assemble(others + [UPath(stub.vertices + (z,))])
        if got:
            return got
    # absorb the probe end
    if stub.length >= 1 and is_absorbable(G, stub, x):
        got = assemble(others + [absorb(G, stub, x)])
        if got:
            return got
    # reroute the stub, then extend
    if 1 <= stub.length and len(stub.vertices) <= EXACT_REROUTE_CAP:
        for v2 in sorted(reroute_ends(G, stub)):
            if not G.rows[v2] & free:
                continue
            rerouted = reroute_path_to(G, stub, v2)
            if rerouted is None:
                continue
            z = (G.rows[v2] & free & -(G.rows[v2] & free)).bit_length() - 1
            got = assemble(others + [UPath(rerouted.vertices + (z,))])
            if got:
                return got
    # swap a sibling leg through x (and w if it sits off the embedding),
    # freeing a neighbour z of the stub's reachable ends
    w_out = w is not None and not bit(w) & emb_mask
    anchors: list[tuple[int, Optional[UPath]]] = [(stub.end, None)]
    if w_out and stub.length >= 1:
        core = (stub.mask() & ~bit(stub.end)) | bit(w)
        wpath = spanning_path_to(G, core, u, w)
        if wpath is not None:
            anchors.append((w, wpath))
    extra = bit(x) | (bit(w) if w_out else 0)
    for j, leg in enumerate(others):
        for y, repath in anchors:
            for z in sorted(bits_of(G.rows[y] & leg.mask() & ~bit(u))):
                allowed = (leg.mask() | extra) & ~bit(z)
                try:
                    lp = longest_u_path(G, u, avoid=G.full_mask & ~allowed)
                except CapabilityError:
                    continue
                if lp.length < leg.length:
                    continue
                newleg = UPath(lp.vertices[: leg.length + 1])
                base = repath if repath is not None else stub
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
        if 2 * H2.edge_count() <= (k - 1) * H2.n:
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
