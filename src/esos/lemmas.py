"""Witness-producing case analyzers for the four path-growth rules.

Each rule takes a structured instance (host graph, anchor u, a length-p
anchored path P whose vertex set carries the maximum number of inner edges
among same-length anchored paths in the stated vertex-deleted graph, a probe
path Q with end x, and named outside vertices) whose doubled surplus is
nonnegative, and guarantees one of three disjuncts:

* C -- explicit replacement paths exist (the productive case);
* B -- a balanced uniform-neighbourhood split covers the stated vertex set;
* A -- a degeneracy: specific attachment counts collapse.

Analyzers decide by verified search in the fixed order C, B, A: each case is
attempted by bounded exhaustive search for its witness, facts for A are
recomputed from the graph, and if nothing matches a SoundnessError is raised
(that must never happen on a valid instance; the test harness enumerates
instances exhaustively at small order to enforce exactly this).

All half-integer bookkeeping is carried doubled: ``surplus2`` is twice the
rule's surplus, so every comparison is exact integer arithmetic.

An instance is validated when it is sampled, by its analyzer and again by
``verify_outcome``, and the builders run the same maximality search while
they make it.  Two pure searches are therefore memoised through
``paths.recall``, each in a memo of ``paths.MEMO_SIZE`` entries:

* the maximality search (``_max_paths``), keyed by (graph, u, allowed set,
  p).  It stores the nodes it spent; a hit charges them to the caller's
  budget, or searches again under it when they do not fit, so a budget
  trips at the same node as without the memo;
* lemma 5's attachment set, keyed by (graph, u, w, V(P), p, node budget of
  each longest-path search).

Longest paths and lemma 6's optimal reroute are memoised in ``esos.paths``.

Neither P nor the stored surplus is part of a key, and every check of
``validate_instance`` still runs on every call.

The rules are numbered 3, 4, 5, 6 on the CLI:

* 3 (``xv1v2``): two excluded vertices w1, w2;
* 4 (``xPQ``):   a detached path Q with ends w1, w2, everything seen by u;
* 5 (``xvw``):   an excluded edge vw, surplus corrected by the reroutable
                 attachment set S of w;
* 6 (``PQw``):   one excluded vertex w, P rerouted so x's last neighbour
                 sits as late as possible.

All four share one shape: delete an excluded set, take a maximizing P of
length p, probe with a path ending at x, and require a nonnegative surplus.
Each rule's hypotheses are stated once:

* ``_excluded`` checks the rule's own fields and returns the excluded set;
  ``validate_instance`` then runs the same maximality, probe and x checks
  for every rule (rule 4's detached path is its excluded set, and x is a
  neighbour of u rather than a probe end);
* ``compute_surplus2`` is the only statement of each surplus;
* ``_probe_end_filter`` decides which x the generators admit: nonnegative
  surplus, and for rule 6, x absorbable to P's optimal reroute.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterator, Optional

from .errors import Budget, CapabilityError, InputError, SoundnessError, search_budget
from .graphs import (
    Graph,
    HCertificate,
    _e_inside_mask,
    bit,
    bits_of,
    e_inside,
    mask_of,
    set_of,
    verify_H_certificate,
)
from .paths import (
    LONGEST_PATH_BUDGET,
    UPath,
    is_absorbable,
    is_strictly_absorbable,
    is_valid_upath,
    iter_upaths,
    iter_upaths_exact,
    first_upath_to,
    longest_u_path,
    recall,
    reroute_maximizing_last_neighbor,
)

LEMMA_IDS = (3, 4, 5, 6)
LEMMA_NAMES = {3: "xv1v2", 4: "xPQ", 5: "xvw", 6: "PQw"}

MAX_INSTANCE_HOST = 12


@dataclass(frozen=True)
class LemmaInstance:
    lemma: int
    graph: Graph
    u: int
    p_path: UPath
    q_path: UPath
    x: Optional[int] = None
    w1: Optional[int] = None
    w2: Optional[int] = None
    v: Optional[int] = None
    w: Optional[int] = None
    surplus2: int = 0

    def to_json(self) -> dict:
        return {
            "lemma": self.lemma,
            "graph6": self.graph.to_graph6(),
            "u": self.u,
            "p_path": self.p_path.to_json(),
            "q_path": self.q_path.to_json(),
            "x": self.x,
            "w1": self.w1,
            "w2": self.w2,
            "v": self.v,
            "w": self.w,
            "lambda_doubled": self.surplus2,
        }


@dataclass(frozen=True)
class CaseOutcome:
    case: str
    facts: dict
    certificate: Optional[HCertificate] = None
    paths: tuple[UPath, ...] = ()
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "facts": self.facts,
            "certificate": self.certificate.to_json() if self.certificate else None,
            "paths": [p.to_json() for p in self.paths],
            "detail": self.detail,
        }


@dataclass
class _Ctx:
    L: int  # mask of V(P-u)
    p: int
    q: int  # probe length (lemma 4: |V(Q)|)
    S: int = 0  # lemma 5 attachment set
    p_prime: Optional[UPath] = None  # lemma 6 optimal reroute


# -- surplus and instance construction ---------------------------------------


def _ev(G: Graph, v: int, mask: int) -> int:
    return (G.rows[v] & mask).bit_count()


_attachment_memo: dict[tuple, tuple] = {}


def _attachment_set(G: Graph, u: int, w: int, p_mask: int, p: int) -> int:
    """Vertices z on P adjacent to w such that deleting {w,z} still leaves an
    anchored path of length p (lemma 5's correction set)."""
    # each longest-path search gets a fresh budget of this size, so a set
    # stored under the same limit is what the searches would return again
    key = (G.rows, u, w, p_mask, p, search_budget(LONGEST_PATH_BUDGET))
    return recall(_attachment_memo, key, None, _attachment, G, u, w, p_mask, p)


def _attachment(G: Graph, u: int, w: int, p_mask: int, p: int) -> int:
    out = 0
    for z in bits_of(G.rows[w] & p_mask):
        if z != u and longest_u_path(G, u, avoid=bit(w) | bit(z)).length >= p:
            out |= bit(z)
    return out


def compute_surplus2(
    lemma: int,
    G: Graph,
    u: int,
    p_path: UPath,
    x: int,
    *,
    w1: Optional[int] = None,
    w2: Optional[int] = None,
    v: Optional[int] = None,
    w: Optional[int] = None,
    attachment: int = 0,
) -> int:
    L = p_path.mask() & ~bit(u)
    p = p_path.length
    if lemma in (3, 4):
        pair = _ev(G, w1, L) + _ev(G, w2, L)
        return 2 * (2 * _ev(G, x, L) + pair - 2 * p)
    if lemma == 5:
        pair = _ev(G, v, L) + _ev(G, w, L)
        return 4 * _ev(G, x, L) + 2 * pair - 4 * p - _ev(G, v, attachment)
    if lemma == 6:
        return 2 * (_ev(G, x, L) + _ev(G, w, L) - p)
    raise InputError(f"unknown lemma id {lemma}")


def make_instance(
    lemma: int,
    G: Graph,
    u: int,
    p_path: UPath,
    q_path: UPath,
    *,
    w1: Optional[int] = None,
    w2: Optional[int] = None,
    v: Optional[int] = None,
    w: Optional[int] = None,
    x: Optional[int] = None,
) -> LemmaInstance:
    """Assemble an instance, deriving x and the doubled surplus."""
    if lemma not in LEMMA_IDS:
        raise InputError(f"unknown lemma id {lemma}")
    if lemma == 4:
        if x is None:
            raise InputError("lemma 4 needs an explicit x")
        w1, w2 = q_path.vertices[0], q_path.vertices[-1]
    else:
        x = q_path.vertices[-1]
    attachment = 0
    if lemma == 5:
        attachment = _attachment_set(G, u, w, p_path.mask(), p_path.length)
    s2 = compute_surplus2(
        lemma, G, u, p_path, x, w1=w1, w2=w2, v=v, w=w, attachment=attachment
    )
    return LemmaInstance(
        lemma=lemma,
        graph=G,
        u=u,
        p_path=p_path,
        q_path=q_path,
        x=x,
        w1=w1,
        w2=w2,
        v=v,
        w=w,
        surplus2=s2,
    )


def _probe_end_filter(
    lemma: int, G: Graph, u: int, P: UPath, **fields
) -> Callable[[int], bool]:
    """Which probe ends x the rule admits with P: a nonnegative surplus, and
    for rule 6, x absorbable to P's optimal reroute.  ``fields`` are the
    rule's named vertices (rule 4: w1, w2, the detached path's ends); x must
    lie off P.  Rule 5's attachment set is computed here, once per P."""
    S = _attachment_set(G, u, fields["w"], P.mask(), P.length) if lemma == 5 else 0

    def admissible(x: int) -> bool:
        if compute_surplus2(lemma, G, u, P, x, attachment=S, **fields) < 0:
            return False
        return lemma != 6 or is_absorbable(
            G, reroute_maximizing_last_neighbor(G, P, x), x
        )

    return admissible


# -- validation ---------------------------------------------------------------

MAXIMALITY_BUDGET = 500_000


_max_memo: dict[tuple, tuple] = {}


def _max_paths(
    G: Graph, u: int, allowed: int, p: int, budget: Budget
) -> tuple[Optional[int], tuple[tuple[int, ...], ...]]:
    """The most inner edges on the vertex set of a u-path with exactly p
    edges inside ``allowed`` (None when there is no such path), and every
    path reaching it, in lexicographic order.  Memoised with the nodes the
    search spent; see the module docstring for how a hit is charged.
    """
    key = (G.rows, u, allowed, p)
    return recall(_max_memo, key, budget, _argmax_paths, G, u, allowed, p, budget)


def _argmax_paths(
    G: Graph, u: int, allowed: int, p: int, budget: Budget
) -> tuple[Optional[int], tuple[tuple[int, ...], ...]]:
    best = None
    out: list[tuple[int, ...]] = []
    for path in iter_upaths_exact(G, u, allowed, p, budget):
        e = _e_inside_mask(G, mask_of(path))
        if best is None or e > best:
            best, out = e, [path]
        elif e == best:
            out.append(path)
    return best, tuple(out)


# What the probe of rules 3, 5 and 6 must avoid besides V(P-u).
_PROBE_AVOIDS = {3: "the excluded pair", 5: "the excluded edge", 6: "w"}


def _excluded(inst: LemmaInstance) -> int:
    """Check the rule's own fields; return the vertices P must avoid (the
    probe too, for rules 3, 5 and 6; rule 4's detached path)."""
    G, u, Q = inst.graph, inst.u, inst.q_path
    if inst.lemma == 3:
        w1, w2 = inst.w1, inst.w2
        if w1 is None or w2 is None or len({u, w1, w2}) != 3:
            raise InputError("lemma 3 needs distinct u, w1, w2")
        return bit(w1) | bit(w2)
    if inst.lemma == 4:
        if bit(u) & Q.mask():
            raise InputError("detached path must avoid u")
        if inst.w1 != Q.vertices[0] or inst.w2 != Q.vertices[-1]:
            raise InputError("w1, w2 must be the detached path ends")
        if Q.mask() & inst.p_path.mask():
            raise InputError("P must avoid the detached path")
        return Q.mask()
    if inst.lemma == 5:
        v, w = inst.v, inst.w
        if v is None or w is None or len({u, v, w}) != 3:
            raise InputError("lemma 5 needs distinct u, v, w")
        if not G.has_edge(v, w):
            raise InputError("vw must be an edge")
        return bit(v) | bit(w)
    if inst.lemma == 6:
        if inst.w is None or inst.w == u:
            raise InputError("lemma 6 needs w distinct from u")
        return bit(inst.w)
    raise InputError(f"unknown lemma id {inst.lemma}")


def validate_instance(inst: LemmaInstance) -> _Ctx:
    """Recompute every hypothesis; InputError on any violation.

    Includes the expensive part: P's inner-edge count must be maximum over
    all anchored paths of the same length in the stated vertex-deleted graph,
    confirmed by exhaustive enumeration (CapabilityError if that search
    exceeds its budget; such instances are rejected, never assumed valid).

    That search, lemma 5's attachment set and lemma 6's optimal reroute are
    read from the bounded memos described in the module docstring.  A
    maximality hit charges this call's budget the nodes the original search
    spent, or searches again when they do not fit, so the budget error is
    the one a cold search raises.  The instance itself is never cached: P,
    Q, x and the surplus are checked on every call.
    """
    G, u = inst.graph, inst.u
    P, Q = inst.p_path, inst.q_path
    if not 0 <= u < G.n:
        raise InputError("anchor out of range")
    if not is_valid_upath(G, P.vertices) or P.anchor != u or P.length < 1:
        raise InputError("P must be a nontrivial anchored path of the host")
    if not is_valid_upath(G, Q.vertices):
        raise InputError("Q must be a path of the host")
    p = P.length
    pmask = P.mask()
    L = pmask & ~bit(u)
    budget = Budget(search_budget(MAXIMALITY_BUDGET), "maximality check")
    excluded = _excluded(inst)
    if pmask & excluded:
        raise InputError("P enters an excluded vertex")
    best, _ = _max_paths(G, u, G.full_mask & ~excluded, p, budget)
    if best is None or e_inside(G, pmask) != best:
        raise InputError("P does not maximize inner edges at its length")
    x = inst.x
    if inst.lemma == 4:
        if x is None or not G.rows[u] & bit(x):
            raise InputError("x must be a neighbour of u")
        if bit(x) & (pmask | Q.mask()):
            raise InputError("x must lie outside P and Q")
        if (pmask | Q.mask()) & ~bit(u) & ~G.rows[u]:
            raise InputError("every vertex of P and Q must be seen by u")
        ctx = _Ctx(L=L, p=p, q=len(Q.vertices))
    else:
        if Q.anchor != u or Q.length < 1:
            raise InputError("probe must be a nontrivial anchored path")
        if Q.mask() & (L | excluded):
            avoid = _PROBE_AVOIDS[inst.lemma]
            raise InputError(f"probe must avoid V(P-u) and {avoid}")
        if x != Q.end:
            raise InputError("x must be the probe end")
        ctx = _Ctx(L=L, p=p, q=Q.length)
    if inst.lemma == 5:
        ctx.S = _attachment_set(G, u, inst.w, pmask, p)
    elif inst.lemma == 6:
        ctx.p_prime = reroute_maximizing_last_neighbor(G, P, x)
        if not is_absorbable(G, ctx.p_prime, x):
            raise InputError("x is not absorbable to the optimal reroute")
    s2 = compute_surplus2(
        inst.lemma,
        G,
        u,
        P,
        x,
        w1=inst.w1,
        w2=inst.w2,
        v=inst.v,
        w=inst.w,
        attachment=ctx.S,
    )
    if s2 != inst.surplus2:
        raise InputError(
            f"stored doubled surplus {inst.surplus2} != recomputed {s2}"
        )
    if s2 < 0:
        raise InputError("surplus must be nonnegative")
    return ctx


# -- case search helpers --------------------------------------------------------

CASE_SEARCH_BUDGET = 2_000_000


def _balanced_split_on(G: Graph, vsmask: int, side: int) -> Optional[HCertificate]:
    """First (lex by X) balanced uniform-neighbourhood split of exactly the
    given vertex set, sides of the given size, or None."""
    verts = sorted(bits_of(vsmask))
    if len(verts) != 2 * side:
        return None
    for xs in combinations(verts, side):
        xmask = mask_of(xs)
        ymask = vsmask & ~xmask
        if all(G.rows[v] & vsmask == ymask for v in xs):
            return HCertificate(frozenset(xs), set_of(ymask))
    return None


def _paths2_through(G: Graph, w: int) -> list[tuple[int, int, int]]:
    """All 3-vertex paths containing w, each once, sorted; w-ended ones are
    oriented from w, w-middle ones with smaller first endpoint."""
    out = set()
    for b in bits_of(G.rows[w]):
        for c in bits_of(G.rows[b]):
            if c != w:
                out.add((w, b, c))
    nw = list(bits_of(G.rows[w]))
    for i, a in enumerate(nw):
        for c in nw[i + 1 :]:
            out.add((a, w, c))
    return sorted(out)


def _longest_within(G: Graph, u: int, allowed: int) -> UPath:
    return longest_u_path(G, u, avoid=G.full_mask & ~allowed)


# -- analyzers -------------------------------------------------------------------


def _fail(inst: LemmaInstance) -> SoundnessError:
    return SoundnessError(
        f"no case matched a valid lemma-{inst.lemma} instance: {inst.to_json()}"
    )


def _pair_facts(G: Graph, inst: LemmaInstance, ctx: _Ctx) -> dict:
    half = []
    for i, wv in ((1, inst.w1), (2, inst.w2)):
        if 2 * _ev(G, wv, ctx.L) == ctx.p:
            half.append(i)
    return {
        "e_w1_L": _ev(G, inst.w1, ctx.L),
        "e_w2_L": _ev(G, inst.w2, ctx.L),
        "e_x_L": _ev(G, inst.x, ctx.L),
        "p_half_matches": half,
    }


def analyze_xv1v2(inst: LemmaInstance) -> CaseOutcome:
    ctx = validate_instance(inst)
    G, u, x = inst.graph, inst.u, inst.x
    pmask = inst.p_path.mask()
    p = ctx.p
    # C: drop a neighbour z of one excluded vertex and replace P inside the
    # stated scope (x and the other excluded vertex), then inside the probe
    qmask = inst.q_path.mask()
    for scope in ("stated", "with-probe"):
        for i, wi, other in ((1, inst.w1, inst.w2), (2, inst.w2, inst.w1)):
            keep = pmask | (bit(x) | bit(other) if scope == "stated" else qmask)
            for z in bits_of(G.rows[wi] & pmask):
                if z == u:
                    continue
                lp = _longest_within(G, u, keep & ~bit(z))
                if lp.length >= p:
                    return CaseOutcome(
                        "C",
                        {"length": lp.length},
                        paths=(lp,),
                        detail={"i": i, "z": z, "scope": scope},
                    )
    # B: balanced split over V(P)+x
    if inst.surplus2 == 0 and ctx.q == 1 and p % 2 == 0:
        cert = _balanced_split_on(G, pmask | bit(x), p // 2 + 1)
        if cert is not None:
            return CaseOutcome("B", _pair_facts(G, inst, ctx), certificate=cert)
    # A: the excluded pair is detached from L
    if inst.surplus2 == 0 and _ev(G, inst.w1, ctx.L) + _ev(G, inst.w2, ctx.L) == 0:
        return CaseOutcome(
            "A", {"e_pair_L": 0, "e_x_L": _ev(G, x, ctx.L)}
        )
    raise _fail(inst)


def analyze_xPQ(inst: LemmaInstance) -> CaseOutcome:
    ctx = validate_instance(inst)
    G, u, x = inst.graph, inst.u, inst.x
    p, qv = ctx.p, ctx.q
    budget = Budget(search_budget(CASE_SEARCH_BUDGET), "lemma 4 case search")
    # C: internally disjoint anchored paths of lengths p and qv+1
    short, long_ = sorted((p, qv + 1))
    for pa in iter_upaths_exact(G, u, G.full_mask, short, budget):
        rest = G.full_mask & ~(mask_of(pa) & ~bit(u))
        pb = next(iter_upaths_exact(G, u, rest, long_, budget), None)
        if pb is not None:
            first, second = UPath(pa), UPath(pb)
            if first.length != p:
                first, second = second, first
            return CaseOutcome(
                "C", {"lengths": [p, qv + 1]}, paths=(first, second)
            )
    # B: balanced split over V(P)+x (no probe-length requirement here)
    if inst.surplus2 == 0 and p % 2 == 0:
        cert = _balanced_split_on(G, inst.p_path.mask() | bit(x), p // 2 + 1)
        if cert is not None:
            return CaseOutcome("B", _pair_facts(G, inst, ctx), certificate=cert)
    # A: either x is dominated by the tied pair, or x sees all of L
    if inst.surplus2 == 0:
        ex = _ev(G, x, ctx.L)
        e1 = _ev(G, inst.w1, ctx.L)
        e2 = _ev(G, inst.w2, ctx.L)
        if (ex < e1 and e1 == e2) or ex == p:
            return CaseOutcome(
                "A", {"e_x_L": ex, "e_w1_L": e1, "e_w2_L": e2}
            )
    raise _fail(inst)


def analyze_xvw(inst: LemmaInstance) -> CaseOutcome:
    ctx = validate_instance(inst)
    G, u, x, v, w = inst.graph, inst.u, inst.x, inst.v, inst.w
    pmask = inst.p_path.mask()
    p = ctx.p
    budget = Budget(search_budget(CASE_SEARCH_BUDGET), "lemma 5 case search")
    narrow_scope = pmask | bit(x)
    r_ok_mask = pmask | bit(w) | bit(v)
    r_candidates = _paths2_through(G, w)
    # C, narrow: replacement path inside V(P)+x, companion through w nearby
    for pp in iter_upaths_exact(G, u, narrow_scope, p, budget):
        ppmask = mask_of(pp)
        for r in r_candidates:
            rmask = mask_of(r)
            if rmask & ppmask:
                continue
            w_end = r[0] == w or r[2] == w
            w_in_host = rmask & ~r_ok_mask == 0
            if w_end or w_in_host:
                return CaseOutcome(
                    "C",
                    {},
                    paths=(UPath(pp), UPath(r)),
                    detail={
                        "scope": "narrow",
                        "reading": "w-end" if w_end else "w-in-host",
                    },
                )
    # C, wide: w-ended companion anywhere, replacement path avoiding it
    for r in _paths2_through(G, w):
        if r[0] != w and r[2] != w:
            continue
        rmask = mask_of(r)
        if rmask & bit(u):
            continue
        lp = _longest_within(G, u, G.full_mask & ~rmask)
        if lp.length >= p:
            return CaseOutcome(
                "C",
                {},
                paths=(UPath(lp.vertices[: p + 1]), UPath(r)),
                detail={"scope": "wide", "reading": "w-end"},
            )
    # B: balanced split inside V(P)+{x,v} (one vertex of the pool left out)
    if inst.surplus2 == 0 and ctx.q == 1 and p % 2 == 0:
        pool = pmask | bit(x) | bit(v)
        for omit in sorted(bits_of(pool)):
            cert = _balanced_split_on(G, pool & ~bit(omit), p // 2 + 1)
            if cert is not None:
                facts = {
                    "e_w_L": _ev(G, w, ctx.L),
                    "e_v_L": _ev(G, v, ctx.L),
                    "omitted": omit,
                }
                return CaseOutcome("B", facts, certificate=cert)
    # A: x sees all of L, the excluded edge sees none of it
    if (
        inst.surplus2 == 0
        and G.rows[x] & ctx.L == ctx.L
        and (G.rows[v] | G.rows[w]) & ctx.L == 0
    ):
        return CaseOutcome("A", {"e_x_L": p, "e_vw_L": 0})
    raise _fail(inst)


def analyze_PQw(inst: LemmaInstance) -> CaseOutcome:
    ctx = validate_instance(inst)
    G, u, x, w = inst.graph, inst.u, inst.x, inst.w
    pmask = inst.p_path.mask()
    p = ctx.p
    pp = ctx.p_prime
    budget = Budget(search_budget(CASE_SEARCH_BUDGET), "lemma 6 case search")
    # C, two-vertex companion: an edge wz, replacement inside V(P)+x
    for z in sorted(bits_of(G.rows[w])):
        if z == u:
            continue
        allowed = (pmask | bit(x)) & ~bit(z)
        got = next(iter_upaths_exact(G, u, allowed, p, budget), None)
        if got is not None:
            return CaseOutcome(
                "C",
                {},
                paths=(UPath(got), UPath((w, z))),
                detail={"r_size": 2},
            )
    # C, three-vertex companion: w-ended, replacement inside V(P)+V(Q)
    qmask = inst.q_path.mask()
    for r in _paths2_through(G, w):
        if r[0] != w:
            continue
        rmask = mask_of(r)
        if rmask & bit(u):
            continue
        allowed = (pmask | qmask) & ~rmask
        lp = _longest_within(G, u, allowed)
        if lp.length >= p:
            return CaseOutcome(
                "C",
                {},
                paths=(UPath(lp.vertices[: p + 1]), UPath(r)),
                detail={"r_size": 3},
            )
    # B: balanced split over V(P)+x
    if inst.surplus2 == 0 and ctx.q == 1 and p % 2 == 0:
        cert = _balanced_split_on(G, pmask | bit(x), p // 2 + 1)
        if cert is not None:
            return CaseOutcome(
                "B", {"e_w_L": _ev(G, w, ctx.L)}, certificate=cert
            )
    # A: x reaches the reroute's end; w's attachments match the gap pattern
    if inst.surplus2 == 0:
        matches = _pqw_gap_readings(G, ctx, x, w)
        tail_ok = _ev(G, w, ctx.L) == 0 or (
            is_strictly_absorbable(G, pp, w) is not None
        )
        if (G.rows[x] & bit(pp.end)) and matches and tail_ok:
            return CaseOutcome(
                "A",
                {
                    "end_seen_by_x": True,
                    "e_w_L": _ev(G, w, ctx.L),
                    "nw_readings": matches,
                    "reroute": pp.to_json(),
                },
            )
    raise _fail(inst)


def _pqw_gap_readings(G: Graph, ctx: _Ctx, x: int, w: int) -> list[str]:
    """Which gap characterizations of N(w) within L hold along the optimal
    reroute: 'shift-down' drops successors of x-neighbours and the probe
    prefix; 'shift-up' keeps vertices whose successor misses x."""
    vs = ctx.p_prime.vertices
    p = ctx.p
    xrow = G.rows[x]
    wl = G.rows[w] & ctx.L
    down = 0
    for i in range(1, p + 1):
        if i <= min(ctx.q, p) or xrow & bit(vs[i - 1]):
            down |= bit(vs[i])
    up = 0
    for i in range(1, p):
        if not xrow & bit(vs[i + 1]):
            up |= bit(vs[i])
    matches = []
    if wl == ctx.L & ~down:
        matches.append("shift-down")
    if wl == up:
        matches.append("shift-up")
    return matches


_ANALYZERS = {
    3: analyze_xv1v2,
    4: analyze_xPQ,
    5: analyze_xvw,
    6: analyze_PQw,
}


def analyze(inst: LemmaInstance) -> CaseOutcome:
    try:
        fn = _ANALYZERS[inst.lemma]
    except KeyError:
        raise InputError(f"unknown lemma id {inst.lemma}")
    return fn(inst)


def analysis_record(inst: LemmaInstance, out: CaseOutcome, verified: bool) -> dict:
    """The per-analysis wire record."""
    return {
        "lemma": inst.lemma,
        "instance": inst.to_json(),
        "lambda": inst.surplus2 / 2,
        "lambda_doubled": inst.surplus2,
        "case": out.case,
        "witness": out.to_json(),
        "verified": verified,
    }


# -- independent witness verification -------------------------------------------


def verify_outcome(inst: LemmaInstance, out: CaseOutcome) -> bool:
    """Re-derive everything the claimed case asserts, from the graph alone."""
    try:
        ctx = validate_instance(inst)
    except (InputError, CapabilityError):
        return False
    G, u = inst.graph, inst.u
    p = ctx.p
    pmask = inst.p_path.mask()
    if out.case == "C":
        return _verify_case_c(inst, out, ctx)
    if out.case == "B":
        cert = out.certificate
        if cert is None or not verify_H_certificate(G, cert):
            return False
        side = p // 2 + 1
        if cert.a != side or cert.b != side:
            return False
        if inst.surplus2 != 0:
            return False
        if inst.lemma in (3, 5, 6) and ctx.q != 1:
            return False
        pool = pmask | bit(inst.x)
        if inst.lemma == 5:
            pool |= bit(inst.v)
        return cert.vertex_mask() & ~pool == 0
    if out.case == "A":
        if inst.surplus2 != 0:
            return False
        L = ctx.L
        if inst.lemma == 3:
            return _ev(G, inst.w1, L) + _ev(G, inst.w2, L) == 0
        if inst.lemma == 4:
            ex = _ev(G, inst.x, L)
            e1 = _ev(G, inst.w1, L)
            e2 = _ev(G, inst.w2, L)
            return (ex < e1 and e1 == e2) or ex == p
        if inst.lemma == 5:
            return (
                G.rows[inst.x] & L == L
                and (G.rows[inst.v] | G.rows[inst.w]) & L == 0
            )
        if inst.lemma == 6:
            pp = ctx.p_prime
            if not G.rows[inst.x] & bit(pp.end):
                return False
            if not _pqw_gap_readings(G, ctx, inst.x, inst.w):
                return False
            return _ev(G, inst.w, L) == 0 or (
                is_strictly_absorbable(G, pp, inst.w) is not None
            )
    return False


def _verify_case_c(inst: LemmaInstance, out: CaseOutcome, ctx: _Ctx) -> bool:
    G, u = inst.graph, inst.u
    p = ctx.p
    pmask = inst.p_path.mask()
    if inst.lemma == 3:
        if len(out.paths) != 1:
            return False
        lp = out.paths[0]
        i = out.detail.get("i")
        z = out.detail.get("z")
        if i not in (1, 2):
            return False
        wi = inst.w1 if i == 1 else inst.w2
        other = inst.w2 if i == 1 else inst.w1
        if z is None or not (G.rows[wi] & bit(z)) or not (pmask & bit(z)):
            return False
        if not (
            is_valid_upath(G, lp.vertices) and lp.anchor == u and lp.length >= p
        ):
            return False
        stated = (pmask | bit(inst.x) | bit(other)) & ~bit(z)
        with_probe = (pmask | inst.q_path.mask()) & ~bit(z)
        return lp.mask() & ~stated == 0 or lp.mask() & ~with_probe == 0
    if inst.lemma == 4:
        if len(out.paths) != 2:
            return False
        a, b = out.paths
        if not (is_valid_upath(G, a.vertices) and is_valid_upath(G, b.vertices)):
            return False
        if a.anchor != u or b.anchor != u:
            return False
        if a.length != p or b.length != ctx.q + 1:
            return False
        return a.mask() & b.mask() == bit(u)
    if inst.lemma == 5:
        if len(out.paths) != 2:
            return False
        pp, r = out.paths
        if not (is_valid_upath(G, pp.vertices) and is_valid_upath(G, r.vertices)):
            return False
        if pp.anchor != u or pp.length != p or r.length != 2:
            return False
        if pp.mask() & r.mask():
            return False
        if not r.mask() & bit(inst.w):
            return False
        w_end = r.vertices[0] == inst.w or r.vertices[-1] == inst.w
        narrow = (
            pp.mask() & ~(pmask | bit(inst.x)) == 0
            and r.mask() & ~(pmask | bit(inst.w) | bit(inst.v)) == 0
        )
        return w_end or narrow
    if inst.lemma == 6:
        if len(out.paths) != 2:
            return False
        pp, r = out.paths
        if not (is_valid_upath(G, pp.vertices) and is_valid_upath(G, r.vertices)):
            return False
        if pp.anchor != u or pp.length != p:
            return False
        if pp.mask() & r.mask():
            return False
        if r.vertices[0] != inst.w:
            return False
        if r.length == 1:
            return pp.mask() & ~(pmask | bit(inst.x)) == 0
        if r.length == 2:
            return pp.mask() & ~(pmask | inst.q_path.mask()) == 0
        return False
    return False


# -- instance generation ----------------------------------------------------------


def _random_graph(rng: random.Random, n: int, density: float) -> Graph:
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                rows[i] |= bit(j)
                rows[j] |= bit(i)
    return Graph(n, tuple(rows))


_P_CHOICES = (1, 2, 2, 3, 3, 4)


def _propose(
    lemma: int, rng: random.Random, n: int
) -> Optional[LemmaInstance]:
    density = rng.uniform(0.55, 0.95)
    G = _random_graph(rng, n, density)
    u = rng.randrange(n)
    if lemma == 4:
        # the rule needs u to see everything involved; make u near-universal
        rows = list(G.rows)
        for z in range(n):
            if z != u and rng.random() < 0.9:
                rows[u] |= bit(z)
                rows[z] |= bit(u)
        G = Graph(n, tuple(rows))
    budget = Budget(200_000, "instance synthesis")
    try:
        if lemma == 4:
            qv = rng.choice((1, 2, 2, 3))
            pool = list(bits_of(G.rows[u]))
            if len(pool) < qv + 2:
                return None
            seq = [rng.choice(pool)]
            while len(seq) < qv:
                opts = [
                    z
                    for z in bits_of(G.rows[seq[-1]] & G.rows[u])
                    if z not in seq
                ]
                if not opts:
                    break
                seq.append(rng.choice(opts))
            if len(seq) != qv:
                return None
            if seq[0] > seq[-1]:
                seq.reverse()
            Q = UPath(tuple(seq))
            p = rng.choice(_P_CHOICES)
            _, cands = _max_paths(G, u, G.full_mask & ~Q.mask(), p, budget)
            inside = [c for c in cands if mask_of(c) & ~bit(u) & ~G.rows[u] == 0]
            if not inside:
                return None
            P = UPath(rng.choice(inside))
            admissible = _probe_end_filter(4, G, u, P, w1=seq[0], w2=seq[-1])
            xs = [
                z
                for z in bits_of(G.rows[u] & ~P.mask() & ~Q.mask())
                if admissible(z)
            ]
            if not xs:
                return None
            return make_instance(4, G, u, P, Q, x=rng.choice(xs))
        # rules 3, 5, 6: pick the excluded set, then P, then a probe end
        if lemma == 3:
            others = [z for z in range(n) if z != u]
            w1, w2 = sorted(rng.sample(others, 2))
            fields = {"w1": w1, "w2": w2}
        elif lemma == 5:
            edges = [(a, b) for a, b in G.edges() if a != u and b != u]
            if not edges:
                return None
            v, w = rng.choice(edges)
            if rng.random() < 0.5:
                v, w = w, v
            fields = {"v": v, "w": w}
        else:
            fields = {"w": rng.choice([z for z in range(n) if z != u])}
        excl = mask_of(fields.values())
        p = rng.choice(_P_CHOICES)
        _, cands = _max_paths(G, u, G.full_mask & ~excl, p, budget)
        if not cands:
            return None
        P = UPath(rng.choice(cands))
        admissible = _probe_end_filter(lemma, G, u, P, **fields)
        q_allowed = G.full_mask & ~(P.mask() & ~bit(u) | excl)
        good_x = [z for z in bits_of(q_allowed & ~bit(u)) if admissible(z)]
        rng.shuffle(good_x)
        for xz in good_x:
            qp = first_upath_to(G, u, q_allowed, xz, budget)
            if qp is not None:
                return make_instance(lemma, G, u, P, UPath(qp), **fields)
        return None
    except CapabilityError:
        return None


def sample_instances(
    lemma: int, n: int, count: int, seed: int
) -> tuple[list[LemmaInstance], int]:
    """Deterministic stream of valid instances on n-vertex hosts.

    Proposals failing precondition synthesis are discarded; returns
    (instances, discarded).  May return fewer than ``count`` if the attempt
    cap (500 per requested instance) runs out, which the caller reports.
    """
    if lemma not in LEMMA_IDS:
        raise InputError(f"unknown lemma id {lemma}")
    if n > MAX_INSTANCE_HOST:
        raise InputError(f"instance hosts capped at n <= {MAX_INSTANCE_HOST}")
    if count < 0:
        raise InputError("instance count must be nonnegative")
    if n < 3 or count == 0:
        return [], 0
    rng = random.Random(seed)
    out: list[LemmaInstance] = []
    discarded = 0
    attempts = 0
    cap = max(count * 500, 1000)
    while len(out) < count and attempts < cap:
        attempts += 1
        inst = _propose(lemma, rng, n)
        if inst is None:
            discarded += 1
            continue
        try:
            validate_instance(inst)
        except (InputError, CapabilityError):
            discarded += 1
            continue
        out.append(inst)
    return out, discarded


# -- exhaustive enumeration on a host ----------------------------------------------


def enumerate_instances(
    lemma: int, G: Graph, max_p: Optional[int] = None
) -> Iterator[LemmaInstance]:
    """Every valid instance on the host, over all anchors, excluded-vertex
    choices, path lengths, maximizing paths, and probes.  Desk scale only."""
    if lemma not in LEMMA_IDS:
        raise InputError(f"unknown lemma id {lemma}")
    n = G.n
    if n > MAX_INSTANCE_HOST:
        raise InputError(f"instance hosts capped at n <= {MAX_INSTANCE_HOST}")
    top = max_p if max_p is not None else n
    budget = Budget(search_budget(20_000_000), "instance enumeration")
    if lemma == 4:
        yield from _enum_lemma4(G, top, budget)
        return
    for u in range(n):
        if lemma == 3:
            for w1 in range(n):
                for w2 in range(w1 + 1, n):
                    if u in (w1, w2):
                        continue
                    yield from _enum_probe_family(
                        3, G, u, top, budget, w1=w1, w2=w2
                    )
        elif lemma == 5:
            for v, w in G.edges():
                for vv, ww in ((v, w), (w, v)):
                    if u in (vv, ww):
                        continue
                    yield from _enum_probe_family(
                        5, G, u, top, budget, v=vv, w=ww
                    )
        elif lemma == 6:
            for w in range(n):
                if w == u:
                    continue
                yield from _enum_probe_family(6, G, u, top, budget, w=w)


def _enum_probe_family(
    lemma: int, G: Graph, u: int, top: int, budget: Budget, **fields
) -> Iterator[LemmaInstance]:
    excl = mask_of(fields.values())
    for p in range(1, top + 1):
        _, cands = _max_paths(G, u, G.full_mask & ~excl, p, budget)
        if not cands:
            break  # every longer u-path has one with p edges as its prefix
        for pseq in cands:
            P = UPath(pseq)
            q_allowed = G.full_mask & ~(P.mask() & ~bit(u) | excl)
            # built at the first probe, so rule 5's attachment set (and any
            # budget error in it) comes no earlier than an instance would
            admissible = None
            for qseq in iter_upaths(G, u, q_allowed, budget):
                if admissible is None:
                    admissible = _probe_end_filter(lemma, G, u, P, **fields)
                if admissible(qseq[-1]):
                    yield make_instance(lemma, G, u, P, UPath(qseq), **fields)


def _enum_lemma4(G: Graph, top: int, budget: Budget) -> Iterator[LemmaInstance]:
    n = G.n
    for u in range(n):
        allowed_q = G.full_mask & ~bit(u)
        seen_q = set()
        qpaths = [(z,) for z in range(n) if z != u]
        for start in range(n):
            if start == u:
                continue
            for seq in iter_upaths(G, start, allowed_q, budget):
                if seq[0] <= seq[-1] and seq not in seen_q:
                    seen_q.add(seq)
                    qpaths.append(seq)
        for qseq in sorted(qpaths):
            Q = UPath(qseq)
            if Q.mask() & ~G.rows[u]:
                continue
            for p in range(1, top + 1):
                _, cands = _max_paths(G, u, G.full_mask & ~Q.mask(), p, budget)
                if not cands:
                    break  # every longer u-path has one with p edges as its prefix
                for pseq in cands:
                    if mask_of(pseq) & ~bit(u) & ~G.rows[u]:
                        continue
                    P = UPath(pseq)
                    admissible = _probe_end_filter(
                        4, G, u, P, w1=qseq[0], w2=qseq[-1]
                    )
                    for x in bits_of(G.rows[u] & ~P.mask() & ~Q.mask()):
                        if admissible(x):
                            yield make_instance(4, G, u, P, Q, x=x)
