"""Witness-producing case analyzers for the four path-growth rules.

Each rule takes a structured instance (host graph, anchor u, a length-p
anchored path P whose vertex set carries the maximum number of inner edges
among same-length anchored paths in the stated vertex-deleted graph, a probe
path Q with end x, and named outside vertices) whose surplus, a function of
those, is nonnegative, and guarantees one of three disjuncts:

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

An instance is validated once, when it is made, under the ESOS_BUDGET then
in force; validation derives the surplus, and ``analyze`` and
``verify_outcome`` read the frozen context it keeps.  The builders'
searches and the validation share ``paths.recall``'s one memo with the path
queries:

* "maximal", the maximality search (``_max_paths``), keyed by (graph, u,
  allowed set, p);
* "attachment", the vertices on every u-path with p edges in G - w
  (``paths.on_every_upath``), keyed by (graph, u, w, p); they give lemma
  5's attachment set for every P of that length.

A hit on either is charged as a cold search would be.  P is not part of a
key, and every check of ``validate_instance`` runs on every call.

The rules are numbered 3, 4, 5, 6 on the CLI:

* 3 (``xv1v2``): two excluded vertices w1, w2;
* 4 (``xPQ``):   a detached path Q with ends w1, w2, everything seen by u;
* 5 (``xvw``):   an excluded edge vw, surplus corrected by the reroutable
                 attachment set S of w;
* 6 (``PQw``):   one excluded vertex w, P rerouted so x's last neighbour
                 sits as late as possible.

All four share one shape: delete an excluded set, take a maximizing P of
length p, probe with a path ending at x, and require a nonnegative surplus.
Rule 4 differs in three places: its excluded set is V(Q), P must be seen
by u (``_sees_all``), and its probes are the edges ux with x in N(u) off P
and Q.  Both instance builders walk that shape once for every rule:

* ``enumerate_instances``: anchor u, each excluded choice of
  ``_exclusions``, p = 1, 2, ... up to the first p with no u-path, each
  maximizing P, then its probes.  P becomes a UPath, with its filter, only
  when its first probe arrives, and the filter's verdict is kept per probe
  end x, so each (P, x) is judged once however many probes end at x;
* ``sample_instances``: a random host (``Graph._of``, unchecked) and anchor,
  one excluded choice drawn by ``_pick_exclusion``, then one tail for every
  rule that draws p, P and x; only the last draw differs (rule 4 picks x in
  N(u), the others take the first shuffled end that a probe path reaches).

Each rule's hypotheses are stated once:

* ``_excluded`` checks the rule's own fields and returns the excluded set;
  ``validate_instance`` then runs the same maximality, probe and x checks
  for every rule (rule 4's detached path is its excluded set, and x is a
  neighbour of u rather than a probe end);
* ``_surplus2`` is the only statement of each surplus, linear in
  e(x, V(P-u)), which validation derives and keeps;
* ``_probe_end_filter`` decides which x the generators admit: nonnegative
  surplus, and for rule 6, x absorbable to P's optimal reroute.  It asks
  ``paths``' unchecked cores for both, as P comes from the builder's own
  maximality search and x lies off it; ``validate_instance`` still asks the
  public, checked ``reroute_maximizing_last_neighbor`` and
  ``is_absorbable`` of every instance, so each is validated from scratch;
* ``_split_pools`` is case B's precondition and the vertex sets its split
  must cover; ``graphs.recognize_H`` finds each pool's covering split,
  which case B takes when its sides are equal; ``_degenerate`` is case A's
  predicate and facts.  Each analyzer ends its own case-C search in the
  same B-then-A tail, and ``verify_outcome`` reads both statements.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional

from .embed import place_legs
from .errors import Budget, CapabilityError, InputError, SoundnessError, search_budget
from .graphs import (
    Graph,
    HCertificate,
    _checked_int,
    _checked_vertex,
    _inner_edges,
    bits_of,
    mask_of,
    recognize_H,
    verify_H_certificate,
)
from .paths import (
    LONGEST_PATH_BUDGET,
    UPath,
    _absorbs,
    _optimal_reroute,
    is_absorbable,
    is_strictly_absorbable,
    is_valid_upath,
    iter_upaths,
    iter_upaths_exact,
    first_upath_to,
    longest_u_path,
    on_every_upath,
    recall,
    reroute_maximizing_last_neighbor,
)

LEMMA_IDS = (3, 4, 5, 6)

MAX_INSTANCE_HOST = 12


class _Ctx(NamedTuple):
    """What validation derives; a tuple, so unchanged when the witness check
    reads it too."""

    L: int  # mask of V(P-u)
    p: int
    q: int  # probe length (lemma 4: |V(Q)|)
    surplus2: int
    S: int = 0  # lemma 5 attachment set
    p_prime: Optional[UPath] = None  # lemma 6 optimal reroute


@dataclass(frozen=True)
class LemmaInstance:
    """Validated as it is made, by any route (``ctx`` keeps the result), so
    an instance that breaks a hypothesis cannot exist.  The surplus is not
    an input: validation derives it, and ``surplus2`` reads it."""

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
    ctx: _Ctx = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a module-global lookup, so a wrapper of validate_instance sees it
        object.__setattr__(self, "ctx", validate_instance(self))

    @property
    def surplus2(self) -> int:
        return self.ctx.surplus2

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


# -- surplus and instance construction ---------------------------------------


def _ev(G: Graph, v: int, mask: int) -> int:
    return (G.rows[v] & mask).bit_count()


def _attachment_set(G: Graph, u: int, w: int, p_mask: int, p: int) -> int:
    """Vertices z of V(P-u) adjacent to w such that G - {w, z} still has a
    u-path with p edges (lemma 5's correction set): the neighbours of w
    missing from some such path in G - w, read off one
    ``paths.on_every_upath`` answer memoised per (u, w, p)."""
    near = G.rows[w] & p_mask & ~(1 << u)
    if not near:
        return 0
    budget = Budget(search_budget(LONGEST_PATH_BUDGET), "longest_u_path")
    allowed = G.full_mask & ~(1 << w)
    key = ("attachment", G.rows, u, w, p)
    return near & ~recall(key, budget, on_every_upath, G, u, allowed, p, budget)


def _surplus2(
    lemma: int,
    G: Graph,
    L: int,
    p: int,
    attachment: int,
    w1: Optional[int] = None,
    w2: Optional[int] = None,
    v: Optional[int] = None,
    w: Optional[int] = None,
) -> tuple[int, int]:
    """Twice the rule's surplus, which is linear in e(x, L) at probe end x:
    (slope, base) with surplus2 = slope * e(x, L) + base, for L = V(P-u)
    and p = |L|.  ``attachment`` is rule 5's attachment set.  The caller
    has checked the named vertices."""
    if lemma in (3, 4):
        pair = _ev(G, w1, L) + _ev(G, w2, L)
        return 4, 2 * pair - 4 * p  # 2 * (2 e(x, L) + pair - 2p)
    if lemma == 5:
        pair = _ev(G, v, L) + _ev(G, w, L)
        # 4 e(x, L) + 2 pair - 4p - e(v, S), S the attachment set
        return 4, 2 * pair - 4 * p - _ev(G, v, attachment)
    return 2, 2 * (_ev(G, w, L) - p)  # rule 6: 2 * (e(x, L) + e(w, L) - p)


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
    """Assemble (so validate) an instance, reading x off the probe Q; rule 4
    takes x given, and w1, w2 as the ends of its detached path Q."""
    if lemma == 4:
        if x is None:
            raise InputError("lemma 4 needs an explicit x")
        w1, w2 = q_path.vertices[0], q_path.vertices[-1]
    else:
        x = q_path.vertices[-1]
    return LemmaInstance(lemma, G, u, p_path, q_path, x, w1, w2, v, w)


def _probe_end_filter(
    lemma: int, G: Graph, u: int, P: UPath, **fields
) -> Callable[[int], bool]:
    """Which probe ends x the rule admits with P: a nonnegative surplus, and
    for rule 6, x absorbable to P's optimal reroute.  ``fields`` are the
    rule's named vertices (rule 4: w1, w2, the detached path's ends); x must
    lie off P.  The surplus's part that does not depend on x, with rule 5's
    attachment set from a table built once per (u, w, p), is computed here
    once per P.

    P is a path of G that the caller's own maximality search found, and x a
    vertex of G off P, so rule 6 asks ``paths``' unchecked cores for the
    optimal reroute and for absorbability.  A caller asks once per (P, x)
    and keeps the verdict.  ``validate_instance`` still calls the public,
    checked queries on every instance this admits."""
    rows = G.rows
    pmask = P.mask()
    L = pmask & ~(1 << u)
    p = P.length
    S = _attachment_set(G, u, fields["w"], pmask, p) if lemma == 5 else 0
    slope, base = _surplus2(lemma, G, L, p, S, **fields)

    def admissible(x: int) -> bool:
        if slope * (rows[x] & L).bit_count() + base < 0:
            return False
        return lemma != 6 or _absorbs(rows[x], _optimal_reroute(G, P, x))

    return admissible


# -- validation ---------------------------------------------------------------

MAXIMALITY_BUDGET = 500_000


def _max_paths(
    G: Graph, u: int, allowed: int, p: int, budget: Budget
) -> tuple[Optional[int], tuple[tuple[int, ...], ...]]:
    """The most inner edges on the vertex set of a u-path with exactly p
    edges inside ``allowed`` (None when there is no such path), and every
    path reaching it, in lexicographic order.  Memoised with the nodes the
    search spent; ``paths.recall`` states how a hit is charged.
    """
    key = ("maximal", G.rows, u, allowed, p)
    return recall(key, budget, _argmax_paths, G, u, allowed, p, budget)


def _argmax_paths(
    G: Graph, u: int, allowed: int, p: int, budget: Budget
) -> tuple[Optional[int], tuple[tuple[int, ...], ...]]:
    """The search behind ``_max_paths``, in the order and at the node
    charge of ``paths.iter_upaths_exact``: lexicographic, one node per vertex
    placed after u.  Each prefix carries its mask m and inner-edge count e;
    one of p vertices, ending at z, places its ends ``rows[z] & allowed & ~m``
    in one pass, as that many nodes, and scores each end b as e + |N(b) & m|
    unless e + p, the most an end can score, is below the best so far.  Nodes
    are counted locally and spent on return, or at ``Budget``'s trip point."""
    if not allowed & (1 << u):
        return None, ()
    if p == 0:
        return 0, ((u,),)
    rows = G.rows
    room = budget.limit - budget.used
    nodes = best = -1  # u is the root's one step and no node; a path scores >= 0
    out: list[tuple[int, ...]] = []
    stack: list[int] = []
    mask = 0
    inner = [0]  # per depth, the inner edges of the prefix
    untried = [1 << u]  # per depth, the next steps left
    while untried:
        ext = untried[-1]
        if not ext:
            untried.pop()
            inner.pop()
            mask ^= 1 << stack.pop() if stack else 0  # the root has no vertex
            continue
        low = ext & -ext
        untried[-1] = ext ^ low
        z = low.bit_length() - 1
        e = inner[-1] + (rows[z] & mask).bit_count()
        m = mask | low
        steps = rows[z] & allowed & ~m
        last = len(stack) == p - 1  # m has p vertices: steps are path ends
        nodes += 1 + steps.bit_count() if last else 1
        if nodes > room:
            budget.spend(nodes)
        if not last:
            stack.append(z)
            inner.append(e)
            mask = m
            untried.append(steps)
        elif e + p >= best:
            while steps:
                low = steps & -steps
                steps ^= low
                b = low.bit_length() - 1
                score = e + (rows[b] & m).bit_count()
                if score > best:
                    best, out = score, [(*stack, z, b)]
                elif score == best:
                    out.append((*stack, z, b))
    budget.spend(nodes)
    return (best if out else None), tuple(out)


# What the probe of rules 3, 5 and 6 must avoid besides V(P-u).
_PROBE_AVOIDS = {3: "the excluded pair", 5: "the excluded edge", 6: "w"}


def _sees_all(G: Graph, u: int, mask: int) -> bool:
    """Whether u sees every vertex of ``mask`` but itself (rule 4 asks it of
    V(P) and V(Q))."""
    return not mask & ~(1 << u) & ~G.rows[u]


def _excluded(inst: LemmaInstance) -> int:
    """Check the rule id and its own fields; return the vertices P must avoid
    (the probe too, for rules 3, 5 and 6; rule 4's detached path).  First,
    every named vertex given, x included, must be one of the host's; a
    missing one of the rule's own is reported before anything else about it."""
    G, u, Q = inst.graph, inst.u, inst.q_path
    w1, w2, v, w = inst.w1, inst.w2, inst.v, inst.w
    for z in (inst.x, w1, w2, v, w):
        if z is not None:
            _checked_vertex(G, z, "named vertex")
    if type(inst.lemma) is not int:  # 3.0 == 3 and True == 1
        raise InputError(f"unknown lemma id {inst.lemma}")
    if inst.lemma == 3:
        if w1 is None or w2 is None or len({u, w1, w2}) != 3:
            raise InputError("lemma 3 needs distinct u, w1, w2")
        return (1 << w1) | (1 << w2)
    if inst.lemma == 4:
        if w1 is not None and w2 is not None and (1 << u) & Q.mask():
            raise InputError("detached path must avoid u")
        if w1 != Q.vertices[0] or w2 != Q.vertices[-1]:
            raise InputError("w1, w2 must be the detached path ends")
        if Q.mask() & inst.p_path.mask():
            raise InputError("P must avoid the detached path")
        return Q.mask()
    if inst.lemma == 5:
        if v is None or w is None or len({u, v, w}) != 3:
            raise InputError("lemma 5 needs distinct u, v, w")
        if not G.has_edge(v, w):
            raise InputError("vw must be an edge")
        return (1 << v) | (1 << w)
    if inst.lemma == 6:
        if w is None or w == u:
            raise InputError("lemma 6 needs w distinct from u")
        return 1 << w
    raise InputError(f"unknown lemma id {inst.lemma}")


def validate_instance(inst: LemmaInstance) -> _Ctx:
    """Check every hypothesis and derive the doubled surplus; InputError on
    any violation.  Runs once per instance, as it is made, which keeps the
    result as ``inst.ctx``.

    Includes the expensive part: P's inner-edge count must be maximum over
    all anchored paths of the same length in the stated vertex-deleted graph,
    confirmed by exhaustive enumeration (CapabilityError if that search
    exceeds its budget; such instances are rejected, never assumed valid).

    That search, lemma 5's attachment set and lemma 6's optimal reroute are
    read from the one bounded search memo described in the module
    docstring; a maximality or attachment hit is charged to its budget as
    ``paths.recall`` states.  The instance itself is never cached: P, Q, x
    and the named vertices are checked on every call.
    """
    G, u, lemma = inst.graph, inst.u, inst.lemma
    P, Q = inst.p_path, inst.q_path
    pv, qv = P.vertices, Q.vertices  # read once: each UPath property is a call
    _checked_vertex(G, u, "anchor")
    if not is_valid_upath(G, pv) or pv[0] != u or len(pv) < 2:
        raise InputError("P must be a nontrivial anchored path of the host")
    if not is_valid_upath(G, qv):
        raise InputError("Q must be a path of the host")
    rows = G.rows
    p = len(pv) - 1
    pmask, qmask = P.mask(), Q.mask()
    L = pmask & ~(1 << u)
    budget = Budget(search_budget(MAXIMALITY_BUDGET), "maximality check")
    excluded = _excluded(inst)
    if pmask & excluded:
        raise InputError("P enters an excluded vertex")
    best, _ = _max_paths(G, u, G.full_mask & ~excluded, p, budget)
    # P is a path of G, so its mask needs no check before its edges count
    if best is None or _inner_edges(rows, pmask) != best:
        raise InputError("P does not maximize inner edges at its length")
    x = inst.x
    if lemma == 4:
        if x is None or not rows[u] & (1 << x):
            raise InputError("x must be a neighbour of u")
        if (1 << x) & (pmask | qmask):
            raise InputError("x must lie outside P and Q")
        if not _sees_all(G, u, pmask | qmask):
            raise InputError("every vertex of P and Q must be seen by u")
        q = len(qv)
    else:
        if qv[0] != u or len(qv) < 2:
            raise InputError("probe must be a nontrivial anchored path")
        if qmask & (L | excluded):
            avoid = _PROBE_AVOIDS[lemma]
            raise InputError(f"probe must avoid V(P-u) and {avoid}")
        if x != qv[-1]:
            raise InputError("x must be the probe end")
        q = len(qv) - 1
    S = _attachment_set(G, u, inst.w, pmask, p) if lemma == 5 else 0
    p_prime = reroute_maximizing_last_neighbor(G, P, x) if lemma == 6 else None
    if lemma == 6 and not is_absorbable(G, p_prime, x):
        raise InputError("x is not absorbable to the optimal reroute")
    slope, base = _surplus2(lemma, G, L, p, S, inst.w1, inst.w2, inst.v, inst.w)
    s2 = slope * _ev(G, x, L) + base
    if s2 < 0:
        raise InputError("surplus must be nonnegative")
    return _Ctx(L=L, p=p, q=q, surplus2=s2, S=S, p_prime=p_prime)


# -- case search helpers --------------------------------------------------------

CASE_SEARCH_BUDGET = 2_000_000


def _paths2_through(G: Graph, w: int) -> list[tuple[int, int, int]]:
    """All 3-vertex paths containing w, each once, sorted; w-ended ones are
    oriented from w, w-middle ones with smaller first endpoint."""
    nw = list(bits_of(G.rows[w]))
    middle = [(a, w, c) for i, a in enumerate(nw) for c in nw[i + 1 :]]
    return sorted(middle + _w_ended(G, w))


def _w_ended(G: Graph, w: int) -> list[tuple[int, int, int]]:
    """The 3-vertex paths (w, b, c), in ascending order."""
    rows = G.rows
    return [(w, b, c) for b in bits_of(rows[w]) for c in bits_of(rows[b] & ~(1 << w))]


def _w_companion(
    G: Graph, u: int, w: int, p: int, scope: int
) -> Optional[tuple[UPath, UPath]]:
    """(The first p edges of a longest u-path in ``scope`` minus V(r), r) for
    the first r of ``_w_ended(G, w)`` that misses u and leaves a u-path with
    p edges there; None when no r does."""
    outside = G.full_mask & ~scope
    for r in _w_ended(G, w):
        rmask = mask_of(r)
        if rmask & (1 << u):
            continue
        lp = longest_u_path(G, u, avoid=outside | rmask)
        if lp.length >= p:
            return UPath(lp.vertices[: p + 1]), UPath(r)
    return None


# -- analyzers -------------------------------------------------------------------


def _split_pools(inst: LemmaInstance) -> list[int]:
    """The vertex sets a case-B split must cover exactly: V(P)+x for rules 3,
    4 and 6; for rule 5, V(P)+{x,v} less one vertex, in ascending order of
    that vertex.  Empty unless the surplus is 0, p is even and, for rules
    3, 5 and 6, the probe is one edge."""
    if inst.surplus2 or inst.ctx.p % 2 or (inst.lemma != 4 and inst.ctx.q != 1):
        return []
    pool = inst.p_path.mask() | (1 << inst.x)
    if inst.lemma != 5:
        return [pool]
    pool |= 1 << inst.v
    return [pool & ~(1 << omit) for omit in bits_of(pool)]


def _degenerate(inst: LemmaInstance) -> Optional[dict]:
    """Case A's facts when the rule's degeneracy holds at surplus 0, else
    None."""
    if inst.surplus2:
        return None
    G, x, L = inst.graph, inst.x, inst.ctx.L
    if inst.lemma == 3:
        # the excluded pair is detached from L
        if _ev(G, inst.w1, L) + _ev(G, inst.w2, L) == 0:
            return {"e_pair_L": 0, "e_x_L": _ev(G, x, L)}
    elif inst.lemma == 4:
        # either x is dominated by the tied pair, or x sees all of L
        ex, e1, e2 = _ev(G, x, L), _ev(G, inst.w1, L), _ev(G, inst.w2, L)
        if (ex < e1 and e1 == e2) or ex == inst.ctx.p:
            return {"e_x_L": ex, "e_w1_L": e1, "e_w2_L": e2}
    elif inst.lemma == 5:
        # x sees all of L, the excluded edge sees none of it
        if G.rows[x] & L == L and (G.rows[inst.v] | G.rows[inst.w]) & L == 0:
            return {"e_x_L": inst.ctx.p, "e_vw_L": 0}
    else:
        # x reaches the reroute's end; w's attachments match the gap pattern
        pp, w = inst.ctx.p_prime, inst.w
        if not G.rows[x] & (1 << pp.end):
            return None
        matches = _pqw_gap_readings(G, inst.ctx, x, w)
        ew = _ev(G, w, L)
        if matches and (ew == 0 or is_strictly_absorbable(G, pp, w) is not None):
            return {
                "end_seen_by_x": True,
                "e_w_L": ew,
                "nw_readings": matches,
                "reroute": pp.to_json(),
            }
    return None


def _split_or_degenerate(inst: LemmaInstance) -> CaseOutcome:
    """Every analyzer's tail after its own case-C search: B over the split
    pools, then A; a SoundnessError when neither holds."""
    G, ctx = inst.graph, inst.ctx
    L = ctx.L
    for pool in _split_pools(inst):
        # a pool has p + 2 vertices, so equal sides hold p/2 + 1 each
        cert = recognize_H(G, pool)
        if cert is None or cert.a != cert.b:
            continue
        if inst.lemma in (3, 4):
            e1, e2 = _ev(G, inst.w1, L), _ev(G, inst.w2, L)
            facts = {
                "e_w1_L": e1,
                "e_w2_L": e2,
                "e_x_L": _ev(G, inst.x, L),
                "p_half_matches": [i for i, e in ((1, e1), (2, e2)) if 2 * e == ctx.p],
            }
        elif inst.lemma == 5:
            left_out = (inst.p_path.mask() | (1 << inst.x) | (1 << inst.v)) & ~pool
            facts = {
                "e_w_L": _ev(G, inst.w, L),
                "e_v_L": _ev(G, inst.v, L),
                "omitted": left_out.bit_length() - 1,
            }
        else:
            facts = {"e_w_L": _ev(G, inst.w, L)}
        return CaseOutcome("B", facts, certificate=cert)
    facts = _degenerate(inst)
    if facts is None:
        raise SoundnessError(
            f"no case matched a valid lemma-{inst.lemma} instance: {inst.to_json()}"
        )
    return CaseOutcome("A", facts)


def analyze_xv1v2(inst: LemmaInstance) -> CaseOutcome:
    G, u, x = inst.graph, inst.u, inst.x
    pmask = inst.p_path.mask()
    p = inst.ctx.p
    # C: drop a neighbour z of one excluded vertex and replace P inside the
    # stated scope (x and the other excluded vertex), then inside the probe
    qmask = inst.q_path.mask()
    for scope in ("stated", "with-probe"):
        for i, wi, other in ((1, inst.w1, inst.w2), (2, inst.w2, inst.w1)):
            keep = pmask | ((1 << x) | (1 << other) if scope == "stated" else qmask)
            for z in bits_of(G.rows[wi] & pmask):
                if z == u:
                    continue
                lp = longest_u_path(G, u, avoid=(G.full_mask & ~keep) | (1 << z))
                if lp.length >= p:
                    return CaseOutcome(
                        "C",
                        {"length": lp.length},
                        paths=(lp,),
                        detail={"i": i, "z": z, "scope": scope},
                    )
    return _split_or_degenerate(inst)


def analyze_xPQ(inst: LemmaInstance) -> CaseOutcome:
    G, u = inst.graph, inst.u
    p, qv = inst.ctx.p, inst.ctx.q
    budget = Budget(search_budget(CASE_SEARCH_BUDGET), "lemma 4 case search")
    # C: internally disjoint u-paths of lengths p and qv+1, shorter first
    a, b = sorted((p, qv + 1))
    seq = place_legs(G, (a, b), u, G.full_mask, budget)
    if seq is not None:
        pair = UPath((u, *seq[:a])), UPath((u, *seq[a:]))
        pair = pair if a == p else pair[::-1]
        return CaseOutcome("C", {"lengths": [p, qv + 1]}, paths=pair)
    return _split_or_degenerate(inst)


def analyze_xvw(inst: LemmaInstance) -> CaseOutcome:
    G, u, x, v, w = inst.graph, inst.u, inst.x, inst.v, inst.w
    pmask = inst.p_path.mask()
    p = inst.ctx.p
    budget = Budget(search_budget(CASE_SEARCH_BUDGET), "lemma 5 case search")
    narrow_scope = pmask | (1 << x)
    r_ok_mask = pmask | (1 << w) | (1 << v)
    r_candidates = _paths2_through(G, w)
    # C, narrow: replacement path inside V(P)+x, companion through w nearby
    for pp in iter_upaths_exact(G, u, narrow_scope, p, budget):
        ppmask = mask_of(pp)
        for r in r_candidates:
            rmask = mask_of(r)
            if rmask & ppmask:
                continue
            w_end = r[0] == w
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
    got = _w_companion(G, u, w, p, G.full_mask)
    if got is not None:
        return CaseOutcome(
            "C", {}, paths=got, detail={"scope": "wide", "reading": "w-end"}
        )
    return _split_or_degenerate(inst)


def analyze_PQw(inst: LemmaInstance) -> CaseOutcome:
    G, u, x, w = inst.graph, inst.u, inst.x, inst.w
    pmask = inst.p_path.mask()
    p = inst.ctx.p
    budget = Budget(search_budget(CASE_SEARCH_BUDGET), "lemma 6 case search")
    # C, two-vertex companion: an edge wz, replacement inside V(P)+x
    for z in bits_of(G.rows[w]):
        if z == u:
            continue
        allowed = (pmask | (1 << x)) & ~(1 << z)
        got = place_legs(G, (p,), u, allowed, budget)
        if got is not None:
            pair = UPath((u, *got)), UPath((w, z))
            return CaseOutcome("C", {}, paths=pair, detail={"r_size": 2})
    # C, three-vertex companion: w-ended, replacement inside V(P)+V(Q)
    scope = pmask | inst.q_path.mask()
    got = _w_companion(G, u, w, p, scope)
    if got is not None:
        return CaseOutcome("C", {}, paths=got, detail={"r_size": 3})
    return _split_or_degenerate(inst)


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
        if i <= min(ctx.q, p) or xrow & (1 << vs[i - 1]):
            down |= 1 << vs[i]
    up = 0
    for i in range(1, p):
        if not xrow & (1 << vs[i + 1]):
            up |= 1 << vs[i]
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
    """The rule's case and witness; reads ``inst.ctx``, validates nothing."""
    return _ANALYZERS[inst.lemma](inst)


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
    """Re-derive everything the claimed case asserts, from the graph and the
    frozen ``inst.ctx`` alone; nothing is validated again."""
    if out.case == "C":
        return _verify_case_c(inst, out)
    if out.case == "B":
        cert = out.certificate
        return (
            cert is not None
            and cert.a == cert.b == inst.ctx.p // 2 + 1
            and verify_H_certificate(inst.graph, cert)  # ids checked before the mask
            and cert.vertex_mask() in _split_pools(inst)
        )
    if out.case == "A":
        return _degenerate(inst) is not None
    return False


def _verify_case_c(inst: LemmaInstance, out: CaseOutcome) -> bool:
    G, u, ctx = inst.graph, inst.u, inst.ctx
    p = ctx.p
    if len(out.paths) != (1 if inst.lemma == 3 else 2):
        return False
    for path in out.paths:
        if not is_valid_upath(G, path.vertices):
            return False
    first = out.paths[0]
    if first.anchor != u or first.length < p:
        return False
    pmask = inst.p_path.mask()
    if inst.lemma == 3:
        i, z = out.detail.get("i"), out.detail.get("z")
        if i not in (1, 2) or z is None:
            return False
        wi, other = (inst.w1, inst.w2) if i == 1 else (inst.w2, inst.w1)
        if not G.rows[wi] & pmask & (1 << z):
            return False
        stated = (pmask | (1 << inst.x) | (1 << other)) & ~(1 << z)
        with_probe = (pmask | inst.q_path.mask()) & ~(1 << z)
        return first.mask() & ~stated == 0 or first.mask() & ~with_probe == 0
    second = out.paths[1]
    if first.length != p:
        return False
    if inst.lemma == 4:
        return (
            second.anchor == u
            and second.length == ctx.q + 1
            and first.mask() & second.mask() == (1 << u)
        )
    if first.mask() & second.mask():
        return False
    if inst.lemma == 5:
        if second.length != 2 or not second.mask() & (1 << inst.w):
            return False
        w_end = inst.w in (second.anchor, second.end)
        narrow = (
            first.mask() & ~(pmask | (1 << inst.x)) == 0
            and second.mask() & ~(pmask | (1 << inst.w) | (1 << inst.v)) == 0
        )
        return w_end or narrow
    if second.anchor != inst.w:
        return False
    if second.length == 1:
        return first.mask() & ~(pmask | (1 << inst.x)) == 0
    if second.length == 2:
        return first.mask() & ~(pmask | inst.q_path.mask()) == 0
    return False


# -- instance generation ----------------------------------------------------------


def _random_rows(rng: random.Random, n: int, density: float) -> list[int]:
    rows = [0] * n
    draw = rng.random
    for i in range(n):
        upper = 0
        for j in range(i + 1, n):
            if draw() < density:
                upper |= 1 << j
                rows[j] |= 1 << i
        rows[i] |= upper
    return rows


_P_CHOICES = (1, 2, 2, 3, 3, 4)
MIN_ATTEMPTS = 1000  # the sampler's least attempt cap, and its trip limit


def _propose(
    lemma: int, rng: random.Random, n: int
) -> Optional[LemmaInstance]:
    density = rng.uniform(0.55, 0.95)
    rows = _random_rows(rng, n, density)
    u = rng.randrange(n)
    if lemma == 4:
        # the rule needs u to see everything involved; make u near-universal
        for z in range(n):
            if z != u and rng.random() < 0.9:
                rows[u] |= 1 << z
                rows[z] |= 1 << u
    G = Graph._of(n, tuple(rows))  # each edge set at both ends
    budget = Budget(200_000, "instance synthesis")
    try:
        picked = _pick_exclusion(lemma, rng, G, u)
        if picked is None:
            return None
        fields, Q = picked
        excl = mask_of(fields.values()) if Q is None else Q.mask()
        p = rng.choice(_P_CHOICES)
        _, cands = _max_paths(G, u, G.full_mask & ~excl, p, budget)
        if Q is not None:  # rule 4: u must see all of P
            cands = [c for c in cands if _sees_all(G, u, mask_of(c))]
        if not cands:
            return None
        P = UPath(rng.choice(cands))
        admissible = _probe_end_filter(lemma, G, u, P, **fields)
        near = G.rows[u] if Q is not None else G.full_mask
        xs = [z for z in bits_of(near & ~(P.mask() | excl)) if admissible(z)]
        if Q is not None:  # rule 4: the probe is the edge ux
            return make_instance(lemma, G, u, P, Q, x=rng.choice(xs)) if xs else None
        rng.shuffle(xs)
        q_allowed = G.full_mask & ~(P.mask() & ~(1 << u) | excl)
        for x in xs:
            qp = first_upath_to(G, u, q_allowed, x, budget)
            if qp is not None:
                return make_instance(lemma, G, u, P, UPath(qp), **fields)
        return None
    except InputError:  # the instance failed its validation
        return None


def _pick_exclusion(
    lemma: int, rng: random.Random, G: Graph, u: int
) -> Optional[tuple[dict, Optional[UPath]]]:
    """One excluded choice at anchor u drawn at random, shaped like those of
    ``_exclusions``, or None when the draw finds none.  Rule 4's detached
    path has 1 to 3 vertices, all in N(u), and is written from its smaller
    end."""
    n = G.n
    if lemma == 3:
        w1, w2 = sorted(rng.sample([z for z in range(n) if z != u], 2))
        return {"w1": w1, "w2": w2}, None
    if lemma == 4:
        qv = rng.choice((1, 2, 2, 3))
        nu = G.rows[u]
        if nu.bit_count() < qv + 2:
            return None
        seq = [rng.choice(list(bits_of(nu)))]
        while len(seq) < qv:
            opts = [z for z in bits_of(G.rows[seq[-1]] & nu) if z not in seq]
            if not opts:
                return None
            seq.append(rng.choice(opts))
        if seq[0] > seq[-1]:
            seq.reverse()
        return {"w1": seq[0], "w2": seq[-1]}, UPath(tuple(seq))
    if lemma == 5:
        edges = [(a, b) for a, row in enumerate(G.rows) if a != u  # G.edges() off u
                 for b in bits_of(row & ~(1 << u) & -(2 << a))]
        if not edges:
            return None
        v, w = rng.choice(edges)
        if rng.random() < 0.5:
            v, w = w, v
        return {"v": v, "w": w}, None
    return {"w": rng.choice([z for z in range(n) if z != u])}, None


def _check_scope(lemma: int, n: int) -> None:
    """Both builders' one scope check, run before any work."""
    if type(lemma) is not int or lemma not in LEMMA_IDS:  # 3.0 == 3 and True == 1
        raise InputError(f"unknown lemma id {lemma}")
    if n < 1:
        raise InputError("host size must be positive")
    if n > MAX_INSTANCE_HOST:
        raise CapabilityError(f"instance hosts capped at n <= {MAX_INSTANCE_HOST}")


def sample_instances(
    lemma: int, n: int, count: int, seed: int
) -> tuple[list[LemmaInstance], int]:
    """Deterministic stream of valid instances on n-vertex hosts.

    Proposals failing precondition synthesis, their validation or a search
    budget are discarded; returns (instances, discarded), with fewer than
    ``count`` if the attempt cap (500 per requested instance, at least
    ``MIN_ATTEMPTS``) runs out.  Once ``MIN_ATTEMPTS`` proposals have
    tripped a budget with none kept, or when none survives and some budget
    tripped, the last such error raises.
    """
    for what, value in (("host size", n), ("instance count", count), ("seed", seed)):
        _checked_int(value, what)
    _check_scope(lemma, n)
    search_budget(MAXIMALITY_BUDGET)  # fails fast on a malformed ESOS_BUDGET
    if count < 0:
        raise InputError("instance count must be nonnegative")
    if n < 3 or count == 0:
        return [], 0
    rng = random.Random(seed)
    out: list[LemmaInstance] = []
    proposals = trips = 0
    cap = max(count * 500, MIN_ATTEMPTS)
    tripped = None
    while len(out) < count and proposals < cap:
        proposals += 1
        try:
            inst = _propose(lemma, rng, n)
        except CapabilityError as exc:
            inst, tripped, trips = None, exc, trips + 1
            if trips == MIN_ATTEMPTS and not out:
                break
        if inst is not None:
            out.append(inst)
    if not out and tripped is not None:
        raise tripped
    return out, proposals - len(out)


# -- exhaustive enumeration on a host ----------------------------------------------


def enumerate_instances(lemma: int, G: Graph) -> Iterator[LemmaInstance]:
    """Every valid instance on the host, desk scale only, in the one loop
    for every rule that the module docstring states."""
    n = G.n
    _check_scope(lemma, n)
    budget = Budget(search_budget(20_000_000), "instance enumeration")
    for u in range(n):
        nu = G.rows[u]
        for fields, Q in _exclusions(lemma, G, u, budget):
            excl = mask_of(fields.values()) if Q is None else Q.mask()
            for p in range(1, n + 1):
                _, cands = _max_paths(G, u, G.full_mask & ~excl, p, budget)
                if not cands:
                    break  # every longer u-path has one with p edges as its prefix
                for pseq in cands:
                    pmask = mask_of(pseq)
                    if Q is None:  # every u-path off V(P-u) and the excluded set
                        off = pmask & ~(1 << u)
                        probes = iter_upaths(G, u, G.full_mask & ~(off | excl), budget)
                    elif not _sees_all(G, u, pmask):  # rule 4: u must see all of P
                        continue
                    else:  # rule 4: the edges ux, x in N(u) off P and Q
                        probes = ((u, x) for x in bits_of(nu & ~(pmask | excl)))
                    # P and its filter are built at the first probe, so rule
                    # 5's attachment set (and any budget error in it) comes no
                    # earlier than an instance; one verdict is kept per x
                    P = admissible = None
                    verdicts: dict[int, bool] = {}
                    for q in probes:
                        x = q[-1]
                        ok = verdicts.get(x)
                        if ok is None:
                            if P is None:
                                P = UPath(pseq)
                                admissible = _probe_end_filter(lemma, G, u, P, **fields)
                            ok = verdicts[x] = admissible(x)
                        if ok:
                            probe = UPath(q) if Q is None else Q
                            yield make_instance(lemma, G, u, P, probe, x=x, **fields)


def _exclusions(
    lemma: int, G: Graph, u: int, budget: Budget
) -> Iterator[tuple[dict, Optional[UPath]]]:
    """The rule's excluded choices at anchor u, in enumeration order: its
    named vertices, and for rule 4 the detached path Q they end (else
    None).  Rule 4's paths are all walked inside N(u), since u must see all
    of Q, one orientation each, and sorted before the first is used."""
    n = G.n
    if lemma == 3:
        for w1 in range(n):
            for w2 in range(w1 + 1, n):
                if u not in (w1, w2):
                    yield {"w1": w1, "w2": w2}, None
    elif lemma == 4:
        nu = G.rows[u]
        walks = (iter_upaths(G, z, nu, budget, shortest=0) for z in bits_of(nu))
        for q in sorted(q for walk in walks for q in walk if q[0] <= q[-1]):
            yield {"w1": q[0], "w2": q[-1]}, UPath(q)
    elif lemma == 5:
        for v, w in G.edges():
            for vv, ww in ((v, w), (w, v)):
                if u not in (vv, ww):
                    yield {"v": vv, "w": ww}, None
    else:
        for w in range(n):
            if w != u:
                yield {"w": w}, None
