import dataclasses
import hashlib
import json
import random
import re
from itertools import combinations

import pytest

from oracles import (
    brute_max_inner_edges,
    brute_upath_counts,
    reference_argmax_paths,
    reference_attachment,
    reference_case_a_holds,
    reference_case_b_holds,
    reference_first_upath,
    reference_path_pair,
    reference_paths2_through,
    scan_balanced_split,
)

import esos.lemmas as lemmas_mod
import esos.paths as paths_mod
from esos.enumeration import enumerate_graphs, graphs_up_to
from esos.errors import Budget, CapabilityError, InputError, SoundnessError
from esos.graphs import (
    Graph,
    HCertificate,
    bit,
    bits_of,
    mask_of,
    recognize_H,
    verify_H_certificate,
)
from esos.harness import exhaustive_lemma_suite
from esos.lemmas import (
    CaseOutcome,
    LEMMA_IDS,
    analyze,
    enumerate_instances,
    make_instance,
    sample_instances,
    validate_instance,
    verify_outcome,
)
from esos.paths import UPath, longest_u_path, reroute_ends


def bowtie_plus():
    # two excluded vertices hang off a dense core; drives case C
    return Graph.from_edges(
        6,
        [(0, 1), (1, 2), (0, 2), (2, 3), (3, 0), (1, 3), (4, 1), (5, 2), (0, 4)],
    )


def test_make_instance_computes_surplus():
    # L = {1}, p = 1, and x = 2, w1 = 3, w2 = 4 each see vertex 1 of L, so
    # lambda = 2 e(x,L) + e(w1,L) + e(w2,L) - 2p = 2 + 1 + 1 - 2 = 2
    G = Graph.complete(5)
    inst = make_instance(3, G, 0, UPath((0, 1)), UPath((0, 2)), w1=3, w2=4)
    assert inst.surplus2 == 4 and inst.x == 2
    assert validate_instance(inst) == inst.ctx


def test_validation_rejects_non_maximizing_path():
    # rule 3 on the triangle 0-1-2 plus the path 0-3-4: with 5 and 6
    # excluded, the two-edge path 0-3-4 has fewer inner edges than 0-1-2
    G = Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)])
    with pytest.raises(InputError, match="P does not maximize inner edges"):
        make_instance(3, G, 0, UPath((0, 3, 4)), UPath((0, 1)), w1=5, w2=6)


def test_validation_rejects_overlapping_probe():
    G = Graph.complete(5)
    with pytest.raises(InputError):
        make_instance(3, G, 0, UPath((0, 1)), UPath((0, 1)), w1=3, w2=4)


def test_lemma3_case_a_forced():
    # P = 0-1; w1, w2 isolated from L; x sees all of L
    G = Graph.from_edges(5, [(0, 1), (0, 2), (2, 1), (0, 3)])
    inst = make_instance(3, G, 0, UPath((0, 1)), UPath((0, 2)), w1=3, w2=4)
    assert inst.surplus2 == 0
    out = analyze(inst)
    assert out.case == "A"
    assert verify_outcome(inst, out)


def test_lemma3_case_b_balanced_square():
    # V(P)+x induces a 4-cycle; the excluded pair sees half of L each
    G = Graph.from_edges(
        7,
        [(0, 1), (1, 2), (0, 3), (3, 2), (4, 2), (5, 2), (0, 6)],
    )
    inst = make_instance(3, G, 0, UPath((0, 1, 2)), UPath((0, 3)), w1=4, w2=5)
    assert inst.surplus2 == 0
    out = analyze(inst)
    assert out.case == "B"
    assert verify_H_certificate(G, out.certificate)
    assert out.certificate.vertex_mask() == 0b1111
    assert out.facts["p_half_matches"] == [1, 2]
    assert verify_outcome(inst, out)


def _balanced_split(G, pool, side):
    """The covering split of the pool when both sides have ``side`` vertices,
    as case B takes it, else None."""
    cert = recognize_H(G, pool)
    return cert if cert is not None and cert.a == cert.b == side else None


def test_balanced_splits_match_the_subset_scan():
    # every class with n <= 6 and every nonempty vertex set of even size
    for G in graphs_up_to(6):
        for vsmask in range(1, 1 << G.n):
            if vsmask.bit_count() % 2:
                continue
            side = vsmask.bit_count() // 2
            cert = _balanced_split(G, vsmask, side)
            got = None if cert is None else (cert.x_side, cert.y_side)
            assert got == scan_balanced_split(G, bits_of(vsmask), side), (G, vsmask)
            assert _balanced_split(G, vsmask, side + 1) is None


def test_lemma3_case_c_dense():
    G = Graph.complete(6)
    inst = make_instance(3, G, 0, UPath((0, 1, 2)), UPath((0, 3)), w1=4, w2=5)
    out = analyze(inst)
    assert out.case == "C"
    assert verify_outcome(inst, out)
    lp = out.paths[0]
    assert lp.anchor == 0 and lp.length >= 2


def test_lemma4_cases():
    G = Graph.complete(6)
    inst = make_instance(4, G, 0, UPath((0, 1, 2)), UPath((3, 4)), x=5)
    out = analyze(inst)
    assert out.case == "C"
    a, b = out.paths
    assert a.length == 2 and b.length == 3
    assert a.mask() & b.mask() == 1
    assert verify_outcome(inst, out)


def test_lemma5_case_a():
    # x sees all of L; the excluded edge vw is a detached component, so no
    # length-2 companion through w exists and case C is impossible
    G = Graph.from_edges(5, [(0, 1), (0, 2), (2, 1), (3, 4)])
    inst = make_instance(5, G, 0, UPath((0, 1)), UPath((0, 2)), v=3, w=4)
    assert inst.surplus2 == 0
    out = analyze(inst)
    assert out.case == "A"
    assert verify_outcome(inst, out)


def test_lemma5_case_c_wide_companion():
    G = Graph.complete(6)
    inst = make_instance(5, G, 0, UPath((0, 1, 2)), UPath((0, 3)), v=4, w=5)
    out = analyze(inst)
    assert out.case == "C"
    pp, r = out.paths
    assert pp.length == 2 and r.length == 2
    assert bit(5) & r.mask()
    assert not pp.mask() & r.mask()
    assert verify_outcome(inst, out)


def test_lemma6_case_a_when_w_detached():
    # p odd kills case B, the isolated w kills case C, x sees all of L:
    # the e(w,L)=0 arm of case A is forced
    G = Graph.from_edges(5, [(0, 1), (1, 3), (0, 3)])
    inst = make_instance(6, G, 0, UPath((0, 1)), UPath((0, 3)), w=4)
    assert inst.surplus2 == 0
    out = analyze(inst)
    assert out.case == "A"
    assert out.facts["e_w_L"] == 0
    assert verify_outcome(inst, out)


def test_lemma6_case_b_square():
    G = Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 3), (3, 2), (4, 2), (0, 5), (5, 4)]
    )
    inst = make_instance(6, G, 0, UPath((0, 1, 2)), UPath((0, 3)), w=4)
    out = analyze(inst)
    assert verify_outcome(inst, out)


def test_analyzer_order_prefers_c():
    # a dense host admits replacement paths, so C must win even though the
    # surplus is 0 and a balanced split also exists
    G = Graph.complete(4)
    inst = make_instance(6, G, 0, UPath((0, 1)), UPath((0, 2)), w=3)
    out = analyze(inst)
    assert out.case == "C"


def test_sample_instances_deterministic_and_validated():
    a, da = sample_instances(3, 6, 10, seed=1)
    b, db = sample_instances(3, 6, 10, seed=1)
    assert [i.to_json() for i in a] == [i.to_json() for i in b]
    assert (da, db) == (da, da)
    assert len(a) == 10
    for inst in a:
        validate_instance(inst)
    assert sample_instances(5, 6, 0, seed=3) == ([], 0)
    insts, _ = sample_instances(4, 2, 5, seed=9)
    assert insts == []


def test_each_instance_is_validated_once_when_it_is_made(monkeypatch):
    # analyze and verify_outcome read the context stored at construction
    calls = []
    real = lemmas_mod.validate_instance
    monkeypatch.setattr(
        lemmas_mod, "validate_instance", lambda inst: calls.append(inst) or real(inst)
    )
    for lemma in LEMMA_IDS:
        calls.clear()
        report = exhaustive_lemma_suite(lemma, 5)
        assert report.ok
        assert len(calls) == report.counts["instances"] > 0
        calls.clear()
        insts, discarded = sample_instances(lemma, 7, 25, seed=lemma)
        made = len(calls)
        assert len(insts) <= made <= len(insts) + discarded
        for inst in insts:
            assert verify_outcome(inst, analyze(inst))
        assert len(calls) == made


def test_sampled_outcomes_verify_for_all_lemmas():
    for lem in LEMMA_IDS:
        insts, _ = sample_instances(lem, 7, 25, seed=lem)
        assert insts, f"no instances for rule {lem}"
        for inst in insts:
            out = analyze(inst)
            assert verify_outcome(inst, out), (lem, inst.to_json(), out.to_json())


def test_exhaustive_instances_small_host():
    G = Graph.complete(5)
    seen = {3: 0, 4: 0, 5: 0, 6: 0}
    for lem in LEMMA_IDS:
        for inst in enumerate_instances(lem, G):
            seen[lem] += 1
            out = analyze(inst)
            assert verify_outcome(inst, out)
    assert all(v > 0 for v in seen.values())


def test_verify_outcome_rejects_tampered_witness():
    G = Graph.complete(6)
    inst = make_instance(3, G, 0, UPath((0, 1, 2)), UPath((0, 3)), w1=4, w2=5)
    out = analyze(inst)
    assert out.case == "C"
    bad = CaseOutcome(
        "C",
        out.facts,
        paths=(UPath((0, 1)),),
        detail=out.detail,
    )
    assert not verify_outcome(inst, bad)
    assert not verify_outcome(inst, CaseOutcome("A", {}))


def _split_claims(inst):
    """Case-B claims for the balanced split of every vertex set of
    2 * (p//2 + 1) vertices inside V(P)+x (V(P)+{x,v} for rule 5), each
    way round."""
    side = inst.p_path.length // 2 + 1
    pool = inst.p_path.mask() | bit(inst.x) | (bit(inst.v) if inst.lemma == 5 else 0)
    for verts in combinations(bits_of(pool), 2 * side):
        cert = _balanced_split(inst.graph, mask_of(verts), side)
        if cert is not None:
            for sides in ((cert.x_side, cert.y_side), (cert.y_side, cert.x_side)):
                yield CaseOutcome("B", {}, certificate=HCertificate(*sides))


def _reference_verdict(inst, claim):
    """What the witness check must say on a valid instance, for any claim
    but a genuine case-C one."""
    if claim.case == "A":
        return reference_case_a_holds(inst)
    if claim.case == "B":
        return reference_case_b_holds(inst, claim.certificate)
    return False  # C without the analyzer's paths, or no case at all


def test_verify_outcome_matches_the_reference_cases_exhaustive_n6():
    # every instance with n <= 6: a bare case-A claim, and at surplus 0 every
    # balanced split inside the pool claimed as case B; no split is case B
    # at odd p, though some of them fit the pool at the right size
    accepted = {"A": 0, "B": 0}
    odd_splits = 0
    for lem in LEMMA_IDS:
        for G in graphs_up_to(6):
            for inst in enumerate_instances(lem, G):
                claims = [CaseOutcome("A", {})]
                if inst.surplus2 == 0:
                    claims += _split_claims(inst)
                for claim in claims:
                    got = verify_outcome(inst, claim)
                    assert got == _reference_verdict(inst, claim), (
                        inst.to_json(),
                        claim.to_json(),
                    )
                    accepted[claim.case] += got
                    if claim.case == "B" and inst.p_path.length % 2:
                        assert not got
                        odd_splits += verify_H_certificate(G, claim.certificate)
    assert accepted["A"] > 0 and accepted["B"] > 0
    assert odd_splits > 0


def test_verify_outcome_matches_the_reference_cases_on_tamperings():
    # seeded instances at n = 5..10 and their real outcomes relabelled,
    # random splits near the pool and anywhere, and every split in the pool
    rng = random.Random(5)
    seen = {True: 0, False: 0}
    for lem in LEMMA_IDS:
        for n in range(5, 11):
            insts, _ = sample_instances(lem, n, 10, seed=100 * lem + n)
            for inst in insts:
                out = analyze(inst)
                claims = [
                    dataclasses.replace(out, case=c) for c in "ABCD" if c != out.case
                ]
                side = inst.p_path.length // 2 + 1
                near = list(inst.p_path.vertices) + [inst.x, rng.randrange(n)]
                for verts in (near, range(n)):
                    verts = sorted(set(verts))
                    chosen = rng.sample(verts, min(len(verts), 2 * side))
                    cut = rng.randint(1, len(chosen) - 1)
                    x_side, y_side = frozenset(chosen[:cut]), frozenset(chosen[cut:])
                    cert = HCertificate(x_side, y_side)
                    claims.append(CaseOutcome("B", {}, certificate=cert))
                claims += _split_claims(inst)
                for claim in claims:
                    got = verify_outcome(inst, claim)
                    assert got == _reference_verdict(inst, claim), (
                        inst.to_json(),
                        claim.to_json(),
                    )
                    seen[got] += 1
    assert seen[True] > 0 and seen[False] > 0


def test_enumerators_stop_at_the_first_length_without_a_path(monkeypatch):
    # a u-path with more edges would have one with p edges as its prefix
    calls = []
    real = lemmas_mod._max_paths

    def spy(G, u, allowed, p, budget):
        got = real(G, u, allowed, p, budget)
        calls.append((p, got[0] is None))
        return got

    monkeypatch.setattr(lemmas_mod, "_max_paths", spy)
    for G in enumerate_graphs(4):
        for lem in LEMMA_IDS:
            for _ in enumerate_instances(lem, G):
                pass
    assert any(empty for _, empty in calls)
    for (_, empty), (p, _) in zip(calls, calls[1:]):
        assert p == 1 or not empty


def test_max_paths_match_brute_oracle(monkeypatch):
    # building and validating instances share this search, so pin it to an
    # independent oracle; each case runs cold, then warm from the memo
    monkeypatch.setattr(paths_mod, "_memo", {})
    for n in range(1, 6):
        for G in enumerate_graphs(n):
            for u in range(n):
                for size in range(3):
                    for excl in combinations(range(n), size):
                        allowed = G.full_mask & ~mask_of(excl)
                        counts = brute_upath_counts(G, u, bits_of(allowed))
                        for p in range(n + 1):
                            want = brute_max_inner_edges(G, u, bits_of(allowed), p)
                            cold, warm = Budget(10**9), Budget(10**9)
                            got = lemmas_mod._max_paths(G, u, allowed, p, cold)
                            again = lemmas_mod._max_paths(G, u, allowed, p, warm)
                            assert (got[0], list(got[1])) == want, (G, u, excl, p)
                            # one node per vertex placed: each path of 1..p edges
                            assert cold.used == sum(counts[1 : p + 1])
                            assert again == got and warm.used == cold.used


def test_max_paths_trip_at_the_limits_next_node(monkeypatch):
    # each search runs cold and spends one node per vertex placed; one node
    # short of that, it raises the per-node search's text
    for G in graphs_up_to(5):
        n = G.n
        for u in range(n):
            for size in range(3):
                for excl in combinations(range(n), size):
                    allowed = G.full_mask & ~mask_of(excl)
                    counts = brute_upath_counts(G, u, bits_of(allowed))
                    for p in range(n + 1):
                        nodes = sum(counts[1 : p + 1])
                        if not nodes:
                            continue
                        monkeypatch.setattr(paths_mod, "_memo", {})
                        short = Budget(nodes - 1, "maximality check")
                        with pytest.raises(CapabilityError) as tripped:
                            lemmas_mod._max_paths(G, u, allowed, p, short)
                        assert str(tripped.value) == (
                            f"maximality check budget exceeded ({nodes} > {nodes - 1} nodes)"
                        )
                        exact = Budget(nodes, "maximality check")
                        lemmas_mod._max_paths(G, u, allowed, p, exact)
                        assert exact.used == nodes, (G, u, excl, p)


def _seeded_maximality_cases():
    # dense random hosts past enumeration's reach, each with a drawn anchor
    # and up to 2 excluded vertices, at p = 0..6
    rng = random.Random(40)
    for n in range(7, 13):
        for _ in range(3):
            density = rng.uniform(0.55, 0.95)
            edges = [e for e in combinations(range(n), 2) if rng.random() < density]
            G = Graph.from_edges(n, edges)
            u = rng.randrange(n)
            allowed = G.full_mask & ~mask_of(rng.sample(range(n), rng.randrange(3)))
            for p in range(7):
                yield G, u, allowed, p


def _same_search(G, u, allowed, p):
    want, got = Budget(10**9), Budget(10**9)
    expected = reference_argmax_paths(G, u, allowed, p, want)
    assert lemmas_mod._argmax_paths(G, u, allowed, p, got) == expected, (G, u, allowed, p)
    assert got.used == want.used, (G, u, allowed, p)
    return want.used


def test_argmax_paths_matches_the_per_node_search_on_every_6_vertex_class():
    # the one-pass end scoring returns the per-node search's best, its paths
    # in its order and its node count: every anchor, every exclusion of at
    # most 2 vertices and every p
    for G in enumerate_graphs(6):
        for u in range(6):
            for size in range(3):
                for excl in combinations(range(6), size):
                    allowed = G.full_mask & ~mask_of(excl)
                    for p in range(7):
                        _same_search(G, u, allowed, p)


def test_argmax_paths_matches_the_per_node_search_on_dense_hosts():
    # the same on seeded hosts with n = 7..12; one node short of the count,
    # and at a drawn earlier limit, it trips where and as the reference does
    rng = random.Random(41)
    for G, u, allowed, p in _seeded_maximality_cases():
        nodes = _same_search(G, u, allowed, p)
        for limit in sorted({nodes - 1, rng.randrange(nodes)}) if nodes else ():
            texts = []
            for search in (reference_argmax_paths, lemmas_mod._argmax_paths):
                short = Budget(limit, "maximality check")
                with pytest.raises(CapabilityError) as tripped:
                    search(G, u, allowed, p, short)
                texts.append((str(tripped.value), short.used))
            assert texts[0] == texts[1] == (
                f"maximality check budget exceeded ({limit + 1} > {limit} nodes)",
                limit + 1,
            )


def test_warm_maximality_memo_follows_the_budget(monkeypatch):
    G = Graph.complete(7)
    inst = make_instance(6, G, 0, UPath((0, 1, 2, 3)), UPath((0, 4)), w=6)
    allowed = G.full_mask & ~bit(6)

    # a hit charges the budget what the search spent, without searching
    monkeypatch.setattr(paths_mod, "_memo", {})
    miss = Budget(10**9)
    lemmas_mod._max_paths(G, 0, allowed, 3, miss)

    def no_search(*args):
        raise AssertionError("a memo hit must not search")

    with monkeypatch.context() as m:
        m.setattr(lemmas_mod, "_argmax_paths", no_search)
        hit = Budget(10**9)
        lemmas_mod._max_paths(G, 0, allowed, 3, hit)
    assert hit.used == miss.used > 0

    # the instance's own maximality search overflows halfway through
    limit = str(miss.used // 2)
    monkeypatch.setenv("ESOS_BUDGET", limit)
    monkeypatch.setattr(paths_mod, "_memo", {})
    with pytest.raises(CapabilityError) as cold:
        validate_instance(inst)

    monkeypatch.delenv("ESOS_BUDGET")
    monkeypatch.setattr(paths_mod, "_memo", {})
    inst = dataclasses.replace(inst)  # made again, so the memo is warm
    out = analyze(inst)
    assert verify_outcome(inst, out)
    monkeypatch.setenv("ESOS_BUDGET", limit)
    with monkeypatch.context() as m:
        m.setattr(lemmas_mod, "_argmax_paths", no_search)
        with pytest.raises(CapabilityError) as warm:
            validate_instance(inst)
        # the budget in force when an instance is made governs its validation
        with pytest.raises(CapabilityError) as remade:
            dataclasses.replace(inst)
    assert str(warm.value) == str(cold.value) == str(remade.value)
    assert "maximality check" in str(warm.value)


def test_warm_attachment_memo_follows_the_budget(monkeypatch):
    G = Graph.complete(6)
    monkeypatch.setattr(paths_mod, "_memo", {})
    assert lemmas_mod._attachment_set(G, 0, 5, 0b111, 2) == 0b110
    monkeypatch.setenv("ESOS_BUDGET", "1")

    def no_search(*args):
        raise AssertionError("a memo hit must not search")

    with monkeypatch.context() as m:
        m.setattr(lemmas_mod, "on_every_upath", no_search)
        with pytest.raises(CapabilityError, match="longest_u_path") as warm:
            lemmas_mod._attachment_set(G, 0, 5, 0b111, 2)
    monkeypatch.setattr(paths_mod, "_memo", {})
    with pytest.raises(CapabilityError) as cold:
        lemmas_mod._attachment_set(G, 0, 5, 0b111, 2)
    assert str(warm.value) == str(cold.value)


def test_node_tallies_do_not_depend_on_the_memo(monkeypatch):
    # every budgeted memo hit charges what its cold search spent, so the
    # nodes summed per budget label are the same whether the memo keeps
    # every entry or evicts at once
    def tallies(size):
        budgets = []
        made = Budget.__init__

        def init(budget, *args):
            made(budget, *args)
            budgets.append(budget)

        with monkeypatch.context() as m:
            m.setattr(Budget, "__init__", init)
            m.setattr(paths_mod, "_memo", {})
            m.setattr(paths_mod, "MEMO_SIZE", size)
            for n in (7, 9):
                insts, _ = sample_instances(5, n, 60, seed=3)
                for inst in insts:
                    assert verify_outcome(inst, analyze(inst))
        out = {}
        for budget in budgets:
            out[budget.label] = out.get(budget.label, 0) + budget.used
        return out

    warm = tallies(512)
    assert warm["longest_u_path"] > 0
    assert warm == tallies(1)


def test_attachment_sets_match_the_reference(monkeypatch):
    # every attachment set the rule-5 enumeration asks for on a class with
    # n <= 6, computed again cold and checked against its definition
    asked = set()
    real = lemmas_mod._attachment_set

    def spy(G, u, w, p_mask, p):
        asked.add((G, u, w, p_mask, p))
        return real(G, u, w, p_mask, p)

    with monkeypatch.context() as m:
        m.setattr(lemmas_mod, "_attachment_set", spy)
        for G in graphs_up_to(6):
            for _ in enumerate_instances(5, G):
                pass
    assert len(asked) > 1000
    for G, u, w, p_mask, p in asked:
        monkeypatch.setattr(paths_mod, "_memo", {})
        got = lemmas_mod._attachment_set(G, u, w, p_mask, p)
        want = reference_attachment(G, u, w, bits_of(p_mask), p)
        assert set(bits_of(got)) == want, (G, u, w, p_mask, p)


def _case_searches(monkeypatch, lemma):
    """The rule's instances on the classes with n <= 6, one per distinct
    (host, u, P, x, w, q), each with the analyzer's outcome and the nodes
    its case search spent."""
    spent = []

    class Recorded(Budget):
        __slots__ = ()

        def __init__(self, limit, label="search"):
            super().__init__(limit, label)
            if label == f"lemma {lemma} case search":
                spent.append(self)

    monkeypatch.setattr(lemmas_mod, "Budget", Recorded)
    seen = set()
    for G in graphs_up_to(6):
        for inst in enumerate_instances(lemma, G):
            key = (G.rows, inst.u, inst.p_path.mask(), inst.x, inst.w, inst.ctx.q)
            if key not in seen:
                seen.add(key)
                out = analyze(inst)
                yield inst, out, spent[-1].used


def test_rule4_pair_search_matches_the_nested_walks(monkeypatch):
    # case C asks for two u-paths of lengths p and q+1 sharing only u; the
    # placement search finds the nested walks' pair and charges their
    # nodes, or no more when the lengths are equal: its equal-leg floor
    # skips only mirror images of pairs the walks reject
    counts = {"C": 0, "equal": 0, "fewer": 0}
    for inst, out, used in _case_searches(monkeypatch, 4):
        p, q = inst.ctx.p, inst.ctx.q
        walked = Budget(10**9)
        pair = reference_path_pair(inst.graph, inst.u, *sorted((p, q + 1)), walked)
        if pair is None:
            assert out.case != "C"
        else:
            counts["C"] += 1
            if p > q + 1:
                pair = pair[::-1]
            assert out.case == "C" and tuple(P.vertices for P in out.paths) == pair
        if p != q + 1:
            assert used == walked.used
        else:
            counts["equal"] += 1
            assert used <= walked.used
            counts["fewer"] += used < walked.used
    assert min(counts.values()) > 0, counts


def test_rule6_companion_search_matches_the_first_of_walks(monkeypatch):
    # the two-vertex companion: for each edge wz in ascending z (z != u),
    # the first u-path with p edges inside (V(P) + x) - z; the placement
    # search finds the walk's path and charges exactly its nodes
    found = 0
    for inst, out, used in _case_searches(monkeypatch, 6):
        G, u, w, p = inst.graph, inst.u, inst.w, inst.ctx.p
        walked = Budget(10**9)
        want = None
        for z in bits_of(G.rows[w] & ~bit(u)):
            allowed = bits_of((inst.p_path.mask() | bit(inst.x)) & ~bit(z))
            got = reference_first_upath(G, u, allowed, p, walked)
            if got is not None:
                want = (got, (w, z))
                break
        if want is None:
            assert out.detail.get("r_size") != 2
        else:
            found += 1
            assert out.detail == {"r_size": 2}
            assert tuple(P.vertices for P in out.paths) == want
        assert used == walked.used
    assert found > 0


def test_paths2_through_matches_the_sorted_reference():
    # the list is sorted and holds each path once: every w of every class with n <= 6, and of seeded hosts at n = 10..12
    rng = random.Random(30)
    hosts = list(graphs_up_to(6))
    for n in (10, 11, 12):
        for density in (0.2, 0.5, 0.8):
            for _ in range(5):
                edges = [e for e in combinations(range(n), 2) if rng.random() < density]
                hosts.append(Graph.from_edges(n, edges))
    for G in hosts:
        for w in range(G.n):
            assert lemmas_mod._paths2_through(G, w) == reference_paths2_through(G, w)


@pytest.mark.parametrize("lemma", LEMMA_IDS)
def test_enumeration_asks_each_probe_end_once_and_builds_each_P_once(monkeypatch, lemma):
    # P's UPath and admissibility filter are built when its first probe
    # arrives, and the filter is asked once per probe end x; so one UPath
    # per P with a probe, shared by every instance it yields, and besides
    # it one UPath per probe (rule 4: per detached path)
    built, filters, exclusions = [], [], []
    real_upath, real_filter = lemmas_mod.UPath, lemmas_mod._probe_end_filter
    real_exclusions = lemmas_mod._exclusions

    def counted_upath(vertices):
        built.append(real_upath(vertices))
        return built[-1]

    def counted_filter(lemma, G, u, P, **fields):
        admissible, asked = real_filter(lemma, G, u, P, **fields), []
        filters.append((P, asked))

        def ask(x):
            asked.append((x, admissible(x)))
            return asked[-1][1]

        return ask

    def counted_exclusions(*args):
        for got in real_exclusions(*args):
            exclusions.append(got)
            yield got

    monkeypatch.setattr(lemmas_mod, "UPath", counted_upath)
    monkeypatch.setattr(lemmas_mod, "_probe_end_filter", counted_filter)
    monkeypatch.setattr(lemmas_mod, "_exclusions", counted_exclusions)
    insts = [inst for G in graphs_up_to(5) for inst in enumerate_instances(lemma, G)]
    assert insts and filters
    for P, asked in filters:
        ends = [x for x, _ in asked]
        assert ends and len(ends) == len(set(ends))  # one verdict per (P, x)
    filtered = {id(P) for P, _ in filters}
    assert len(filtered) == len(filters) and filtered <= {id(P) for P in built}
    yielding = {id(P) for P, asked in filters if any(ok for _, ok in asked)}
    assert {id(inst.p_path) for inst in insts} == yielding
    probes = len(exclusions) if lemma == 4 else len(insts)
    assert len(built) == len(filters) + probes


def test_one_memo_holds_every_query_kind_within_its_size(monkeypatch):
    # a mixed run of lemma and path queries fills the one search memo, which
    # keys each entry by its query name and never grows past MEMO_SIZE, here
    # shrunk so that the run evicts
    kinds, sizes = set(), []

    class Watched(dict):
        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            kinds.add(key[0])
            sizes.append(len(self))

    monkeypatch.setattr(paths_mod, "_memo", Watched())
    monkeypatch.setattr(paths_mod, "MEMO_SIZE", 4)
    G = Graph.complete(6)
    for inst in (
        make_instance(5, G, 0, UPath((0, 1, 2)), UPath((0, 5)), v=3, w=4),
        make_instance(6, G, 0, UPath((0, 1, 2)), UPath((0, 5)), w=4),
    ):
        assert verify_outcome(inst, analyze(inst))
    assert longest_u_path(G, 0).length == 5
    assert reroute_ends(G, UPath((0, 1, 2))) == {1, 2}  # keeps no entry
    assert kinds == {"maximal", "attachment", "longest", "reroute"}
    assert len(sizes) > 4 and max(sizes) == len(paths_mod._memo) == 4


# SHA-256 of each rule's instance streams, one sorted-key JSON line of
# to_json() per instance: sample_instances(R, 7, 25, seed=R), then
# enumerate_instances(R, G) over every host with n <= 5.  ENUMERATION_NODES
# is what the enumeration's "instance enumeration" budget spends on those
# hosts, summed; a memo hit charges the nodes of a cold search, so it does
# not depend on what ran before.
STREAM_DIGESTS = {
    3: (
        "1ee4f65478a262b2d4405783a5d326b866459b998e5c2873ee836c7bc18638cb",
        "0dc2e25ee5dc220e2702177bce056789bcf16b1bd4069fade56250ee5321e4c4",
    ),
    4: (
        "2bc2e17b50da4f27b3d017c379c4a621ea7410e1d14803e7b85109265e29b1e9",
        "93e098fd905d9ccffaf697dde2bb042ce4ddff8e8ea01ebc3a7d1da7cee2f9af",
    ),
    5: (
        "d631a18f7755156c2a3f3b7de1d4276cb8f64049e2797384f8a66e752dfe93b8",
        "8cdf6613bb5442898dc0d4735035167f40cdd39316eeb33286b13428270f6f46",
    ),
    6: (
        "1b9e93cf7ac20954c93e42afabd80e3ded70e8838cf5b699be32ad15ee425587",
        "ac098458eb6fea96c8732d48f3146252f2c7e7b04b68d5612dea85434a435c8c",
    ),
}


ENUMERATION_NODES = {3: 4444, 4: 6954, 5: 4928, 6: 10798}


def _stream_digest(insts) -> str:
    h = hashlib.sha256()
    for inst in insts:
        h.update(json.dumps(inst.to_json(), sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def test_instance_streams_are_pinned(monkeypatch):
    spent = []

    class Recorded(Budget):
        __slots__ = ()

        def __init__(self, limit, label="search"):
            super().__init__(limit, label)
            if label == "instance enumeration":
                spent.append(self)

    monkeypatch.setattr(lemmas_mod, "Budget", Recorded)
    for lemma in LEMMA_IDS:
        spent.clear()
        sampled, _ = sample_instances(lemma, 7, 25, seed=lemma)
        enumerated = (
            inst for G in graphs_up_to(5) for inst in enumerate_instances(lemma, G)
        )
        got = (_stream_digest(sampled), _stream_digest(enumerated))
        assert got == STREAM_DIGESTS[lemma], lemma
        assert sum(b.used for b in spent) == ENUMERATION_NODES[lemma], lemma


# sample_instances(R, n, 25, seed=100 * R + n) at the host sizes the pin
# above leaves out: SHA-256 of the stream (as in STREAM_DIGESTS) and the
# number of proposals discarded on the way.
SAMPLE_PINS = {
    (3, 5): ("76f095071441f66a72d2fc6e571fa28ea1fb6393922709321f5945e5367b6cae", 270),
    (3, 6): ("623571a588f32bac3559de2ad5545c423eb82e5d862f52d42abfdd0040dfb253", 48),
    (3, 8): ("bc293b4d70f847dac6e088c5a9ddcfc6debba226e75ad868c26afb0c8c1e6dab", 11),
    (3, 9): ("0171b8cc97614c8916a28b7dd92f6bfbdb47f10c923d85595821e826f924cb93", 5),
    (3, 10): ("6f5b61bb7f3ba4ef7bfb9ba3ea33e63cf758d318e187fe7e1ceefb987f4ee718", 1),
    (4, 5): ("3a948d4bbb3e124597f674714b117bf8a4ac2c6b5dd9b69db905dfa767b4c767", 152),
    (4, 6): ("658d93b3c1d296879ac8be3d6fcbe79a606fc9ee460c6d80cd29816d7141eb67", 23),
    (4, 8): ("bc9a164952817e90dab86d1db685818995565e00185c17ce5651403da0c51d1e", 1),
    (4, 9): ("00df3e4a0957a1fab20d1dbc48a6cb5327fb4bbfde55522f426e0819f7938e7f", 1),
    (4, 10): ("a88e617f53681cafea669667632d449f5256207d8966c64384528955eedfbd10", 1),
    (5, 5): ("cfecd3d4769b48f0c9c7eb2cb5d8475f7a6c539220c966a1462e2106d38fad2b", 313),
    (5, 6): ("5ea2ceb32f1a5200228aefbff3fbd5c66ba06b79b949bed78d92676dc740e25c", 66),
    (5, 8): ("0e323835a1f49af7dcfa2ace2511408124f5d7d4fce9aca803dfb5ed8a097fee", 14),
    (5, 9): ("c9f452410d87e420da568b41decb713839b8406d69d77b1160d14dd13e934438", 3),
    (5, 10): ("50a37ae7f205137f3383d99e7b8b47aaa325c94e12576cae30488140222bd426", 2),
    (6, 5): ("f57451e6a8ccce601cab4e802655ef3d42888e695906c968e46cf6cf83555a1b", 85),
    (6, 6): ("caf4346de5e364564d441405f18686064884ba7885e1ab79b52d66e3f02ae3e8", 10),
    (6, 8): ("19ce54ab94c8aa07f31f4e9efff4b24a467e412f648580c28c6814a25c270e11", 1),
    (6, 9): ("5e87af488bef893556da12d7af3d6e3cea4960375e3ea5685a42ffabe9c1e934", 1),
    (6, 10): ("03c03bd50a58813bc0faaa1f56925254cd395596a1f424d17168457ca0279b45", 1),
}


@pytest.mark.parametrize("lemma, n", sorted(SAMPLE_PINS))
def test_sampled_streams_are_pinned_at_every_host_size(lemma, n):
    sampled, discarded = sample_instances(lemma, n, 25, seed=100 * lemma + n)
    assert len(sampled) == 25
    assert (_stream_digest(sampled), discarded) == SAMPLE_PINS[lemma, n]


@pytest.mark.parametrize("n", [-5, 0])
def test_sample_instances_refuses_a_host_size_below_one(monkeypatch, n):
    # -5 used to sample nothing and return ([], 0), like a host too small
    # for the rule
    drawn = []
    monkeypatch.setattr(lemmas_mod, "_propose", lambda *args: drawn.append(args))
    with pytest.raises(InputError, match="^host size must be positive$"):
        sample_instances(3, n, 10, seed=0)
    assert not drawn
    assert sample_instances(3, 1, 10, seed=0) == sample_instances(3, 2, 10, seed=0) == ([], 0)


def test_a_valid_instance_that_matches_no_case_is_a_soundness_error(monkeypatch):
    # the analyzers' shared tail raises when neither B nor A holds, which a
    # valid instance never reaches; stub both out to reach it
    inst = next(enumerate_instances(3, Graph.complete(5)))
    monkeypatch.setattr(lemmas_mod, "_split_pools", lambda inst: [])
    monkeypatch.setattr(lemmas_mod, "_degenerate", lambda inst: None)
    with pytest.raises(SoundnessError, match="^no case matched a valid lemma-3 instance: "):
        lemmas_mod._split_or_degenerate(inst)


def test_sample_instances_rejects_a_negative_count():
    with pytest.raises(InputError):
        sample_instances(3, 7, -1, seed=0)
    assert sample_instances(3, 7, 0, seed=0) == ([], 0)
    assert sample_instances(3, 2, 5, seed=0) == ([], 0)


@pytest.mark.parametrize(
    "n, count, what",
    [(7.5, 2, "host size"), (7, 2.5, "instance count"), (True, 2, "host size"),
     (7, False, "instance count")],
)
def test_sample_instances_rejects_non_integer_sizes(monkeypatch, n, count, what):
    # 7.5 raised a bare TypeError and a count of 2.5 returned 3 instances;
    # both are refused before the first draw
    drawn = []
    monkeypatch.setattr(lemmas_mod, "_propose", lambda *args: drawn.append(args))
    bad = n if what == "host size" else count
    text = f"{what} {bad!r} is not an integer"
    with pytest.raises(InputError, match=f"^{re.escape(text)}$"):
        sample_instances(3, n, count, seed=1)
    assert not drawn


@pytest.mark.parametrize("lemma", LEMMA_IDS)
def test_sample_instances_rejects_a_malformed_budget(monkeypatch, lemma):
    # rules 3, 4 and 6 used to discard every proposal instead
    monkeypatch.setenv("ESOS_BUDGET", "abc")
    with pytest.raises(InputError, match="ESOS_BUDGET is not an integer"):
        sample_instances(lemma, 7, 1, seed=0)


@pytest.mark.parametrize("lemma", LEMMA_IDS)
def test_sample_instances_rejects_a_negative_budget(monkeypatch, lemma):
    # not a budget every proposal trips, which the sampler would discard
    monkeypatch.setenv("ESOS_BUDGET", "-5")
    with pytest.raises(InputError, match="^ESOS_BUDGET is negative: '-5'$"):
        sample_instances(lemma, 7, 1, seed=0)


def test_a_sample_whose_every_proposal_trips_stops_at_the_floor(monkeypatch):
    # 1,000 tripped proposals with none kept end the sample, not the attempt
    # cap of 500 per requested instance; once one is kept, trips go on
    calls = []

    def tripping(*args):
        calls.append(1)
        if len(calls) == 1 and keep_first:
            return "kept"
        raise CapabilityError("tripped")

    monkeypatch.setattr(lemmas_mod, "_propose", tripping)
    keep_first = False
    with pytest.raises(CapabilityError, match="^tripped$"):
        sample_instances(5, 7, 1000, seed=0)
    assert len(calls) == lemmas_mod.MIN_ATTEMPTS == 1000
    calls.clear()
    keep_first = True
    assert sample_instances(5, 7, 3, seed=0) == (["kept"], 1499)
    assert len(calls) == 1500


@pytest.mark.parametrize("error", [InputError, CapabilityError])
def test_a_proposal_whose_construction_raises_is_discarded(monkeypatch, error):
    # no seeded proposal fails its validation today; this pins the count if
    # one does.  When every proposal trips a budget, the sample is a budget
    # error, not an empty one: the last CapabilityError is raised after the
    # attempt cap runs out
    proposals = []
    propose = lemmas_mod._propose

    def refuse(inst):
        raise error("refused")

    monkeypatch.setattr(lemmas_mod, "validate_instance", refuse)
    monkeypatch.setattr(
        lemmas_mod, "_propose", lambda *args: proposals.append(1) or propose(*args)
    )
    if error is InputError:
        assert sample_instances(3, 6, 1, seed=0) == ([], 1000)
    else:
        with pytest.raises(CapabilityError, match="^refused$"):
            sample_instances(3, 6, 1, seed=0)
    assert len(proposals) == 1000
