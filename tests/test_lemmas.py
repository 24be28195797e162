import dataclasses
import hashlib
import json
from itertools import combinations

import pytest

from oracles import brute_max_inner_edges, scan_balanced_split

import esos.lemmas as lemmas_mod
from esos.enumeration import enumerate_graphs, graphs_up_to
from esos.errors import Budget, CapabilityError, InputError
from esos.graphs import Graph, bit, bits_of, mask_of, verify_H_certificate
from esos.lemmas import (
    CaseOutcome,
    LEMMA_IDS,
    analyze,
    compute_surplus2,
    enumerate_instances,
    make_instance,
    sample_instances,
    validate_instance,
    verify_outcome,
)
from esos.paths import UPath


def bowtie_plus():
    # two excluded vertices hang off a dense core; drives case C
    return Graph.from_edges(
        6,
        [(0, 1), (1, 2), (0, 2), (2, 3), (3, 0), (1, 3), (4, 1), (5, 2), (0, 4)],
    )


def test_make_instance_computes_surplus():
    G = Graph.complete(5)
    P = UPath((0, 1))
    Q = UPath((0, 2))
    inst = make_instance(3, G, 0, P, Q, w1=3, w2=4)
    want = compute_surplus2(3, G, 0, P, 2, w1=3, w2=4)
    assert inst.surplus2 == want and inst.x == 2
    validate_instance(inst)


def test_validation_rejects_corrupted_surplus():
    G = Graph.complete(5)
    inst = make_instance(3, G, 0, UPath((0, 1)), UPath((0, 2)), w1=3, w2=4)
    broken = dataclasses.replace(inst, surplus2=inst.surplus2 + 2)
    with pytest.raises(InputError):
        validate_instance(broken)
    with pytest.raises(InputError):
        analyze(broken)


def test_validation_rejects_non_maximizing_path():
    # rule 3 on the triangle 0-1-2 plus the path 0-3-4: with 5 and 6
    # excluded, the two-edge path 0-3-4 has fewer inner edges than 0-1-2
    G = Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)])
    bad = make_instance(3, G, 0, UPath((0, 3, 4)), UPath((0, 1)), w1=5, w2=6)
    with pytest.raises(InputError, match="P does not maximize inner edges"):
        validate_instance(bad)


def test_validation_rejects_overlapping_probe():
    G = Graph.complete(5)
    with pytest.raises(InputError):
        validate_instance(
            make_instance(3, G, 0, UPath((0, 1)), UPath((0, 1)), w1=3, w2=4)
        )


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


def test_balanced_splits_match_the_subset_scan():
    # every class with n <= 6 and every nonempty vertex set of even size
    for G in graphs_up_to(6):
        for vsmask in range(1, 1 << G.n):
            if vsmask.bit_count() % 2:
                continue
            side = vsmask.bit_count() // 2
            cert = lemmas_mod._balanced_split_on(G, vsmask, side)
            got = None if cert is None else (cert.x_side, cert.y_side)
            assert got == scan_balanced_split(G, bits_of(vsmask), side), (G, vsmask)
            assert lemmas_mod._balanced_split_on(G, vsmask, side + 1) is None


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
    monkeypatch.setattr(lemmas_mod, "_max_memo", {})
    for n in range(1, 6):
        for G in enumerate_graphs(n):
            for u in range(n):
                for size in range(3):
                    for excl in combinations(range(n), size):
                        allowed = G.full_mask & ~mask_of(excl)
                        for p in range(n + 1):
                            want = brute_max_inner_edges(G, u, bits_of(allowed), p)
                            cold, warm = Budget(10**9), Budget(10**9)
                            got = lemmas_mod._max_paths(G, u, allowed, p, cold)
                            again = lemmas_mod._max_paths(G, u, allowed, p, warm)
                            assert (got[0], list(got[1])) == want, (G, u, excl, p)
                            assert again == got and warm.used == cold.used


def test_warm_maximality_memo_follows_the_budget(monkeypatch):
    G = Graph.complete(7)
    inst = make_instance(6, G, 0, UPath((0, 1, 2, 3)), UPath((0, 4)), w=6)
    allowed = G.full_mask & ~bit(6)

    # a hit charges the budget what the search spent, without searching
    monkeypatch.setattr(lemmas_mod, "_max_memo", {})
    miss = Budget(10**9)
    lemmas_mod._max_paths(G, 0, allowed, 3, miss)

    def no_search(*args):
        raise AssertionError("a memo hit must not search")

    with monkeypatch.context() as m:
        m.setattr(lemmas_mod, "iter_upaths_exact", no_search)
        hit = Budget(10**9)
        lemmas_mod._max_paths(G, 0, allowed, 3, hit)
    assert hit.used == miss.used > 0

    # the instance's own maximality search overflows halfway through
    limit = str(miss.used // 2)
    monkeypatch.setenv("ESOS_BUDGET", limit)
    monkeypatch.setattr(lemmas_mod, "_max_memo", {})
    with pytest.raises(CapabilityError) as cold:
        validate_instance(inst)

    monkeypatch.delenv("ESOS_BUDGET")
    monkeypatch.setattr(lemmas_mod, "_max_memo", {})
    out = analyze(inst)
    assert verify_outcome(inst, out)
    monkeypatch.setenv("ESOS_BUDGET", limit)
    with monkeypatch.context() as m:
        m.setattr(lemmas_mod, "iter_upaths_exact", no_search)
        with pytest.raises(CapabilityError) as warm:
            validate_instance(inst)
    assert str(warm.value) == str(cold.value)
    assert "maximality check" in str(warm.value)
    assert not verify_outcome(inst, out)


def test_warm_attachment_memo_follows_the_budget(monkeypatch):
    G = Graph.complete(6)
    monkeypatch.setattr(lemmas_mod, "_attachment_memo", {})
    assert lemmas_mod._attachment_set(G, 0, 5, 0b111, 2) == 0b110
    monkeypatch.setenv("ESOS_BUDGET", "1")
    with pytest.raises(CapabilityError, match="longest_u_path"):
        lemmas_mod._attachment_set(G, 0, 5, 0b111, 2)


# SHA-256 of each rule's instance streams, one sorted-key JSON line of
# to_json() per instance: sample_instances(R, 7, 25, seed=R), then
# enumerate_instances(R, G) over every host with n <= 5.
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


def _stream_digest(insts) -> str:
    h = hashlib.sha256()
    for inst in insts:
        h.update(json.dumps(inst.to_json(), sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def test_instance_streams_are_pinned():
    for lemma in LEMMA_IDS:
        sampled, _ = sample_instances(lemma, 7, 25, seed=lemma)
        enumerated = (
            inst for G in graphs_up_to(5) for inst in enumerate_instances(lemma, G)
        )
        got = (_stream_digest(sampled), _stream_digest(enumerated))
        assert got == STREAM_DIGESTS[lemma], lemma


def test_sample_instances_rejects_a_negative_count():
    with pytest.raises(InputError):
        sample_instances(3, 7, -1, seed=0)
    assert sample_instances(3, 7, 0, seed=0) == ([], 0)
    assert sample_instances(3, 2, 5, seed=0) == ([], 0)
