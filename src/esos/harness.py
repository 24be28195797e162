"""Desk-scale verification suites.

Every suite returns a Report whose failures list is expected to stay empty
on a correct build; a nonempty list is the signal, not an exception.
Reports are deterministic for fixed inputs and seed (timing excluded from
serialization), and graph-keyed results are ordered by graph6 string.
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator, Optional

from .embed import embed_bruteforce, embed_constructive, verify_embedding
from .enumeration import ENUMERATION_CAP, enumerate_graphs, graphs_up_to
from .errors import CapabilityError, InputError, SoundnessError
from .graphs import Graph, verify_H_certificate, recognize_H, find_H_subgraph
from .lemmas import (
    LEMMA_IDS,
    analyze,
    enumerate_instances,
    sample_instances,
    verify_outcome,
)
from .report import Report
from .spiders import Spider, enumerate_spiders, in_T0_family


def verify_conjecture_spiders(
    n_max: int = ENUMERATION_CAP, graphs: Optional[Iterable[Graph]] = None
) -> Report:
    """Oracle check of the density statement at desk scale.

    For every graph (builtin isomorphism classes up to n_max, or an external
    stream), every k with 2e > (k-1)n, and every spider with k edges, an
    embedding must exist somewhere in the graph.
    """
    start = time.monotonic()
    if graphs is None:
        if n_max < 1:
            raise InputError("n_max must be positive")
        if n_max > ENUMERATION_CAP:
            raise CapabilityError(
                f"builtin enumeration stops at n={ENUMERATION_CAP}; "
                "pipe graph6 input for larger orders"
            )
        population: Iterable[Graph] = graphs_up_to(n_max)
        scope = {"n_max": n_max, "source": "builtin"}
    else:
        population = graphs
        scope = {"n_max": None, "source": "stream"}
    graphs_scanned = 0
    tests = 0
    embedded = 0
    failures = []
    for G in population:
        graphs_scanned += 1
        e = G.edge_count()
        k = 1
        while 2 * e > (k - 1) * G.n:
            for T in enumerate_spiders(k):
                tests += 1
                if embed_bruteforce(G, T) is None:
                    failures.append(
                        {"graph6": G.to_graph6(), "k": k, "spider": T.to_json()}
                    )
                else:
                    embedded += 1
            k += 1
    failures.sort(key=lambda f: (f["graph6"], f["k"], f["spider"]))
    return Report(
        scope=scope,
        counts={
            "graphs": graphs_scanned,
            "spider_tests": tests,
            "embedded": embedded,
        },
        failures=failures,
        timing=time.monotonic() - start,
    )


def dichotomy_check(n_max: int = ENUMERATION_CAP) -> Report:
    """Embed-or-certify agreement with the oracle, exhaustively.

    Scans every (graph, k, centre) with the per-subset condition intact and
    d(u) >= k, and every spider with k edges: the constructive outcome must
    match the oracle's embeddability verdict, and certificates must carry
    the promised shape (all-even spider; local (k/2+1, k/2) split through u
    for the all-twos spider, else the whole graph splitting as
    (n-k/2, k/2)).
    """
    from .graphs import satisfies_local_condition

    start = time.monotonic()
    tests = certified = 0
    failures = []
    for G in graphs_up_to(n_max):
        e = G.edge_count()
        k = 1
        while 2 * e > (k - 1) * G.n:
            if satisfies_local_condition(G, k) is None:
                spiders = list(enumerate_spiders(k))
                for u in range(G.n):
                    if G.degree(u) < k:
                        continue
                    for T in spiders:
                        tests += 1
                        fail, was_cert = _dichotomy_one(G, k, u, T)
                        if fail is not None:
                            failures.append(fail)
                        elif was_cert:
                            certified += 1
            k += 1
    return Report(
        scope={"n_max": n_max},
        counts={"tests": tests, "certified": certified},
        failures=failures,
        timing=time.monotonic() - start,
    )


def _dichotomy_one(
    G: Graph, k: int, u: int, T: Spider
) -> tuple[Optional[dict], bool]:
    where = {"graph6": G.to_graph6(), "k": k, "u": u, "spider": T.to_json()}
    try:
        out = embed_constructive(G, T, u)
    except (InputError, SoundnessError) as exc:
        return {**where, "reason": f"constructive raised: {exc}"}, False
    oracle = embed_bruteforce(G, T, u)
    if out.embedded != (oracle is not None):
        return {**where, "reason": "verdict disagrees with the oracle"}, False
    if out.embedded:
        if not verify_embedding(G, T, out.embedding):
            return {**where, "reason": "embedding failed verification"}, False
        return None, False
    cert = out.certificate
    if not in_T0_family(T):
        return {**where, "reason": "certified a spider with an odd leg"}, True
    if not verify_H_certificate(G, cert):
        return {**where, "reason": "certificate failed verification"}, True
    if T.legs == (2,) * (k // 2):
        ok = (
            out.kind == "local"
            and cert.a == k // 2 + 1
            and cert.b == k // 2
            and (u in cert.x_side or u in cert.y_side)
        ) or (
            out.kind == "whole-graph"
            and cert.a == G.n - k // 2
            and cert.b == k // 2
        )
    else:
        ok = (
            out.kind == "whole-graph"
            and cert.a == G.n - k // 2
            and cert.b == k // 2
        )
    if not ok:
        return {**where, "reason": f"certificate shape mismatch: {out.to_json()}"}, True
    return None, True


def extremal_census(n: int, k: int) -> Report:
    """All graphs at the exact density threshold that miss some all-even
    spider at some high-degree centre, with certificate-shape diagnostics.

    The threshold edge count is the largest one failing 2e > (k-1)n.
    """
    start = time.monotonic()
    if k < 1 or k % 2:
        raise InputError("census needs an even k (all-even spiders exist)")
    if n > ENUMERATION_CAP:
        raise CapabilityError(f"builtin enumeration stops at n={ENUMERATION_CAP}")
    threshold = ((k - 1) * n) // 2
    t0_legs = (2,) * (k // 2)
    entries = []
    scanned = 0
    for G in enumerate_graphs(n):
        if G.edge_count() != threshold:
            continue
        scanned += 1
        for u in range(G.n):
            if G.degree(u) < k:
                continue
            for T in enumerate_spiders(k):
                if not in_T0_family(T):
                    continue
                if embed_bruteforce(G, T, u) is not None:
                    continue
                whole = recognize_H(G)
                whole_match = (
                    whole is not None
                    and whole.b == k // 2
                    and whole.a == G.n - k // 2
                    and verify_H_certificate(G, whole)
                )
                local = find_H_subgraph(G, k // 2 + 1, k // 2, u)
                local_match = local is not None and verify_H_certificate(G, local)
                entries.append(
                    {
                        "graph6": G.to_graph6(),
                        "u": u,
                        "spider": list(T.legs),
                        "is_t0": T.legs == t0_legs,
                        "whole_graph_split": whole.to_json() if whole_match else None,
                        "local_split": local.to_json() if local_match else None,
                    }
                )
    entries.sort(key=lambda r: (r["graph6"], r["u"], r["spider"]))
    return Report(
        scope={"n": n, "k": k, "threshold_edges": threshold},
        counts={
            "graphs_at_threshold": scanned,
            "missed_embeddings": len(entries),
            "with_certificate": sum(
                1
                for r in entries
                if r["whole_graph_split"] or r["local_split"]
            ),
        },
        failures=[],
        timing=time.monotonic() - start,
        notes={"census": entries},
    )


def _run_lemma_cases(instances: Iterable) -> tuple[int, dict, list]:
    """Analyze each instance, count its case and verify its witness; returns
    the number of instances, the case counts and the failures."""
    total = 0
    cases = {"A": 0, "B": 0, "C": 0}
    failures = []
    for inst in instances:
        total += 1
        try:
            out = analyze(inst)
        except SoundnessError:
            failures.append({"instance": inst.to_json(), "reason": "no case matched"})
            continue
        cases[out.case] += 1
        if not verify_outcome(inst, out):
            failures.append(
                {
                    "instance": inst.to_json(),
                    "case": out.case,
                    "reason": "witness failed verification",
                }
            )
    return total, cases, failures


def run_lemma_suite(
    lemma: int,
    samples: int,
    seed: int,
    sizes: tuple[int, ...] = (5, 6, 7, 8, 9, 10),
) -> Report:
    """Sampled analyzer run: every instance must resolve to a case and every
    witness must survive independent verification."""
    if lemma not in LEMMA_IDS:
        raise InputError(f"unknown lemma id {lemma} (want one of {LEMMA_IDS})")
    start = time.monotonic()
    discarded_total = 0
    per_size = [samples // len(sizes)] * len(sizes)
    for i in range(samples - sum(per_size)):
        per_size[i % len(sizes)] += 1

    def sampled() -> Iterator:
        nonlocal discarded_total
        for n, want in zip(sizes, per_size):
            insts, discarded = sample_instances(lemma, n, want, seed + n)
            discarded_total += discarded
            yield from insts

    produced, cases, failures = _run_lemma_cases(sampled())
    return Report(
        scope={"lemma": lemma, "samples": samples, "seed": seed, "sizes": list(sizes)},
        counts={
            "instances": produced,
            "discarded_proposals": discarded_total,
            **{f"case_{c}": v for c, v in cases.items()},
        },
        failures=failures,
        timing=time.monotonic() - start,
    )


def exhaustive_lemma_suite(lemma: int, n_max: int = 6) -> Report:
    """Exhaustive analyzer run over all hosts with at most n_max vertices."""
    if lemma not in LEMMA_IDS:
        raise InputError(f"unknown lemma id {lemma}")
    start = time.monotonic()
    total, cases, failures = _run_lemma_cases(
        inst for G in graphs_up_to(n_max) for inst in enumerate_instances(lemma, G)
    )
    return Report(
        scope={"lemma": lemma, "n_max": n_max, "mode": "exhaustive"},
        counts={"instances": total, **{f"case_{c}": v for c, v in cases.items()}},
        failures=failures,
        timing=time.monotonic() - start,
    )
