"""Desk-scale verification suites.

Every suite returns a Report whose failures list is expected to stay empty
on a correct build; a nonempty list is the signal, not an exception.
Reports are deterministic for fixed inputs and seed (timing excluded from
serialization), and graph-keyed results are ordered by graph6 string.
Scope errors (orders outside 1..ENUMERATION_CAP, unknown rule ids) come from
their owners, ``graphs_up_to`` and ``esos.lemmas``, before any work.
Every suite is a unit stream plus a per-unit check run by ``esos.report``'s
``_suite``, which ``embed.theorem2_check`` runs through too.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .embed import (
    embed_bruteforce,
    embed_constructive,
    local_split,
    verify_embedding,
    whole_split,
)
from .enumeration import ENUMERATION_CAP, enumerate_graphs, graphs_up_to
from .errors import InputError, SoundnessError
from .graphs import Graph, _checked_int, satisfies_local_condition, verify_H_certificate
from .lemmas import analyze, enumerate_instances, sample_instances, verify_outcome
from .report import Report, _suite
from .spiders import Spider, enumerate_spiders, in_T0_family, t0

SAMPLE_SIZES = (5, 6, 7, 8, 9, 10)  # host orders of the sampled lemma suite
_CASES = {"case_A": 0, "case_B": 0, "case_C": 0}  # a lemma suite's zero case counts


def _dense_ks(G: Graph) -> range:
    """k = 1 ... ceil(2e/n): exactly the k with 2e(G) > (k-1)n."""
    return range(1, -(-2 * G.edge_count() // G.n) + 1)


def verify_conjecture_spiders(
    n_max: int = ENUMERATION_CAP, graphs: Optional[Iterable[Graph]] = None
) -> Report:
    """Oracle check of the density statement at desk scale.

    For every graph (builtin isomorphism classes up to n_max, or an external
    stream), every k with 2e > (k-1)n, and every spider with k edges, an
    embedding must exist somewhere in the graph.
    """
    if graphs is None:
        graphs = graphs_up_to(n_max)
        scope = {"n_max": n_max, "source": "builtin"}
    else:
        scope = {"n_max": None, "source": "stream"}
    return _suite(
        scope,
        {"graphs": 0, "spider_tests": 0, "embedded": 0},
        graphs,
        _density_host,
        lambda f: (f["graph6"], f["k"], f["spider"]),
    )


def _density_host(counts: dict, G: Graph) -> Iterator[dict]:
    """Every spider with k edges, for every k with 2e > (k-1)n, at any centre."""
    counts["graphs"] += 1
    for k in _dense_ks(G):
        for T in enumerate_spiders(k):
            counts["spider_tests"] += 1
            if embed_bruteforce(G, T) is None:
                yield {"graph6": G.to_graph6(), "k": k, "spider": T.to_json()}
            else:
                counts["embedded"] += 1


def dichotomy_check(n_max: int = ENUMERATION_CAP) -> Report:
    """Embed-or-certify agreement with the oracle, exhaustively.

    Scans every (graph, k, centre) with the per-subset condition intact and
    d(u) >= k, and every spider with k edges: the constructive outcome must
    match the oracle's embeddability verdict, and certificates must carry
    the promised shape (all-even spider; local (k/2+1, k/2) split through u
    for the all-twos spider, else the whole graph splitting as
    (n-k/2, k/2)).

    ``_dichotomy_one`` states the comparison.  Of the 39,191 cases with
    n <= 7, 18,349 one-leg spiders embed through the oracle itself and are
    only verified; the other 20,842 (20,820 decided by the guided phase)
    are also checked against a fresh oracle call at u.
    """
    counts = {"tests": 0, "certified": 0}
    return _suite({"n_max": n_max}, counts, graphs_up_to(n_max), _dichotomy_host)


def _dichotomy_host(counts: dict, G: Graph) -> Iterator[dict]:
    """``_dichotomy_one`` on every (k, u, T) of G that ``dichotomy_check`` scans."""
    for k in _dense_ks(G):
        if satisfies_local_condition(G, k) is not None:
            break  # h_{k+1}(S) = h_k(S) - |S|: it fails at every larger k too
        spiders = list(enumerate_spiders(k))
        for u in range(G.n):
            if G.degree(u) < k:
                continue
            for T in spiders:
                counts["tests"] += 1
                fail, was_cert = _dichotomy_one(G, k, u, T)
                if fail is not None:
                    yield fail
                elif was_cert:
                    counts["certified"] += 1


def _dichotomy_one(
    G: Graph, k: int, u: int, T: Spider
) -> tuple[Optional[dict], bool]:
    """One (G, k, u, T) check: the failure entry or None, and whether the
    outcome was a certificate.  Every embedding must verify.  Unless T has
    one leg and embeds (then the oracle itself returned it), a fresh
    ``embed_bruteforce`` call at u must agree on whether T embeds, and a
    certificate must verify and have the promised shape."""

    def fail(reason: str) -> dict:  # the entry is built only on a failure
        where = {"graph6": G.to_graph6(), "k": k, "u": u, "spider": T.to_json()}
        return {**where, "reason": reason}

    try:
        out = embed_constructive(G, T, u)
    except (InputError, SoundnessError) as exc:
        return fail(f"constructive raised: {exc}"), False
    if not (out.embedded and len(T.legs) == 1):
        if out.embedded != (embed_bruteforce(G, T, u) is not None):
            return fail("verdict disagrees with the oracle"), False
    if out.embedded:
        if not verify_embedding(G, T, out.embedding):
            return fail("embedding failed verification"), False
        return None, False
    cert = out.certificate
    if not in_T0_family(T):
        return fail("certified a spider with an odd leg"), True
    if not verify_H_certificate(G, cert):
        return fail("certificate failed verification"), True
    half, shape = k // 2, (out.kind, cert.a, cert.b)
    whole = shape == ("whole-graph", G.n - half, half)
    local = shape == ("local", half + 1, half) and u in cert.x_side | cert.y_side
    if not (whole or (local and T == t0(k))):
        return fail(f"certificate shape mismatch: {out.to_json()}"), True
    return None, True


def extremal_census(n: int, k: int) -> Report:
    """All graphs at the exact density threshold that miss some all-even
    spider at some high-degree centre, with certificate-shape diagnostics.

    The threshold edge count is the largest one failing 2e > (k-1)n; past
    K_n's edge count the census would scan nothing, an InputError.  The
    entries are notes, not failures.
    """
    if type(k) is not int or k < 1 or k % 2:  # a float or a bool is no k
        raise InputError("census needs a positive even k (all-even spiders exist)")
    threshold = ((k - 1) * _checked_int(n, "order")) // 2
    most = n * (n - 1) // 2
    if threshold > most:
        raise InputError(f"threshold of {threshold} edges exceeds the {most} of K_{n}")
    all_twos = t0(k)
    even = [T for T in enumerate_spiders(k) if in_T0_family(T)]

    def check(counts: dict, G: Graph) -> Iterator[dict]:
        counts["graphs_at_threshold"] += 1
        whole = whole_split(G, k)
        for u in range(G.n):
            if G.degree(u) < k:
                continue
            for T in even:
                if embed_bruteforce(G, T, u) is not None:
                    continue
                local = local_split(G, k, u)
                counts["missed_embeddings"] += 1
                counts["with_certificate"] += bool(whole or local)
                yield {
                    "graph6": G.to_graph6(),
                    "u": u,
                    "spider": list(T.legs),
                    "is_t0": T == all_twos,
                    "whole_graph_split": whole.to_json() if whole else None,
                    "local_split": local.to_json() if local else None,
                }

    report = _suite(
        {"n": n, "k": k, "threshold_edges": threshold},
        {"graphs_at_threshold": 0, "missed_embeddings": 0, "with_certificate": 0},
        (G for G in enumerate_graphs(n) if G.edge_count() == threshold),
        check,
        lambda r: (r["graph6"], r["u"], r["spider"]),
    )
    report.notes["census"], report.failures = report.failures, []
    return report


def _lemma_case(counts: dict, inst) -> Iterator[dict]:
    """Analyze one instance, count it and its case, and verify its witness."""
    counts["instances"] += 1
    try:
        out = analyze(inst)
    except SoundnessError:
        yield {"instance": inst.to_json(), "reason": "no case matched"}
        return
    counts[f"case_{out.case}"] += 1
    if not verify_outcome(inst, out):
        yield {
            "instance": inst.to_json(),
            "case": out.case,
            "reason": "witness failed verification",
        }


def run_lemma_suite(lemma: int, samples: int, seed: int) -> Report:
    """Sampled analyzer run over hosts of the ``SAMPLE_SIZES`` orders: every
    instance must resolve to a case and every witness must survive
    independent verification."""
    _checked_int(samples, "sample count")
    _checked_int(seed, "seed")
    per_size = [samples // len(SAMPLE_SIZES)] * len(SAMPLE_SIZES)
    for i in range(samples - sum(per_size)):
        per_size[i % len(SAMPLE_SIZES)] += 1
    counts = {"instances": 0, "discarded_proposals": 0, **_CASES}

    def sampled() -> Iterator:
        for n, want in zip(SAMPLE_SIZES, per_size):
            insts, discarded = sample_instances(lemma, n, want, seed + n)
            counts["discarded_proposals"] += discarded
            yield from insts

    sizes = list(SAMPLE_SIZES)
    scope = {"lemma": lemma, "samples": samples, "seed": seed, "sizes": sizes}
    return _suite(scope, counts, sampled(), _lemma_case)


def exhaustive_lemma_suite(lemma: int, n_max: int = 6) -> Report:
    """Exhaustive analyzer run over all hosts with at most n_max vertices."""
    return _suite(
        {"lemma": lemma, "n_max": n_max, "mode": "exhaustive"},
        {"instances": 0, **_CASES},
        (inst for G in graphs_up_to(n_max) for inst in enumerate_instances(lemma, G)),
        _lemma_case,
    )
