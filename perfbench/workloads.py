"""The four benchmark workloads.

Each workload draws its units from a fixed universe (the same inputs on
every run) and orders them by the run's seed.  A unit is a group of cases
whose counts are pinned in ``pins.json``: a (host, centre) pair in
``dichotomy``, a (rule, host) pair in ``lemmas-exhaustive``, one
``sample_instances`` batch in ``lemmas-sampled`` and one (graph6 line, k)
request in ``stream``.  A run stops at its deadline or when the universe
runs out, so no unit is processed twice in a run.

The seed shuffles the units inside strata (by size and density) and
interleaves the strata in proportion, so every prefix of a run has the same
mix of sizes as the whole universe.  That keeps runs with different seeds
comparable while each seed still reaches different inputs.

A workload object holds ``units`` (in run order) and ``pins``, and offers
``unit_key(unit)``, ``new_tally(unit)`` and ``cases(unit, tally)``.  The
last yields one callable per case, which returns True when every check
passed and updates the unit's tally; a completed unit's tally must equal its
pin.  Work between cases (enumeration, synthesis, decoding) runs inside the
generator, so it is part of the timed run but of no case's latency.

Every case re-verifies what the library returned, independently of the
harness: embeddings with ``verify_embedding``, certificates with
``verify_H_certificate`` and their promised shape, lemma witnesses with
``verify_outcome``, and subset-condition witnesses with ``edge_counts``.
A witness found between cases (in ``dichotomy``) that fails its re-check
raises ``WitnessError``, which fails the unit.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from esos.embed import embed_bruteforce, embed_constructive, verify_embedding
from esos.enumeration import enumerate_graphs, read_graph6_stream
from esos.graphs import (
    Graph,
    edge_counts,
    mask_of,
    satisfies_local_condition,
    verify_H_certificate,
)
from esos.lemmas import (
    LEMMA_IDS,
    analyze,
    enumerate_instances,
    sample_instances,
    verify_outcome,
)
from esos.spiders import Spider, enumerate_spiders, in_T0_family

PINS = Path(__file__).resolve().parent / "pins.json"

# Totals the pinned tables must add up to: the dichotomy over all
# isomorphism classes with n <= 7, and the exhaustive instance counts per
# rule on all hosts with n <= 6.
DICHOTOMY_CASES = 39_191
DICHOTOMY_CERTIFIED = 2
EXHAUSTIVE_INSTANCES = {3: 21_260, 4: 18_979, 5: 20_516, 6: 43_603}

SAMPLED_SIZES = (5, 6, 7, 8, 9, 10)
SAMPLED_BATCH = 10
SAMPLED_BATCHES = 80  # per (rule, n) stratum

STREAM_HOSTS = {n: 24 for n in range(12, 17)}  # hosts per order
STREAM_EDGE_P = 0.5


def interleave(strata: dict, rng: random.Random) -> list:
    """Shuffle each stratum, then merge the strata in proportion."""
    keyed = []
    for s, key in enumerate(sorted(strata)):
        items = list(strata[key])
        rng.shuffle(items)
        offset = rng.random()
        keyed += [((j + offset) / len(items), s, j, x) for j, x in enumerate(items)]
    keyed.sort(key=lambda t: t[:3])
    return [t[3] for t in keyed]


def density_ks(n: int, e: int) -> range:
    """Every k with 2e > (k-1)n, that is 1 <= k <= ceil(2e/n)."""
    return range(1, -(-2 * e // n) + 1)


class WitnessError(Exception):
    """A subset-condition witness that does not violate the condition."""


def witness_holds(G: Graph, k: int, witness) -> bool:
    """Re-check a violating set independently: 2(e(S) + d(S)) <= (k-1)|S|."""
    e_in, d_out = edge_counts(G, witness)
    return bool(witness) and 2 * (e_in + d_out) <= (k - 1) * len(witness)


def lemma_case(inst, tally) -> bool:
    out = analyze(inst)
    tally[len(tally) - 3 + "ABC".index(out.case)] += 1  # A, B, C close the tally
    return verify_outcome(inst, out)


class Dichotomy:
    """Embed-or-certify against the oracle on every isomorphism class with
    n <= 7, every k the density admits with the per-subset condition intact,
    every centre of degree >= k and every spider with k edges.  A case is one
    ``embed_constructive`` call plus the oracle cross-check and verification.

    A unit is one (host, centre) pair.  Splitting hosts by centre spreads
    the dense hosts, which hold most of the work (K7 alone is 9%), over the
    whole run instead of letting the seed decide whether a run meets them.
    Strata are (n, e, degree of the centre).  The per-subset condition is
    scanned once per (host, k), when the run first needs it, as
    ``dichotomy_check`` scans it."""

    name = "dichotomy"
    N_MAX = 7

    def __init__(self, seed: int, pins: dict | None = None):
        strata = {}
        for n in range(1, self.N_MAX + 1):
            for G in enumerate_graphs(n):
                for u in range(n):
                    if G.degree(u):
                        strata.setdefault((n, G.edge_count(), G.degree(u)), []).append((G, u))
        self.units = interleave(strata, random.Random(seed))
        self.pins = pins
        self.spiders = {k: list(enumerate_spiders(k)) for k in range(1, self.N_MAX)}
        self.intact: dict[tuple[Graph, int], bool] = {}

    def unit_key(self, unit):
        G, u = unit
        return f"{G.to_graph6()}:{u}"

    def new_tally(self, unit):
        return [0, 0]  # cases, certified

    def cases(self, unit, tally):
        G, u = unit
        for k in density_ks(G.n, G.edge_count()):
            if G.degree(u) < k:
                break
            if (G, k) not in self.intact:
                witness = satisfies_local_condition(G, k)
                if witness is not None and not witness_holds(G, k, witness):
                    raise WitnessError(f"k={k}: S={sorted(witness)} does not violate")
                self.intact[G, k] = witness is None
            if not self.intact[G, k]:
                continue
            for T in self.spiders[k]:
                tally[0] += 1
                yield lambda k=k, T=T: self._case(G, k, u, T, tally)

    @staticmethod
    def _case(G: Graph, k: int, u: int, T: Spider, tally) -> bool:
        out = embed_constructive(G, T, u)
        oracle = embed_bruteforce(G, T, u)
        if out.embedded != (oracle is not None):
            return False
        if out.embedded:
            return verify_embedding(G, T, out.embedding) and verify_embedding(G, T, oracle)
        tally[1] += 1
        cert = out.certificate
        if not in_T0_family(T) or not verify_H_certificate(G, cert):
            return False
        whole = out.kind == "whole-graph" and cert.a == G.n - k // 2 and cert.b == k // 2
        if T.legs != (2,) * (k // 2):
            return whole
        local = (
            out.kind == "local"
            and cert.a == k // 2 + 1
            and cert.b == k // 2
            and (u in cert.x_side or u in cert.y_side)
        )
        return local or whole


class LemmasExhaustive:
    """Every instance ``enumerate_instances`` yields for rules 3-6 on every
    host with n <= 6.  A case is one ``analyze`` call followed by one
    ``verify_outcome`` call; enumeration runs between cases."""

    name = "lemmas-exhaustive"
    N_MAX = 6

    def __init__(self, seed: int, pins: dict | None = None):
        strata = {
            (rule, n): [(rule, G) for G in enumerate_graphs(n)]
            for rule in LEMMA_IDS
            for n in range(1, self.N_MAX + 1)
        }
        self.units = interleave(strata, random.Random(seed))
        self.pins = pins

    def unit_key(self, unit):
        rule, G = unit
        return f"{rule}:{G.to_graph6()}"

    def new_tally(self, unit):
        return [0, 0, 0, 0]  # instances, A, B, C

    def cases(self, unit, tally):
        rule, G = unit
        for inst in enumerate_instances(rule, G):
            tally[0] += 1
            yield lambda inst=inst: lemma_case(inst, tally)


class LemmasSampled:
    """Seeded ``sample_instances`` batches for rules 3-6 at n = 5..10, every
    host new.  A case is one ``analyze`` plus one ``verify_outcome`` call;
    synthesis runs between cases."""

    name = "lemmas-sampled"

    def __init__(self, seed: int, pins: dict | None = None):
        strata = {
            (rule, n): [(rule, n, b) for b in range(SAMPLED_BATCHES)]
            for rule in LEMMA_IDS
            for n in SAMPLED_SIZES
        }
        self.units = interleave(strata, random.Random(seed))
        self.pins = pins

    def unit_key(self, unit):
        return "{}:{}:{}".format(*unit)

    def new_tally(self, unit):
        return [0, 0, 0, 0, 0]  # instances, discarded, A, B, C

    def cases(self, unit, tally):
        rule, n, b = unit
        insts, discarded = sample_instances(rule, n, SAMPLED_BATCH, (rule * 100 + n) * 1000 + b)
        tally[1] = discarded
        for inst in insts:
            tally[0] += 1
            yield lambda inst=inst: lemma_case(inst, tally)


def stream_hosts(n: int) -> list[tuple[str, int]]:
    """(graph6 line, edge count) of G(n, STREAM_EDGE_P) hosts, fixed per order."""
    rng = random.Random(7_919 * n)
    hosts = []
    for _ in range(STREAM_HOSTS[n]):
        edges = [
            (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < STREAM_EDGE_P
        ]
        hosts.append((Graph.from_edges(n, edges).to_graph6(), len(edges)))
    return hosts


class Stream:
    """graph6 lines of G(n, 1/2) hosts with n = 12..16, past the enumeration
    cap, each decoded as ``check --stdin`` decodes it.  A case is one
    (host, k) pair for a k the host's density admits: the oracle on every
    spider with k edges, then the per-subset condition, whose witness is
    re-checked with ``edge_counts``.

    A unit is one (line, k) request, so a line is decoded once per k, and
    strata are (n, k): scan cost depends on both, so this keeps the share of
    full 2^n scans the same in every run."""

    name = "stream"

    def __init__(self, seed: int, pins: dict | None = None):
        strata = {}
        for n in STREAM_HOSTS:
            for line, m in stream_hosts(n):
                for k in density_ks(n, m):
                    strata.setdefault((n, k), []).append((line, k))
        self.units = interleave(strata, random.Random(seed))
        self.pins = pins
        self.spiders = {k: list(enumerate_spiders(k)) for k in range(1, max(STREAM_HOSTS))}

    def unit_key(self, unit):
        line, k = unit
        return f"{k}:{line}"

    def new_tally(self, unit):
        return [0]  # the witness mask, or -1 when the condition holds

    def cases(self, unit, tally):
        line, k = unit
        for G in read_graph6_stream([line]):
            yield lambda: self._case(G, k, tally)

    def _case(self, G: Graph, k: int, tally) -> bool:
        ok = True
        for T in self.spiders[k]:
            emb = embed_bruteforce(G, T)
            ok = ok and emb is not None and verify_embedding(G, T, emb)
        witness = satisfies_local_condition(G, k)
        if witness is None:
            tally[0] = -1
            return ok
        tally[0] = mask_of(witness)
        return ok and witness_holds(G, k, witness)


WORKLOADS = {w.name: w for w in (Dichotomy, LemmasExhaustive, LemmasSampled, Stream)}


def quota_units(wl, quota: int) -> list:
    """The first ``quota`` units of the run order.  In ``dichotomy`` the
    hosts with a certified case (2 cases in 39k) are added, so that every
    traced run reaches the certificate side."""
    head = wl.units[:quota]
    if wl.name == "dichotomy":
        head += [unit for unit in wl.units[quota:] if wl.pins[wl.unit_key(unit)][1]]
    return head


def check_pin_totals(pins: dict) -> None:
    """The pinned tables must add up to the known exhaustive totals."""
    dich = pins["dichotomy"].values()
    got = (sum(p[0] for p in dich), sum(p[1] for p in dich))
    if got != (DICHOTOMY_CASES, DICHOTOMY_CERTIFIED):
        raise RuntimeError(f"dichotomy pins total {got}")
    for rule, want in EXHAUSTIVE_INSTANCES.items():
        got = sum(
            p[0] for key, p in pins["lemmas-exhaustive"].items() if key.startswith(f"{rule}:")
        )
        if got != want:
            raise RuntimeError(f"rule {rule} exhaustive pins total {got}, want {want}")


def make(name: str, seed: int):
    """Set a workload up: load and check its pins, then build its inputs."""
    with PINS.open() as fh:
        pins = json.load(fh)
    check_pin_totals(pins)
    return WORKLOADS[name](seed, pins[name])
