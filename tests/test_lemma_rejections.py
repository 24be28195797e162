"""Each rejection path of witness verification and instance validation.

The verifier rows start from one real outcome per (rule, case), the first
that ``enumerate_instances`` yields on a small host, and tamper with one
thing; each tampering must make ``verify_outcome`` return False.  The
validation rows break one hypothesis of a real instance with
``dataclasses.replace``, which makes the instance again, and expect the
``InputError`` that ``validate_instance`` documents for it to come from
that construction: a broken instance cannot be made.
"""

import dataclasses
from functools import lru_cache

import pytest

from esos.errors import InputError
from esos.graphs import Graph, HCertificate
from esos.lemmas import (
    CaseOutcome,
    LemmaInstance,
    analyze,
    enumerate_instances,
    make_instance,
    sample_instances,
    validate_instance,
    verify_outcome,
)
from esos.paths import UPath

# (rule, host graph6 or "K6", case, detail the outcome must carry)
BASES = {
    "3C": (3, "D@[", "C", {"scope": "stated"}),
    "4C": (4, "CN", "C", {}),
    "5C": (5, "K6", "C", {"scope": "narrow"}),
    "5C-sparse": (5, "DJ{", "C", {"scope": "narrow"}),
    "6C": (6, "K6", "C", {"r_size": 2}),
    "6C-sparse": (6, "CN", "C", {"r_size": 2}),
    "3B": (3, "E?Nw", "B", {}),
    "4B": (4, "DF{", "B", {}),
    "5B": (5, "E@~o", "B", {}),
    "6B": (6, "DB{", "B", {}),
    "3A": (3, "D@K", "A", {}),
    "4A": (4, "DJ{", "A", {}),
    "5A": (5, "DQ{", "A", {}),
    "6A": (6, "CJ", "A", {}),
}


def host(name):
    if isinstance(name, Graph):
        return name
    return Graph.complete(6) if name == "K6" else Graph.from_graph6(name)


@lru_cache(maxsize=None)
def base(key):
    """The first enumerated instance of the base's rule on its host whose
    outcome has the base's case and detail, with that outcome."""
    rule, name, case, detail = BASES[key]
    for inst in enumerate_instances(rule, host(name)):
        out = analyze(inst)
        if out.case == case and detail.items() <= out.detail.items():
            return inst, out
    raise AssertionError(f"no {case} outcome for rule {rule} on {name}")


def built(rule, name, u, p, q, **fields):
    """A valid instance made directly, for hypotheses no base meets."""
    return make_instance(rule, host(name), u, UPath(p), UPath(q), **fields)


def replace(**changes):
    return lambda inst: dataclasses.replace(inst, **changes)


def paths(*seqs):
    return lambda inst, out: (
        inst,
        dataclasses.replace(out, paths=tuple(UPath(s) for s in seqs)),
    )


def detail(**changes):
    return lambda inst, out: (
        inst,
        dataclasses.replace(out, detail={**out.detail, **changes}),
    )


def certificate(x=None, y=None):
    cert = None if x is None else HCertificate(frozenset(x), frozenset(y))
    return lambda inst, out: (inst, dataclasses.replace(out, certificate=cert))


def claim(case, sides=None):
    """The instance with a bare claim of ``case`` (and a certificate)."""
    cert = sides and HCertificate(*map(frozenset, sides))
    return lambda inst, out: (inst, CaseOutcome(case, {}, certificate=cert))


def on(inst_of, tamper):
    """Apply ``tamper`` to another instance, keeping the base's outcome."""
    return lambda inst, out: tamper(inst_of(), out)


VERIFY_ROWS = {
    # rule 3, case C: D@[ at u=2, P=[2,4], x=3, (w1,w2)=(0,1); [2,3], i=2, z=4
    "rule3-path-count": ("3C", paths()),
    "rule3-extra-path": ("3C", paths((2, 3), (2, 4))),
    "rule3-bad-i": ("3C", detail(i=3)),
    "rule3-z-off-w": ("3C", detail(z=0)),
    "rule3-not-a-path": ("3C", paths((2, 0))),
    "rule3-anchor": ("3C", paths((3, 2))),
    "rule3-length": ("3C", paths((2,))),
    "rule3-outside-scope": ("3C", paths((2, 4))),
    # rule 4, case C: CN at u=3, P=[3,1], Q=[0], x=2; [3,0] and [3,1,2]
    "rule4-path-count": ("4C", paths((3, 0))),
    "rule4-not-a-path": ("4C", paths((3, 1), (3, 2, 0))),
    "rule4-anchor": ("4C", paths((0, 3), (3, 1, 2))),
    "rule4-length": ("4C", paths((3, 0), (3, 1))),
    "rule4-overlap": ("4C", paths((3, 1), (3, 1, 2))),
    # rule 5, case C: K6 at u=0, P=[0,3], x=4, (v,w)=(1,2); [0,3], [2,1,4]
    "rule5-path-count": ("5C", paths((0, 3))),
    "rule5-anchor": ("5C", paths((3, 0), (2, 1, 4))),
    "rule5-length": ("5C", paths((0, 3, 5), (2, 1, 4))),
    "rule5-companion-length": ("5C", paths((0, 3), (2, 1))),
    "rule5-overlap": ("5C", paths((0, 3), (2, 3, 4))),
    "rule5-outside-scope": ("5C", paths((0, 3), (1, 2, 5))),
    # no 3-vertex r off w fits the narrow scope, so only this check sees it
    "rule5-companion-off-w": ("5C", paths((0, 3), (1, 4, 5))),
    # DJ{ at u=1, P=[1,2], x=3, (v,w)=(0,4): 0-2 is no edge
    "rule5-not-a-path": ("5C-sparse", paths((1, 3), (0, 2, 4))),
    # rule 6, case C: K6 at u=0, P=[0,2], Q=[0,3], w=1; [0,3], [1,2]
    "rule6-path-count": ("6C", paths((0, 3))),
    "rule6-anchor": ("6C", paths((3, 0), (1, 2))),
    "rule6-length": ("6C", paths((0,), (1, 2))),
    "rule6-overlap": ("6C", paths((0, 2), (1, 2))),
    "rule6-not-from-w": ("6C", paths((0, 3), (2, 1))),
    "rule6-edge-outside-scope": ("6C", paths((0, 4), (1, 2))),
    "rule6-path-outside-scope": ("6C", paths((0, 4), (1, 2, 3))),
    "rule6-long-companion": ("6C", paths((0, 4), (1, 2, 3, 5))),
    # CN at u=1, P=[1,2], x=3, w=0: 0-2 is no edge
    "rule6-not-a-path": ("6C-sparse", paths((1, 3), (0, 2))),
    # case B: E?Nw at u=4, P=[4,2,5], x=3 splits as X={2,3}, Y={4,5}
    "B-missing-certificate": ("3B", certificate()),
    "B-not-a-split": ("3B", certificate({2, 4}, {3, 5})),
    "B-wrong-size": ("3B", certificate({3}, {4, 5})),
    # 4 sees all of 2, 3, 5: a split of exactly the pool, but unbalanced
    "B-unbalanced": ("3B", certificate({4}, {2, 3, 5})),
    "B-negative-vertex": ("3B", certificate({-1, 3}, {4, 5})),
    # E@~o at u=4, P=[4,0,5], x=1, v=2: the pool is {0,1,2,4,5}
    "B-outside-pool": ("5B", certificate({1, 3}, {4, 5})),
    # D@K at u=2, P=[2,3], x=4, surplus 0: 3-4 is a split of sides p//2 + 1
    # inside V(P)+x, but p is odd (and the split leaves u out)
    "B-odd-p": ("3A", claim("B", ({3}, {4}))),
    "B-nonzero-surplus": (
        "3B",
        on(
            lambda: built(3, "E@^w", 4, (4, 3, 5), (4, 1), w1=0, w2=2),
            claim("B", ({1, 3}, {4, 5})),
        ),
    ),
    "B-probe-too-long": (
        "6B",
        on(
            lambda: built(6, "E@^w", 4, (4, 1, 5), (4, 2, 3), w=0),
            claim("B", ({1, 3}, {4, 5})),
        ),
    ),
    # case A: each rule's predicate fails on a surplus-0 B instance
    "rule3-A-false": ("3B", claim("A")),
    "rule4-A-false": ("4B", claim("A")),
    "rule5-A-false": ("5B", claim("A")),
    # rule 6: x sees the reroute's end, and one other condition fails
    "rule6-A-no-gap-reading": (
        "6A",
        on(lambda: built(6, "DR{", 4, (4, 2, 3), (4, 1), w=0), claim("A")),
    ),
    "rule6-A-w-not-absorbable": ("6B", claim("A")),
    # x misses the reroute's end; nothing smaller fails only that condition
    "rule6-A-end-unseen": (
        "6A",
        on(lambda: built(6, "Fnfb_", 6, (6, 3, 4, 0), (6, 2), w=1), claim("A")),
    ),
    # x sees all of L, so only the surplus rules the claim out
    "A-nonzero-surplus": (
        "4A",
        on(lambda: built(4, "C^", 2, (2, 3), (0,), x=1), claim("A")),
    ),
    "unknown-case": ("3A", claim("D")),
    "invalid-instance": ("3C", lambda inst, out: (replace(x=4)(inst), out)),
    "named-vertex-out-of-range": ("6A", lambda inst, out: (replace(w=-1)(inst), out)),
}

# Rows whose tampering breaks a hypothesis of the instance: the claim is
# refused where the broken instance is made, before it can reach the verifier.
UNMADE = {
    "invalid-instance": "^x must be the probe end$",
    "named-vertex-out-of-range": "^named vertex outside 0..3$",
}


@pytest.mark.parametrize("key", sorted(BASES))
def test_base_outcomes_verify(key):
    inst, out = base(key)
    assert verify_outcome(inst, out)


@pytest.mark.parametrize("row", sorted(VERIFY_ROWS))
def test_verify_outcome_rejects(row):
    key, tamper = VERIFY_ROWS[row]
    if row in UNMADE:
        with pytest.raises(InputError, match=UNMADE[row]):
            tamper(*base(key))
        return
    inst, out = tamper(*base(key))
    assert verify_outcome(inst, out) is False


def k6_minus_05(**changes):
    """Rule 4 on K6 minus the edge 05, at u=5: P=[5,1,2], Q=[4], x=3."""

    def make(_):
        pairs = [(a, b) for a in range(6) for b in range(a + 1, 6)]
        G = Graph.from_edges(6, [e for e in pairs if e != (0, 5)])
        inst = built(4, G, 5, (5, 1, 2), (4,), x=3)
        return dataclasses.replace(inst, **changes)

    return make


VALIDATE_ROWS = {
    # D@K at u=2, P=[2,3], Q=[2,4], x=4, (w1,w2)=(0,1)
    "anchor-out-of-range": ("3A", replace(u=5), r"^anchor outside 0\.\.4$"),
    "P-not-a-path": ("3A", replace(p_path=UPath((2, 0))), "P must be a nontrivial"),
    "Q-not-a-path": ("3A", replace(q_path=UPath((2, 0))), "Q must be a path"),
    "unknown-rule": ("3A", replace(lemma=7), "unknown lemma id 7"),
    "rule3-missing-w": ("3A", replace(w1=None), "lemma 3 needs distinct"),
    "rule3-w-is-u": ("3A", replace(w1=2), "lemma 3 needs distinct"),
    "rule3-repeated-w": ("3A", replace(w2=0), "lemma 3 needs distinct"),
    "probe-not-anchored": ("3A", replace(q_path=UPath((4,))), "nontrivial anchored"),
    "probe-meets-P": (
        "3A",
        replace(q_path=UPath((2, 4, 3)), x=3),
        "probe must avoid V\\(P-u\\) and the excluded pair",
    ),
    "x-not-probe-end": ("3A", replace(x=3), "x must be the probe end"),
    "rule3-w1-negative": ("3A", replace(w1=-1), "named vertex outside 0..4"),
    "rule3-w2-too-large": ("3A", replace(w2=9), "named vertex outside 0..4"),
    "negative-surplus": (
        "3A",
        lambda _: make_instance(
            3,
            Graph.from_edges(5, [(0, 1), (0, 2)]),
            0,
            UPath((0, 1)),
            UPath((0, 2)),
            w1=3,
            w2=4,
        ),
        "surplus must be nonnegative",
    ),
    # DJ{ at u=4, P=[4,1,2], Q=[0], x=3
    "rule4-through-u": (
        "4A",
        replace(q_path=UPath((0, 4)), w2=4),
        "detached path must avoid u",
    ),
    "rule4-ends": ("4A", replace(w2=1), "w1, w2 must be the detached path ends"),
    # a missing end is named before a detached path through u
    "rule4-missing-w": (
        "4A",
        replace(q_path=UPath((0, 4)), w1=None),
        "w1, w2 must be the detached path ends",
    ),
    "rule4-meets-P": (
        "4A",
        replace(q_path=UPath((1,)), w1=1, w2=1),
        "P must avoid the detached path",
    ),
    "rule4-missing-x": ("4A", replace(x=None), "x must be a neighbour of u"),
    "rule4-x-negative": ("4A", replace(x=-1), "named vertex outside 0..4"),
    "rule4-x-too-large": ("4A", replace(x=9), "named vertex outside 0..4"),
    "rule4-x-on-P": ("4A", replace(x=1), "x must lie outside P and Q"),
    "rule4-x-not-seen": ("4A", k6_minus_05(x=0), "x must be a neighbour of u"),
    "rule4-Q-not-seen": (
        "4A",
        k6_minus_05(q_path=UPath((0,)), w1=0, w2=0),
        "every vertex of P and Q must be seen by u",
    ),
    # DQ{ at u=4, P=[4,1], Q=[4,3], (v,w)=(0,2)
    "rule5-missing-v": ("5A", replace(v=None), "lemma 5 needs distinct"),
    "rule5-v-is-w": ("5A", replace(v=2), "lemma 5 needs distinct"),
    "rule5-not-an-edge": ("5A", replace(v=1), "vw must be an edge"),
    "rule5-v-negative": ("5A", replace(v=-1), "named vertex outside 0..4"),
    "rule5-w-too-large": ("5A", replace(w=9), "named vertex outside 0..4"),
    # CJ at u=1, P=[1,2], Q=[1,3], w=0
    "rule6-missing-w": ("6A", replace(w=None), "lemma 6 needs w distinct from u"),
    "rule6-w-is-u": ("6A", replace(w=1), "lemma 6 needs w distinct from u"),
    "rule6-w-negative": ("6A", replace(w=-1), "named vertex outside 0..3"),
    "rule6-w-too-large": ("6A", replace(w=9), "named vertex outside 0..3"),
    "P-meets-excluded": ("6A", replace(w=2), "P enters an excluded vertex"),
    # the triangle 0-1-2 beats 0-4-5 at length 2
    "P-not-maximal": (
        "6A",
        lambda _: make_instance(
            6,
            Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (0, 3), (0, 4), (4, 5)]),
            0,
            UPath((0, 4, 5)),
            UPath((0, 1)),
            w=3,
        ),
        "P does not maximize inner edges",
    ),
    "rule6-not-absorbable": (
        "6A",
        lambda _: make_instance(6, host("CN"), 3, UPath((3, 2)), UPath((3, 0)), w=1),
        "x is not absorbable to the optimal reroute",
    ),
}


@pytest.mark.parametrize("row", sorted(VALIDATE_ROWS))
def test_validate_instance_rejects(row):
    key, breaks, message = VALIDATE_ROWS[row]
    inst = base(key)[0]
    with pytest.raises(InputError, match=message):
        breaks(inst)


def test_every_way_of_making_an_instance_validates_it():
    # the constructor, make_instance and dataclasses.replace raise one error
    inst = base("6A")[0]
    given = {f.name: getattr(inst, f.name) for f in dataclasses.fields(inst) if f.init}
    makes = [
        lambda: LemmaInstance(**{**given, "w": -1}),
        lambda: make_instance(6, inst.graph, inst.u, inst.p_path, inst.q_path, w=-1),
        lambda: dataclasses.replace(inst, w=-1),
    ]
    for make in makes:
        with pytest.raises(InputError, match="^named vertex outside 0..3$"):
            make()


K5 = Graph.complete(5)


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_instance(3, K5, 0, UPath((0, 1)), UPath((0, 2)), w1=3, w2=9),
        lambda: make_instance(5, K5, 0, UPath((0, 1)), UPath((0, 2)), v=3, w=-1),
        lambda: make_instance(6, K5, 0, UPath((0, 1)), UPath((0, 2)), w=-1),
    ],
    ids=["make-rule3", "make-rule5", "make-rule6"],
)
def test_builders_reject_a_named_vertex_out_of_range(build):
    with pytest.raises(InputError, match="named vertex outside"):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: make_instance(3, K5, 0, UPath((0, 1)), UPath((0, 2))),
            "lemma 3 needs distinct u, w1, w2",
        ),
        (
            lambda: make_instance(5, K5, 0, UPath((0, 1)), UPath((0, 2)), v=3),
            "lemma 5 needs distinct u, v, w",
        ),
        (
            lambda: make_instance(6, K5, 0, UPath((0, 1)), UPath((0, 2))),
            "lemma 6 needs w distinct from u",
        ),
    ],
    ids=["make-rule3", "make-rule5", "make-rule6"],
)
def test_builders_reject_a_missing_named_vertex(build, message):
    with pytest.raises(InputError, match=message):
        build()


@pytest.mark.parametrize(
    "call",
    [
        lambda: make_instance(7, K5, 0, UPath((0, 1)), UPath((0, 2)), w=3),
        lambda: validate_instance(replace(lemma=7)(base("6A")[0])),
        lambda: analyze(replace(lemma=7)(base("6A")[0])),
    ],
    ids=["make", "validate", "analyze"],
)
def test_an_unknown_rule_id_is_named(call):
    with pytest.raises(InputError, match="^unknown lemma id 7$"):
        call()


@pytest.mark.parametrize("rule", [3.0, True], ids=["float", "bool"])
@pytest.mark.parametrize(
    "call",
    [
        lambda rule: sample_instances(rule, 6, 1, 1),
        lambda rule: list(enumerate_instances(rule, K5)),
        lambda rule: make_instance(
            rule, K5, 0, UPath((0, 1)), UPath((0, 2)), w1=3, w2=4
        ),
        lambda rule: validate_instance(replace(lemma=rule)(base("3A")[0])),
    ],
    ids=["sample", "enumerate", "make", "validate"],
)
def test_a_rule_id_that_is_no_int_is_unknown(call, rule):
    # 3.0 == 3 and True == 1, so only the type tells them from rule ids
    with pytest.raises(InputError, match=f"^unknown lemma id {rule}$"):
        call(rule)
