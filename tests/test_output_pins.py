"""SHA-256 pins of the wire outputs a behaviour-preserving change must keep
byte for byte.

* Analysis records: the ``json.dumps(analysis_record(...), sort_keys=True)``
  line of each instance, as ``esos --json lemmas --which R --records`` prints
  it.  The sampled rows are ``--n 9 --samples 150 --seed 11``, with
  ESOS_BUDGET unset and set to 300; the enumerated rows cover every instance
  on every host with n <= 5, so each analyzer's witnesses are pinned over a
  whole population, not only the instance streams.
* Reports: the ``dumps()`` of every harness suite at a small scope.  The
  density check runs once over the builtin classes and once over a fixed
  graph6 stream.
* CLI text: the stdout of ``esos check`` and ``esos lemmas`` without
  ``--json``.  Text mode prints ``counts`` in insertion order, while
  ``Report.dumps`` sorts its keys, so only these rows notice a reordered
  counts dict.
"""

import hashlib
import json

import pytest

from esos.cli import main
from esos.enumeration import graphs_up_to
from esos.graphs import Graph
from esos.harness import (
    dichotomy_check,
    exhaustive_lemma_suite,
    extremal_census,
    run_lemma_suite,
    verify_conjecture_spiders,
)
from esos.lemmas import (
    analysis_record,
    analyze,
    enumerate_instances,
    sample_instances,
    verify_outcome,
)

# (rule, ESOS_BUDGET) -> digest of the 150 sampled records
SAMPLED_RECORDS = {
    (3, None): "c95412f99a0f43eb510ad6bd5704f73e7fedb18f474afd7391df134a4fc7bacd",
    (4, None): "8c0c7685e87df026b51b818e8f0240331c3c40ed65a8c8717ffa0920757474e2",
    (5, None): "b5685c6ccce84c69bd1ae043ee81e6c4901987c9ae93afe6da452fbb62bcb3fe",
    (6, None): "aec252212eb156c93dfc6c582da04349f2fa279355238c465c34f6c2d6032b53",
    (3, "300"): "77ed5c762a98fade1b2f8e4b6d71db203ae9bdfd2b134544e2946781b22ca958",
    (4, "300"): "24f00546b79c7b0fddff860cdc5e7cee582208135bc65128b14602634b7043ff",
    (5, "300"): "62fab2fe3159fde493658a4369c5773a09c0b34e01dba983ae0f76e62075f4ff",
    (6, "300"): "13ad416d843382e375a9dee897a21173657eeb166fe472c9cb8970cf6aa463bc",
}

# rule -> (record count, digest) over every instance on hosts with n <= 5
ENUMERATED_RECORDS = {
    3: (402, "84bebb45f1d7a6e12798a8b4d7eb96ef95daa388ec9838f6309c20124ae5629d"),
    4: (981, "9ac1077be40d1f1da9a90cd54010986742e69851ecd840b0b3224671cea0b22b"),
    5: (408, "a3bbb3b61077cf6b74ce020b42e223dc9d374360b1de496c971517e159c3c730"),
    6: (1610, "99e0565de17abfdcd7bf5e0a20b21baca3117a7114ec405dcf03f989415f6e73"),
}

# a fixed graph6 stream: K1, K3, C6, P7, K6, three seeded G(n, 1/2) and Petersen
STREAM = ["@", "Bw", "EhEG", "FhCGG", "E~~w", "FtjdW", "GAZGo[", "HW~peiT", "IheA@GUAo"]

REPORTS = {
    "dichotomy-6": (
        lambda: dichotomy_check(6),
        "a8a3c4a293bcd43c1e5e3ea7e4c8292de9e4026057c71fba9f25eb930a81bfd9",
    ),
    "census-6-4": (
        lambda: extremal_census(6, 4),
        "71f445fe858a367be07792c9f84f81387411f1f97ec41db0a4ed53b31e259db0",
    ),
    "check-6": (
        lambda: verify_conjecture_spiders(6),
        "0794b4510dd1c9f248ebca2f33b0fc8f2529d0d2220aabe717e59dda38acae41",
    ),
    "check-stream": (
        lambda: verify_conjecture_spiders(graphs=map(Graph.from_graph6, STREAM)),
        "a2905e340ee3b2a385f2be1960eeab5eb6cec8ce81c94813f85bd8cd18f47e81",
    ),
    **{
        f"exhaustive-{rule}-5": (
            lambda rule=rule: exhaustive_lemma_suite(rule, 5),
            digest,
        )
        for rule, digest in {
            3: "a65f11257f3681528024ebea6ed1ee062408d0256dc730769e5b846b2330ffe2",
            4: "af5aea3c1ca7be70fb7c4c78ee6e686b446a02739b578ae30ab96eab3c5e2d9b",
            5: "a962e7105b8279f271a486faad96a6ece4837595e0f4f36095bc22bf6be0ab57",
            6: "c5a357253d5d9b53585ed994ec4480992d5e6b07cffb915762d5d70d1e9f8d3e",
        }.items()
    },
    **{
        f"sampled-{rule}-60-9": (
            lambda rule=rule: run_lemma_suite(rule, 60, seed=9),
            digest,
        )
        for rule, digest in {
            3: "393ae0b4f5bf0ef5c3dbc51023487af653c43c36c1f3dc087fbbcb68e19bccee",
            4: "f1d99ae5454ce41de139d32f0c510cb42b6ab306a61c2d7f086a9263c2cccd55",
            5: "c74f43f830a33bb5a9179cd495718e4bbc17d774d57320035dfcd47bd82ed610",
            6: "fc0e1fbe6faf6a318451c25bf4a2b9aab934631c55239d0edfaf36362b6cefe1",
        }.items()
    },
}

# argv -> digest of the text-mode stdout
CLI_STDOUT = {
    ("check", "--nmax", "5"): (
        "d81054f5c82d8347f926c645a2d595ac122005d7e92ac7923ec0503d6bac53a5"
    ),
    ("lemmas", "--which", "4", "--samples", "60", "--seed", "9"): (
        "57601713a53a93f9dfef8996f9cbeb46f1daec1dce07e29f6fbe8a2d125497d9"
    ),
}


def _record_digest(insts) -> tuple[int, str]:
    """How many records, and the SHA-256 of their lines as the CLI prints
    them."""
    h = hashlib.sha256()
    count = 0
    for inst in insts:
        out = analyze(inst)
        record = analysis_record(inst, out, verify_outcome(inst, out))
        h.update(json.dumps(record, sort_keys=True).encode() + b"\n")
        count += 1
    return count, h.hexdigest()


@pytest.mark.parametrize("rule, budget", sorted(SAMPLED_RECORDS, key=str))
def test_sampled_analysis_records_are_pinned(monkeypatch, rule, budget):
    if budget is None:
        monkeypatch.delenv("ESOS_BUDGET", raising=False)
    else:
        monkeypatch.setenv("ESOS_BUDGET", budget)
    insts, _ = sample_instances(rule, 9, 150, seed=11)
    assert _record_digest(insts) == (150, SAMPLED_RECORDS[rule, budget])


@pytest.mark.parametrize("rule", sorted(ENUMERATED_RECORDS))
def test_enumerated_analysis_records_are_pinned(monkeypatch, rule):
    monkeypatch.delenv("ESOS_BUDGET", raising=False)
    insts = (inst for G in graphs_up_to(5) for inst in enumerate_instances(rule, G))
    assert _record_digest(insts) == ENUMERATED_RECORDS[rule]


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_suite_reports_are_pinned(monkeypatch, name):
    monkeypatch.delenv("ESOS_BUDGET", raising=False)
    run, digest = REPORTS[name]
    assert hashlib.sha256(run().dumps().encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", sorted(CLI_STDOUT))
def test_cli_text_stdout_is_pinned(monkeypatch, capsys, argv):
    monkeypatch.delenv("ESOS_BUDGET", raising=False)
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_STDOUT[argv]
