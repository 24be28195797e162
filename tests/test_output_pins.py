"""SHA-256 pins of the wire outputs a behaviour-preserving change must keep
byte for byte.

* Analysis records: the ``json.dumps(analysis_record(...), sort_keys=True)``
  line of each instance, as ``esos --json lemmas --which R --records`` prints
  it.  The sampled rows are ``--n 9 --samples 150 --seed 11``, with
  ESOS_BUDGET unset and set to 300; the enumerated rows cover every instance
  on every host with n <= 5, so each analyzer's witnesses are pinned over a
  whole population, not only the instance streams.
* Reports: ``dichotomy_check(6).dumps()`` and ``extremal_census(6, 4).dumps()``.
"""

import hashlib
import json

import pytest

from esos.enumeration import graphs_up_to
from esos.harness import dichotomy_check, extremal_census
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

REPORTS = {
    "dichotomy-6": (
        lambda: dichotomy_check(6),
        "a8a3c4a293bcd43c1e5e3ea7e4c8292de9e4026057c71fba9f25eb930a81bfd9",
    ),
    "census-6-4": (
        lambda: extremal_census(6, 4),
        "71f445fe858a367be07792c9f84f81387411f1f97ec41db0a4ed53b31e259db0",
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
