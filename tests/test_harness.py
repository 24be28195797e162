import io
import json

import pytest

from oracles import brute_canonical_classes

from esos.cli import main
from esos.enumeration import (
    canonical_form,
    canonical_key,
    enumerate_graphs,
    read_graph6_stream,
)
from esos.errors import CapabilityError, InputError
from esos.graphs import Graph
from esos.harness import (
    extremal_census,
    run_lemma_suite,
    verify_conjecture_spiders,
)

KNOWN_CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def test_enumeration_counts_match_known_table():
    for n in range(1, 7):
        assert len(enumerate_graphs(n)) == KNOWN_CLASS_COUNTS[n]


def test_enumeration_matches_independent_dedup_oracle():
    for n in range(1, 6):
        assert len(enumerate_graphs(n)) == brute_canonical_classes(n)


def test_enumeration_reps_are_canonical_and_distinct():
    reps = enumerate_graphs(5)
    keys = {canonical_key(G) for G in reps}
    assert len(keys) == len(reps)
    for G in reps[:10]:
        assert canonical_form(G) == G


def test_enumeration_cap():
    with pytest.raises(CapabilityError):
        enumerate_graphs(8)
    with pytest.raises(InputError):
        enumerate_graphs(0)


def test_canonical_key_is_isomorphism_invariant():
    G = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    H = Graph.from_edges(5, [(4, 2), (2, 0), (0, 1), (1, 3)])
    assert canonical_key(G) == canonical_key(H)
    assert canonical_key(G) != canonical_key(Graph.cycle(5))


def test_verify_conjecture_small():
    rep = verify_conjecture_spiders(5)
    assert rep.ok
    assert rep.counts["graphs"] == 52  # 1+2+4+11+34
    rep1 = verify_conjecture_spiders(1)
    assert rep1.ok and rep1.counts["spider_tests"] == 0


def test_verify_conjecture_failure_scope_is_monotone():
    small = verify_conjecture_spiders(3)
    large = verify_conjecture_spiders(5)
    as_set = lambda rep: {json.dumps(f, sort_keys=True) for f in rep.failures}
    assert as_set(small) <= as_set(large)


def test_verify_conjecture_detects_injected_density_fault():
    # drop the density gate: sparse graphs now get tested and must fail
    sparse = [Graph.path_graph(3)]  # 2 edges, n=3
    from esos.embed import embed_bruteforce
    from esos.spiders import enumerate_spiders

    missing = [
        T.legs
        for T in enumerate_spiders(3)  # k=3 fails 2e > (k-1)n (4 <= 6)
        if embed_bruteforce(sparse[0], T) is None
    ]
    assert missing  # the harness's density gate is what keeps runs clean


def test_verify_conjecture_stream_input():
    stream = io.StringIO("C~\nDhc\n")
    rep = verify_conjecture_spiders(graphs=read_graph6_stream(stream))
    assert rep.ok and rep.counts["graphs"] == 2


def test_census_example_n5_k4():
    rep = extremal_census(5, 4)
    assert rep.scope["threshold_edges"] == 7
    host6 = Graph.from_edges(
        5, [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    ).to_graph6()
    from esos.enumeration import canonical_form

    canon = canonical_form(
        Graph.from_graph6(host6)
    ).to_graph6()
    hits = [e for e in rep.notes["census"] if e["graph6"] == canon]
    assert hits, "the dominated-pair host must appear in the census"
    assert any(e["local_split"] or e["whole_graph_split"] for e in hits)


def test_census_small_and_errors():
    rep = extremal_census(3, 2)
    assert rep.ok
    with pytest.raises(InputError):
        extremal_census(5, 3)  # odd k has no all-even spiders


def test_lemma_suite_runs_clean_and_deterministic():
    rep1 = run_lemma_suite(4, 60, seed=9)
    rep2 = run_lemma_suite(4, 60, seed=9)
    assert rep1.ok and rep1.counts["instances"] == 60
    assert rep1.dumps() == rep2.dumps()
    zero = run_lemma_suite(3, 0, seed=1)
    assert zero.ok and zero.counts["instances"] == 0
    with pytest.raises(InputError):
        run_lemma_suite(7, 10, seed=0)


# -- CLI ------------------------------------------------------------------------


def test_cli_check_clean(capsys):
    assert main(["check", "--nmax", "4"]) == 0
    out = capsys.readouterr().out
    assert "clean" in out


def test_cli_check_json_deterministic(capsys):
    assert main(["--json", "check", "--nmax", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["--json", "check", "--nmax", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["failures"] == []


def test_cli_embed_paths(capsys):
    host = Graph.from_edges(
        5, [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    ).to_graph6()
    assert main(["embed", host, "--spider", "2,2", "--at", "0"]) == 0
    assert main(["embed", host, "--spider", "2,2", "--at", "3"]) == 1
    assert main(["--json", "embed", host, "--spider", "2,2", "--at", "3",
                 "--constructive"]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert payload["outcome"] == "certified" and payload["kind"] == "local"


def test_cli_embed_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("C~\nD~{\n"))
    assert main(["embed", "-", "--spider", "1,1", "--at", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2


def test_cli_embed_stdin_streams_and_names_the_bad_line(capsys, monkeypatch):
    # the graph before a malformed line is answered before that line is read
    monkeypatch.setattr("sys.stdin", io.StringIO("C~\nC~x\nD~{\n"))
    assert main(["embed", "-", "--spider", "1,1", "--at", "0"]) == 2
    out, err = capsys.readouterr()
    assert out.splitlines() == ["C~: embedded spider [1, 1] at 0: 0-1 0-2"]
    assert "line 2" in err


def test_cli_check_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("C~\nDhc\nD~{\n"))
    assert main(["--json", "check", "--stdin"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["graphs"] == 3
    assert payload["scope"]["source"] == "stream"


def test_cli_input_error_exit_2(capsys):
    assert main(["census", "--n", "5", "--k", "3"]) == 2
    assert main(["embed", "C~", "--spider", "zap", "--at", "0"]) == 2


def test_cli_budget_exit_3(monkeypatch):
    monkeypatch.setenv("ESOS_BUDGET", "1")
    k7 = Graph.complete(7).to_graph6()
    assert main(["embed", k7, "--spider", "3,2", "--at", "0"]) == 3


def test_cli_lemmas_and_census(capsys):
    assert main(["--json", "lemmas", "--which", "6", "--samples", "40",
                 "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["instances"] == 40
    assert main(["census", "--n", "4", "--k", "2"]) == 0


def test_cli_lemma_records_stream(capsys):
    assert main(["lemmas", "--which", "4", "--samples", "5", "--seed", "2",
                 "--records", "--n", "7"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 5
    for line in lines:
        record = json.loads(line)
        assert {"lemma", "instance", "lambda", "case", "witness",
                "verified"} <= set(record)
        assert record["verified"] is True
        assert record["lambda"] == record["lambda_doubled"] / 2
