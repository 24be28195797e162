"""Command-line surface.

Subcommands:

* ``embed GRAPH6 --spider 3,2,1 [--at U] [--constructive]`` -- embed one
  spider in one graph (graph6 positional, or ``-`` to read one per line
  from stdin).
* ``check --nmax N [--stdin]`` -- the density statement, oracle-checked
  over builtin isomorphism classes (or a stdin graph6 stream).
* ``lemmas --which 3|4|5|6 --samples N --seed S [--records [--n N]]`` --
  analyzer suites with witness verification; ``--records`` streams one JSON
  record per analysis on n-vertex hosts (8 by default) instead of a summary.
* ``census --n N --k K`` -- threshold graphs missing an all-even spider.

``--json`` prints machine-readable reports on stdout.  Exit codes:
0 clean, 1 failures found, 2 input error (a run that would check nothing,
such as a census whose threshold exceeds K_n's edge count, counts as one),
3 budget/cap exceeded.
The ESOS_BUDGET environment variable, a nonnegative integer, overrides every
search node budget except instance synthesis's fixed one (the optimal-reroute
and spanning-path searches only count); any other value is an input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .embed import embed_bruteforce, embed_constructive, verify_embedding
from .errors import CapabilityError, InputError, SoundnessError
from .graphs import Graph
from .harness import (
    extremal_census,
    run_lemma_suite,
    verify_conjecture_spiders,
)
from .enumeration import read_graph6_stream
from .lemmas import LEMMA_IDS, analyze, analysis_record, sample_instances, verify_outcome
from .spiders import Spider


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="esos")
    top.add_argument("--json", action="store_true", help="machine-readable output")
    sub = top.add_subparsers(dest="command", required=True)

    p_embed = sub.add_parser("embed", help="embed one spider in one graph")
    p_embed.add_argument("graph6", help="graph6 string, or - for stdin lines")
    p_embed.add_argument("--spider", required=True, help="leg lengths, e.g. 3,2,1")
    p_embed.add_argument("--at", type=int, default=None, help="centre vertex")
    p_embed.add_argument(
        "--constructive",
        action="store_true",
        help="embed-or-certify at the centre instead of the plain oracle",
    )

    p_check = sub.add_parser("check", help="density statement at desk scale")
    p_check.add_argument("--nmax", type=int, default=6)
    p_check.add_argument(
        "--stdin", action="store_true", help="read graph6 stream from stdin"
    )

    p_lem = sub.add_parser("lemmas", help="case-analyzer suites")
    p_lem.add_argument("--which", type=int, required=True, choices=LEMMA_IDS)
    p_lem.add_argument("--samples", type=int, default=1000)
    p_lem.add_argument("--seed", type=int, default=0)
    p_lem.add_argument(
        "--records",
        action="store_true",
        help="stream one JSON record per analysis instead of a summary",
    )
    p_lem.add_argument(
        "--n", type=int, help="host order for --records sampling (default 8)"
    )

    p_census = sub.add_parser("census", help="threshold-graph census")
    p_census.add_argument("--n", type=int, required=True)
    p_census.add_argument("--k", type=int, required=True)
    return top


def _cmd_embed(args) -> int:
    T = Spider.parse(args.spider)
    if args.constructive and args.at is None:
        raise InputError("--constructive needs --at CENTRE")
    if args.graph6 == "-":
        graphs = read_graph6_stream(sys.stdin)
    else:
        graphs = [Graph.from_graph6(args.graph6)]
    seen = failures = 0
    for G in graphs:
        seen += 1
        if args.constructive:
            out = embed_constructive(G, T, args.at)
            payload = out.to_json()
            ok = out.embedded
        else:
            emb = embed_bruteforce(G, T, args.at)
            ok = emb is not None
            payload = (
                {"outcome": "embedded", **emb.to_json()}
                if ok
                else {"outcome": "none"}
            )
            if ok and not verify_embedding(G, T, emb):
                raise SoundnessError("oracle embedding failed verification")
        payload["graph6"] = G.to_graph6()
        payload["spider"] = T.to_json()
        if args.json:
            print(json.dumps(payload, sort_keys=True))
        else:
            print(_pretty_embed(payload))
        if not ok and not args.constructive:
            failures += 1
    if not seen:
        raise InputError("no graph6 line on stdin")
    return 1 if failures else 0


def _pretty_embed(payload: dict) -> str:
    if payload["outcome"] == "embedded":
        legs = " ".join("-".join(map(str, leg)) for leg in payload["legs"])
        return f"{payload['graph6']}: embedded spider {payload['spider']} at {payload['center']}: {legs}"
    if payload["outcome"] == "certified":
        return (
            f"{payload['graph6']}: certified ({payload['kind']}) "
            f"X={payload['x']} Y={payload['y']}"
        )
    return f"{payload['graph6']}: no embedding of {payload['spider']}"


def _cmd_check(args) -> int:
    if not args.stdin:
        return _emit(verify_conjecture_spiders(n_max=args.nmax), args.json, "check")
    bad: list[InputError] = []

    def graphs_before_a_bad_line():
        try:
            yield from read_graph6_stream(sys.stdin)
        except InputError as exc:
            bad.append(exc)

    report = verify_conjecture_spiders(graphs=graphs_before_a_bad_line())
    if not bad and not report.counts["graphs"]:
        raise InputError("no graph6 line on stdin")
    code = _emit(report, args.json, "check")
    if bad:
        raise bad[0]  # reported after the graphs before it, with exit code 2
    return code


def _cmd_lemma_records(args) -> int:
    n = 8 if args.n is None else args.n
    insts, _ = sample_instances(args.which, n, args.samples, args.seed)
    if not insts:
        raise InputError(f"no rule {args.which} instance sampled on {n} vertices")
    failures = 0
    for inst in insts:
        out = analyze(inst)
        ok = verify_outcome(inst, out)
        failures += not ok
        print(json.dumps(analysis_record(inst, out, ok), sort_keys=True))
    return 1 if failures else 0


def _emit(report, as_json: bool, label: str) -> int:
    if as_json:
        print(report.dumps())
    else:
        print(f"{label}: scope={report.scope} counts={report.counts}")
        for f in report.failures[:20]:
            print(f"  FAILURE: {f}")
        if len(report.failures) > 20:
            print(f"  ... {len(report.failures) - 20} more")
        print(f"{label}: {'clean' if report.ok else 'FAILURES FOUND'}")
    print(f"[{label} took {report.timing:.2f}s]", file=sys.stderr)
    return report.exit_code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "embed":
            return _cmd_embed(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "lemmas":
            if args.records:
                return _cmd_lemma_records(args)
            if args.n is not None:
                raise InputError("--n sets the host order of --records only")
            rep = run_lemma_suite(args.which, args.samples, args.seed)
            if not rep.counts["instances"]:
                raise InputError(f"no rule {args.which} instance sampled")
            return _emit(rep, args.json, f"lemmas-{args.which}")
        if args.command == "census":
            rep = extremal_census(args.n, args.k)
            return _emit(rep, args.json, "census")
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"capability/budget error: {exc}", file=sys.stderr)
        return 3
    except SoundnessError as exc:
        print(f"soundness failure: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
