"""The esos benchmark: four workloads, timed per case, checked per case.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is dichotomy, lemmas-exhaustive, lemmas-sampled, stream, or ``all``
to run the four in turn.  Run it from the repository root; it imports the
library from ``src/``.

``--trace 0`` measures the end-to-end metrics.  Each set-up and the timed run
happen in fresh interpreters (``child.py``) with ``ESOS_BUDGET`` removed from
the environment, so every cache starts cold, as it does for a CLI call.  The
set-up runs SETUP_SAMPLES times and ``setup_s`` is their median; the last
set-up is followed by a closed loop of cases, one at a time, for S seconds.
Every time is scaled to the reference speed of ``calibrate.py`` by bursts of
its loop measured around it; the unscaled figures are printed as ``raw``.

``--trace 1`` measures the per-layer metrics.  It runs the set-up and a fixed
quota of units four times: twice untraced and twice traced.  The two traced
runs must agree on every count, every layer the workload exercises must
record calls, and the spans of the first traced run are written to
``.perfbench/<workload>-seed<N>-spans.tsv.gz``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dichotomy", "lemmas-exhaustive", "lemmas-sampled", "stream")
SETUP_SAMPLES = 5
CHILD_GRACE_S = 60  # on top of the measured seconds, before a child is killed

# Units per traced run: a few seconds of work untraced.
TRACE_QUOTA = {"dichotomy": 2000, "lemmas-exhaustive": 100, "lemmas-sampled": 150, "stream": 150}

# Layers each workload must reach; zero calls means a patch was missed.
EXPECTED_CALLS = {
    "dichotomy": (
        "enumeration.enumerate_graphs",
        "enumeration.canonical_key",
        "graphs.satisfies_local_condition",
        "graphs.find_H_subgraph",
        "graphs.verify_H_certificate",
        "paths.longest_u_path",
        "paths.second_ends",
        "paths.reroute_ends",
        "paths.is_absorbable",
        "embed.embed_constructive",
        "embed.embed_bruteforce",
        "embed.verify_embedding",
    ),
    "lemmas-exhaustive": (
        "enumeration.enumerate_graphs",
        "enumeration.canonical_key",
        "paths.iter_upaths_exact",
        "paths.reroute_maximizing_last_neighbor",
        "paths.is_absorbable",
        "lemmas.enumerate_instances",
        "lemmas.make_instance",
        "lemmas.validate_instance",
        "lemmas.analyze",
        "lemmas.verify_outcome",
    ),
    "lemmas-sampled": (
        "paths.longest_u_path",
        "paths.iter_upaths_exact",
        "paths.first_upath_to",
        "paths.reroute_maximizing_last_neighbor",
        "paths.is_absorbable",
        "lemmas.sample_instances",
        "lemmas.make_instance",
        "lemmas.validate_instance",
        "lemmas.analyze",
        "lemmas.verify_outcome",
    ),
    "stream": (
        "graphs.Graph.from_graph6",
        "graphs.satisfies_local_condition",
        "embed.embed_bruteforce",
        "embed.verify_embedding",
    ),
}


class BenchmarkError(Exception):
    pass


def child(args: list[str], timeout: float) -> dict:
    """Run child.py in a fresh interpreter and return its JSON result, with
    ``setup_s`` measured from the moment it was started."""
    env = {k: v for k, v in os.environ.items() if k != "ESOS_BUDGET"}
    env["PYTHONHASHSEED"] = "0"
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"child.py {' '.join(args)} exited with {proc.returncode}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_raw_s"] = out["ready_at"] - spawned
    out["setup_s"] = out["setup_raw_s"] * out.get("setup_factor", 1.0)
    return out


def report_errors(name: str, result: dict) -> None:
    for line in result.get("errors", []):
        print(f"{name}: {line}", file=sys.stderr)


def measure(name: str, seed: int, seconds: int) -> dict:
    base = ["--workload", name, "--seed", str(seed)]
    setups = [
        child(base + ["--setup-only"], timeout=CHILD_GRACE_S) for _ in range(SETUP_SAMPLES - 1)
    ]
    run = child(base + ["--seconds", str(seconds)], timeout=seconds + CHILD_GRACE_S)
    setups.append(run)
    report_errors(name, run)
    raw = {"setup_s": statistics.median(s["setup_raw_s"] for s in setups), **run["raw"]}
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "cases_per_s": (run["cases_per_s"], "1/s"),
        "case_ms_p50": (run["case_ms_p50"], "ms"),
        "case_ms_p99": (run["case_ms_p99"], "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    fail_frac = run["failed"] / run["attempted"] if run["attempted"] else 1.0
    print(
        f"{name} seed {seed}: {run['attempted']} cases in {run['elapsed_s']:.2f} s, "
        f"{run['units_done']}/{run['units_total']} units complete and pin-checked"
        + (" (whole universe)" if run["universe_done"] else "")
        + f"; {run['bursts']} reference bursts took {run['burst_s']:.2f} s,"
        f" median speed factor {run['speed_factor']:.3f}"
    )
    for metric, (value, unit) in metrics.items():
        note = f"  raw {raw[metric]:.4f}" if metric in raw else ""
        if metric == "setup_s":
            note += "; median of " + ", ".join(f"{s['setup_s']:.3f}" for s in setups)
        elif metric.startswith("case_ms"):
            note += f"; of {run['samples']} samples"
        print(f"  {metric:<12} {value:12.4f} {unit}{note}")
    print(
        f"  {'fail_frac':<12} {fail_frac:12.4f}  ({run['failed']} failed, "
        f"{run['soundness_errors']} of them SoundnessError)"
    )
    return {
        "correct": run["failed"] == 0 and run["attempted"] > 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def is_count(metric: str) -> bool:
    """Metrics that must repeat exactly between two traced runs."""
    return not metric.endswith("_s") and not metric.startswith("trace.")


def trace(name: str, seed: int) -> dict:
    base = ["--workload", name, "--seed", str(seed), "--quota", str(TRACE_QUOTA[name])]
    spans = ROOT / ".perfbench" / f"{name}-seed{seed}-spans.tsv.gz"
    plain = [child(base, timeout=180) for _ in range(2)]
    first = child(base + ["--trace", "--spans", str(spans)], timeout=180)
    second = child(base + ["--trace"], timeout=180)
    for result in (*plain, first, second):
        report_errors(name, result)
    layers = first["layers"]
    # the faster of each pair, so that a slow spell of the machine does not
    # pass for tracing overhead
    untraced = min(r["region_wall_s"] for r in plain)
    traced = min(r["region_wall_s"] for r in (first, second))
    layers["trace.untraced_wall_s"] = {"value": untraced, "unit": "s"}
    layers["trace.traced_wall_s"] = {"value": traced, "unit": "s"}
    layers["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    layers["trace.overhead_frac"] = {"value": (traced - untraced) / untraced, "unit": "ratio"}

    problems = [
        f"{m} differs between traced runs: {v['value']} vs {second['layers'][m]['value']}"
        for m, v in layers.items()
        if is_count(m) and v != second["layers"][m]
    ]
    problems += [
        f"{fn} recorded no calls" for fn in EXPECTED_CALLS[name] if not layers[f"{fn}.calls"]["value"]
    ]
    problems += [
        f"{run} run: {res['attempted']} cases attempted, {res['failed']} failed"
        for run, res in zip(("untraced", "untraced", "traced", "traced"), (*plain, first, second))
        if res["failed"] or res["attempted"] != first["attempted"]
    ]
    for line in problems:
        print(f"{name}: {line}", file=sys.stderr)

    print(
        f"{name} seed {seed}, traced quota of {TRACE_QUOTA[name]} units: "
        f"{first['attempted']} cases; untraced {untraced:.2f} s, traced {traced:.2f} s "
        f"(overhead {traced - untraced:.2f} s), "
        f"{layers['trace.uncovered_frac']['value']:.1%} of wall time outside any span"
    )
    selfs = sorted(
        ((v["value"], m[: -len(".self_s")]) for m, v in layers.items() if m.endswith(".self_s")),
        reverse=True,
    )
    for value, fn in selfs[:8]:
        calls = layers[f"{fn}.calls"]["value"]
        share = value / first["region_wall_s"]
        print(f"  {fn:<42} self {value:8.3f} s  {share:6.1%}  calls {calls}")
    return {
        "correct": not problems,
        "attempted": first["attempted"],
        "failed": first["failed"],
        "metrics": layers,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "esos").is_dir():
        print(f"no library at {ROOT / 'src' / 'esos'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            if args.trace:
                results[name] = trace(name, args.seed)
            else:
                results[name] = measure(name, args.seed, args.seconds)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{m}": v for name, r in results.items() for m, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
