"""One benchmark pass in a fresh interpreter; ``run.py`` starts it.

    python3 perfbench/child.py --workload NAME --seed N
        (--seconds S | --quota UNITS | --setup-only) [--trace] [--spans PATH]

Sets the workload up, then runs its cases until the deadline (``--seconds``),
for a fixed number of units (``--quota``, so counts repeat exactly), or not at
all (``--setup-only``).  Prints one JSON object on its last stdout line.

Right after the set-up, and every CAL_EVERY_S of a timed run, it runs bursts
of the reference loop in ``calibrate.py``.  Every time it reports is scaled
by the machine's speed measured around it (the ``raw`` figures are not), so
that a run on a slow spell of a shared host reads like one on a fast spell.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from array import array
from bisect import bisect_left
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import calibrate  # noqa: E402
import workloads  # noqa: E402  (needs the paths above)
from esos.errors import EsosError, SoundnessError  # noqa: E402
from tracer import Tracer  # noqa: E402

MAX_REPORTED_ERRORS = 20  # every SoundnessError is reported on top of these
SETUP_BURSTS = 100  # reference bursts right after the set-up, about 0.2 s
CAL_EVERY_S = 0.05  # work between two reference bursts in a timed run


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class SpeedTrack:
    """Reference bursts between the cases of a timed run.

    ``factor(t)`` is REF_BURST_S over the mean of the two bursts on either
    side of time ``t``: the machine's speed swings within a second, so the
    nearest bursts track it best.  Without bursts (quota runs) it is 1."""

    def __init__(self):
        self.mids: list[float] = []
        self.times: list[float] = []
        self.factors: list[float] = []
        self.spent = 0.0

    def burst(self) -> None:
        t0 = time.perf_counter()
        d = calibrate.burst()
        self.mids.append(t0 + d / 2)
        self.times.append(d)
        self.spent += time.perf_counter() - t0

    def finish(self) -> None:
        # factors[j - 1] scales the work between bursts j - 1 and j
        self.factors = [
            2 * calibrate.REF_BURST_S / (a + b) for a, b in zip(self.times, self.times[1:])
        ]

    def factor(self, t: float) -> float:
        if not self.factors:
            return 1.0
        j = bisect_left(self.mids, t)
        return self.factors[min(max(j, 1), len(self.factors)) - 1]


def run_cases(wl, deadline=None, quota=None, tracer=None) -> dict:
    # End time and duration of each case and of each stretch of work between
    # reference bursts; flat arrays, so they add little to the peak RSS.
    case_end, case_s = array("d"), array("d")
    seg_end, seg_s = array("d"), array("d")
    speed = SpeedTrack()
    calibrated = deadline is not None
    attempted = failed = soundness = 0
    units_done = 0
    errors = []

    def fail(what: str, exc: Exception | None = None):
        nonlocal failed, soundness
        failed += 1
        if isinstance(exc, SoundnessError):
            soundness += 1
        if len(errors) < MAX_REPORTED_ERRORS or isinstance(exc, SoundnessError):
            errors.append(f"{what}: {type(exc).__name__}: {exc}" if exc else what)

    def end_segment(now: float) -> float:
        seg_end.append(now)
        seg_s.append(now - seg_start)
        if calibrated:
            speed.burst()
        return time.perf_counter()

    units = wl.units if quota is None else workloads.quota_units(wl, quota)
    if calibrated:
        speed.burst()
    seg_start = time.perf_counter()
    timed_out = False
    for unit in units:
        key = wl.unit_key(unit)
        tally = wl.new_tally(unit)
        cases = wl.cases(unit, tally)
        complete = True
        while True:
            if deadline is not None and time.monotonic() >= deadline:
                complete, timed_out = False, True
                break
            if tracer is not None:
                tracer.case_id = -1
            try:
                case = next(cases)
            except StopIteration:
                break
            except (EsosError, workloads.WitnessError) as exc:
                attempted += 1
                fail(f"unit {key}", exc)
                complete = False
                break
            attempted += 1
            if tracer is not None:
                tracer.case_id = attempted
            c0 = time.perf_counter()
            try:
                ok = case()
            except EsosError as exc:
                ok = exc
            c1 = time.perf_counter()
            case_end.append(c1)
            case_s.append(c1 - c0)
            if isinstance(ok, EsosError):
                fail(f"unit {key} case {attempted}", ok)
            elif not ok:
                fail(f"unit {key} case {attempted}: verification failed")
            if calibrated and c1 - seg_start >= CAL_EVERY_S:
                seg_start = end_segment(c1)
        if tracer is not None:
            tracer.fold_budgets()
        if complete:
            units_done += 1
            pin = wl.pins.get(key)
            if pin != tally:
                fail(f"unit {key}: tally {tally} != pin {pin}")
        if timed_out:
            break
    end_segment(time.perf_counter())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    speed.finish()

    def timings(scaled: bool) -> dict:
        f = speed.factor if scaled else lambda t: 1.0
        elapsed = sum(d * f(t) for t, d in zip(seg_end, seg_s))
        lat = sorted(d * f(t) for t, d in zip(case_end, case_s))
        return {
            "cases_per_s": max(attempted - failed, 0) / elapsed,
            "case_ms_p50": 1e3 * percentile(lat, 0.50) if lat else 0.0,
            "case_ms_p99": 1e3 * percentile(lat, 0.99) if lat else 0.0,
        }

    return {
        "elapsed_s": sum(seg_s),
        "peak_rss_mb": peak_rss_mb,
        **timings(scaled=True),
        "raw": timings(scaled=False),
        "bursts": len(speed.times),
        "burst_s": speed.spent,
        "speed_factor": statistics.median(speed.factors) if speed.factors else 1.0,
        "attempted": attempted,
        "failed": failed,
        "soundness_errors": soundness,
        "errors": errors,
        "samples": len(case_s),
        "units_total": len(wl.units),
        "units_done": units_done,
        "universe_done": units_done == len(wl.units),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--quota", type=int)
    mode.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(extra_modules=[workloads])
    region_start = time.perf_counter()
    wl = workloads.make(args.workload, args.seed)
    ready_at = time.monotonic()
    out = {"ready_at": ready_at}
    if args.quota is None:
        out["setup_factor"] = calibrate.speed(SETUP_BURSTS)
    if not args.setup_only:
        deadline = time.monotonic() + args.seconds if args.seconds is not None else None
        out.update(run_cases(wl, deadline=deadline, quota=args.quota, tracer=tracer))
        out["region_wall_s"] = time.perf_counter() - region_start
        if tracer is not None:
            tracer.fold_budgets()
            out["layers"] = tracer.summary(out["region_wall_s"])
            if args.spans is not None:
                tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
