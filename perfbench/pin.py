"""Regenerate ``pins.json``: the per-unit counts every run is checked against.

    python3 perfbench/pin.py [WORKLOAD ...]

Runs each named workload (all four by default) over its whole universe in
this process, requires every case to pass its checks, and records each
unit's tally.  The dichotomy and exhaustive tables must add up to the known
totals in ``workloads.py``.  Prints per-rule case splits for the record.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (needs the paths above)


def pin(name: str) -> dict:
    wl = workloads.WORKLOADS[name](seed=0)
    pins = {}
    t0 = time.perf_counter()
    for unit in wl.units:
        tally = wl.new_tally(unit)
        for case in wl.cases(unit, tally):
            if not case():
                raise SystemExit(f"{name}: a case failed in unit {wl.unit_key(unit)}")
        pins[wl.unit_key(unit)] = tally
    print(f"{name}: {len(pins)} units in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return dict(sorted(pins.items()))


def main() -> int:
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    try:
        with workloads.PINS.open() as fh:
            pins = json.load(fh)
    except FileNotFoundError:
        pins = {}
    for name in names:
        pins[name] = pin(name)
        with workloads.PINS.open("w") as fh:
            json.dump(dict(sorted(pins.items())), fh, separators=(",", ":"))
            fh.write("\n")
    if set(pins) == set(workloads.WORKLOADS):
        workloads.check_pin_totals(pins)
    for name in ("lemmas-exhaustive", "lemmas-sampled"):
        for rule in workloads.LEMMA_IDS:
            rows = [p for key, p in pins.get(name, {}).items() if key.startswith(f"{rule}:")]
            sums = [sum(col) for col in zip(*rows)]
            print(f"{name} rule {rule}: {sums}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
