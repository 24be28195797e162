"""Run reports and their one driver, ``_suite``, which every harness suite
and ``embed.theorem2_check`` run through; it sits beside Report because
``esos.embed`` cannot import ``esos.harness``, which imports ``esos.embed``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Iterable


@dataclass
class Report:
    scope: dict
    counts: dict
    failures: list = field(default_factory=list)
    timing: float = 0.0
    notes: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def dumps(self) -> str:
        # timing is left out so identical runs serialize identically
        out = {
            "scope": self.scope,
            "counts": self.counts,
            "failures": self.failures,
            "notes": self.notes,
        }
        return json.dumps(out, sort_keys=True)


def _suite(scope: dict, counts: dict, units: Iterable, check, order=None) -> Report:
    """Run ``check(counts, unit)`` on each unit in turn and time the loop.  A
    check adds to ``counts`` and yields the unit's failure entries, which
    keep their run order unless ``order`` gives a sort key."""
    start = time.monotonic()
    failures = [f for unit in units for f in check(counts, unit)]
    if order is not None:
        failures.sort(key=order)
    return Report(scope, counts, failures, timing=time.monotonic() - start)
