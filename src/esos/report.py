"""Run reports shared by the embedder pipeline and the harness."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


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
