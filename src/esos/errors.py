"""Error taxonomy and search budgets.

Three failure classes are kept apart so callers (and the CLI exit codes)
can distinguish them:

* ``InputError``       -- the caller violated a documented precondition.
* ``CapabilityError``  -- the request is well-formed but exceeds a size cap
                          or a search node budget; never a silent wrong answer.
* ``SoundnessError``   -- an internal checker found no case/witness where one
                          is guaranteed to exist.  Must never fire on valid
                          inputs; firing falsifies the library's contract.
"""

from __future__ import annotations

import os


class EsosError(Exception):
    pass


class InputError(EsosError):
    pass


class CapabilityError(EsosError):
    pass


class SoundnessError(EsosError):
    pass


def search_budget(default: int) -> int:
    """Node budget for a bounded search; ESOS_BUDGET, a nonnegative integer,
    overrides ``default`` wherever a search asks here.  Instance synthesis
    keeps a fixed Budget(200_000); the optimal-reroute and spanning-path
    searches' budgets only count, as vertex-count caps bound them."""
    raw = os.environ.get("ESOS_BUDGET")
    if not raw:
        return default
    try:
        limit = int(raw)
    except ValueError:
        raise InputError(f"ESOS_BUDGET is not an integer: {raw!r}")
    if limit < 0:
        raise InputError(f"ESOS_BUDGET is negative: {raw!r}")
    return limit


class Budget:
    """Mutable node counter that raises CapabilityError when exhausted."""

    __slots__ = ("limit", "used", "label")

    def __init__(self, limit: int, label: str = "search"):
        self.limit = limit
        self.used = 0
        self.label = label

    def spend(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise CapabilityError(
                f"{self.label} budget exceeded ({self.used} > {self.limit} nodes)"
            )
