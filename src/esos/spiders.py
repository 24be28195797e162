"""Spiders as leg-length multisets.

A spider is determined by its non-increasing tuple of leg lengths; the
embedder materializes vertices later.  The all-even family and the
all-legs-length-2 member get their own helpers because they are exactly the
shapes a certificate can ever accompany.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import InputError
from .graphs import _check_k, _checked_int


@dataclass(frozen=True)
class Spider:
    """Leg lengths, non-increasing.  The edge count ``k`` is summed once, at
    construction; equality, hash and repr see only ``legs``."""

    legs: tuple[int, ...]
    k: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        legs = self.legs
        if type(legs) is not tuple:  # e.g. list legs: keep T hashable
            legs = tuple(legs)
            object.__setattr__(self, "legs", legs)
        for leg in legs:
            _checked_int(leg, "leg length")
        if legs and min(legs) < 1:
            raise InputError("leg lengths must be positive")
        if sorted(legs, reverse=True) != list(legs):
            raise InputError("legs must be non-increasing (canonical form)")
        object.__setattr__(self, "k", sum(legs))

    @classmethod
    def from_lengths(cls, lengths: Iterable[int]) -> "Spider":
        return cls(tuple(sorted(lengths, reverse=True)))

    @classmethod
    def parse(cls, text: str) -> "Spider":
        try:
            lengths = [int(part) for part in text.split(",") if part.strip()]
        except ValueError:
            raise InputError(f"bad spider literal {text!r} (want e.g. '3,2,1')")
        if not lengths:
            raise InputError("empty spider literal")
        return cls.from_lengths(lengths)

    def to_json(self) -> list[int]:
        return list(self.legs)

    def __str__(self) -> str:
        return ",".join(str(l) for l in self.legs)


def _partitions_desc(total: int, cap: int) -> Iterator[tuple[int, ...]]:
    if total == 0:
        yield ()
        return
    for first in range(min(total, cap), 0, -1):
        for rest in _partitions_desc(total - first, first):
            yield (first,) + rest


def enumerate_spiders(k: int) -> Iterator[Spider]:
    """All spiders with k edges: the partitions of k, largest-part-first order."""
    _check_k(k)
    for part in _partitions_desc(k, k):
        yield Spider(part)


def in_T0_family(T: Spider) -> bool:
    """Every leg even (so k is even)."""
    return all(l % 2 == 0 for l in T.legs)


def t0(k: int) -> Spider:
    """The spider with k/2 legs of length exactly 2."""
    if type(k) is not int or k < 1 or k % 2:  # a float or a bool is no k
        raise InputError("t0 needs a positive even k")
    return Spider((2,) * (k // 2))

