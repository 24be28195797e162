"""Spiders as leg-length multisets.

A spider is determined by its non-increasing tuple of leg lengths; the
embedder materializes vertices later.  The all-even family and the
all-legs-length-2 member get their own helpers because they are exactly the
shapes a certificate can ever accompany.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InputError


@dataclass(frozen=True)
class Spider:
    legs: tuple[int, ...]

    def __post_init__(self):
        if any(l < 1 for l in self.legs):
            raise InputError("leg lengths must be positive")
        if any(self.legs[i] < self.legs[i + 1] for i in range(len(self.legs) - 1)):
            raise InputError("legs must be non-increasing (canonical form)")

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

    @property
    def k(self) -> int:
        return sum(self.legs)

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
    if k < 1:
        raise InputError("k must be positive")
    for part in _partitions_desc(k, k):
        yield Spider(part)


def in_T0_family(T: Spider) -> bool:
    """Every leg even (so k is even)."""
    return all(l % 2 == 0 for l in T.legs)


def t0(k: int) -> Spider:
    """The spider with k/2 legs of length exactly 2."""
    if k < 1 or k % 2:
        raise InputError("t0 needs a positive even k")
    return Spider((2,) * (k // 2))


def strip_leaf(T: Spider, leg_index: int) -> Spider:
    """Shorten one leg by a leaf; a length-1 leg disappears.

    The result is re-canonicalized; k drops by exactly 1.  Stripping the last
    edge yields the empty spider sentinel (no legs, k=0).
    """
    if not 0 <= leg_index < len(T.legs):
        raise InputError(f"leg index {leg_index} out of range")
    lengths = list(T.legs)
    lengths[leg_index] -= 1
    return Spider(tuple(sorted((l for l in lengths if l > 0), reverse=True)))
