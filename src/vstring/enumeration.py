"""Exhaustive and sampled populations of nanowords.

Gauss words of rank n in standard form (letters named A, B, C, ... in order
of first occurrence) are enumerated by the usual open/close recursion; there
are (2n-1)!! of them, and with all 2^n type assignments they give every
nanoword of rank n.  A shift rotates the Gauss word by one place and flips
one type, so each shift orbit meets every rotation of its Gauss word under
some type assignment.  The desk-scale populations used by the property suites
and the tabulator therefore cross one Gauss word per rotation class with all
2^n type assignments and deduplicate by the shift-orbit canonical form.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator

from .core import (
    TYPE_A,
    TYPE_B,
    EMPTY,
    Nanoword,
    _least_rotations,
    _occurrences,
    fresh_names,
    shift_canonical,
    shift_canonical_text,
    shifts_to_canonical,
)

__all__ = [
    "standard_gauss_words",
    "all_nanowords",
    "canonical_population",
    "sample_nanowords",
]


def standard_gauss_words(rank: int) -> Iterator[tuple[str, ...]]:
    """All Gauss words of the given rank, letters in first-occurrence order."""
    names = fresh_names((), rank)

    def build(prefix: list[str], opened: list[str], next_new: int) -> Iterator[tuple[str, ...]]:
        if len(prefix) == 2 * rank:
            yield tuple(prefix)
            return
        if next_new < rank:
            prefix.append(names[next_new])
            opened.append(names[next_new])
            yield from build(prefix, opened, next_new + 1)
            opened.pop()
            prefix.pop()
        for i, name in enumerate(opened):
            prefix.append(name)
            rest = opened[:i] + opened[i + 1 :]
            yield from build(prefix, rest, next_new)
            prefix.pop()

    yield from build([], [], 0)


def _with_all_types(words: Iterable[tuple[str, ...]], rank: int) -> Iterator[tuple]:
    """Each standard Gauss word of the given rank with each of its 2^rank type maps."""
    letters = sorted(fresh_names((), rank))
    for word in words:
        for mask in range(2 ** rank):
            yield word, {x: TYPE_B if (mask >> i) & 1 else TYPE_A for i, x in enumerate(letters)}


def all_nanowords(rank: int) -> Iterator[Nanoword]:
    """Every nanoword of the given rank in standard letter names."""
    for word, types in _with_all_types(standard_gauss_words(rank), rank):
        yield Nanoword(word, types, _trusted=True)


def canonical_population(max_rank: int) -> list[Nanoword]:
    """All shift-orbit canonical nanowords of rank <= max_rank, sorted by text.

    Includes the empty word.  Deduplication is by the shift-orbit canonical
    form only (words homotopic through H-moves stay distinct).  A negative
    ``max_rank`` raises ValueError.  A shift rotates the Gauss word and flips
    one type, so the Gauss words least among their rotations (1, 2, 5, 18,
    105, 902 at ranks 1-6), under all type maps, meet every orbit.  The
    printed form of an orbit's representative starts with the least rotation
    of its Gauss word, so a Gauss word g is kept when rotation 0 survives
    ``_least_rotations`` of g, the pass that also keys the words.  Of the
    typed words, exactly one per orbit is its own representative: the one
    whose least k reaching the canonical form is 0, since its names are
    already in first-occurrence order.  Only those are kept.
    """
    if max_rank < 0:
        raise ValueError(f"max rank {max_rank} is negative")
    words = [EMPTY]
    for rank in range(1, max_rank + 1):
        gauss = (g for g in standard_gauss_words(rank) if 0 in _least_rotations(g, _occurrences(g)))
        for word, types in _with_all_types(gauss, rank):
            w = Nanoword(word, types, _trusted=True)
            if shifts_to_canonical(w) == 0:
                words.append(w)
    return sorted(words, key=shift_canonical_text)


def sample_nanowords(
    ranks: tuple[int, ...], count: int, seed: int
) -> list[Nanoword]:
    """Deterministic sample of distinct shift-canonical words at the given ranks.

    Each attempt draws a rank, shuffles a Gauss word of that rank and draws
    the types of its letters in first-occurrence order.
    """
    rng = random.Random(seed)
    seen: dict[str, Nanoword] = {}
    attempts = 0
    while len(seen) < count and attempts < 100 * count:
        attempts += 1
        rank = ranks[rng.randrange(len(ranks))]
        names = fresh_names((), rank)
        seq = [names[i // 2] for i in range(2 * rank)]
        rng.shuffle(seq)
        types = {x: rng.choice((TYPE_A, TYPE_B)) for x in dict.fromkeys(seq)}
        w = Nanoword(tuple(seq), types, _trusted=True)
        key = shift_canonical_text(w)
        if key not in seen:
            seen[key] = shift_canonical(w)
    return [seen[k] for k in sorted(seen)]
