"""Exhaustive and sampled populations of nanowords.

Gauss words of rank n in standard form (letters named A, B, C, ... in order
of first occurrence) are enumerated by the usual open/close recursion; there
are (2n-1)!! of them, and with all 2^n type assignments they give every
nanoword of rank n.  A shift rotates the Gauss word by one place and flips
one type, so each shift orbit meets every rotation of its Gauss word under
some type assignment.  The desk-scale populations used by the property suites
and the tabulator therefore cross one Gauss word per rotation class with all
2^n type assignments, and keep one per shift orbit by comparing type strings
at the rotations that map the Gauss word to itself.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Iterator

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


def all_nanowords(rank: int) -> Iterator[Nanoword]:
    """Every nanoword of the given rank in standard letter names.

    Gauss word by Gauss word, each under its 2^rank type maps in turn.
    """
    letters = sorted(fresh_names((), rank))
    for word in standard_gauss_words(rank):
        for mask in range(2 ** rank):
            types = {x: TYPE_B if (mask >> i) & 1 else TYPE_A for i, x in enumerate(letters)}
            yield Nanoword(word, types, _trusted=True)


def canonical_population(max_rank: int) -> list[Nanoword]:
    """All shift-orbit canonical nanowords of rank <= max_rank, sorted by text.

    Includes the empty word.  Deduplication is by the shift-orbit canonical
    form only (words homotopic through H-moves stay distinct).  A negative
    ``max_rank`` raises ValueError.  A shift rotates the Gauss word and flips
    one type, so the Gauss words least among their rotations (1, 2, 5, 18,
    105, 902 at ranks 1-6), under all type maps, meet every orbit: a Gauss
    word g is kept when rotation 0 survives ``_least_rotations`` of g, the
    pass that also keys the words.  Every surviving rotation k renames back
    to g, so the printed forms of a typed word at those rotations differ only
    in the type string, read in sorted-name order: the letters with
    ``first < k <= second`` flip, and each letter takes the name of its
    first position in the rotated word.  A type map is its orbit's
    representative, and kept, when its own string is at most the string at
    every other survivor (a tie keeps the least k, 0).  So no typed word is
    canonicalised, and each kept word carries its key (its text, 0).
    """
    if max_rank < 0:
        raise ValueError(f"max rank {max_rank} is negative")
    words = [EMPTY]
    for rank in range(1, max_rank + 1):
        letters = sorted(fresh_names((), rank))  # the order of the type string
        position = {x: i for i, x in enumerate(letters)}
        for g in standard_gauss_words(rank):
            occ = _occurrences(g)
            survivors = _least_rotations(g, occ)
            if survivors[0]:
                continue
            # Per other survivor k, by place in its type string: the letter
            # of rotation 0 whose type lands there, and whether it flips.
            moves = []
            for k in survivors[1:]:
                olds = [g[(occ[y][0] + k) % (2 * rank)] for y in letters]
                moves.append([(position[x], occ[x][0] < k <= occ[x][1]) for x in olds])
            for bits in product((0, 1), repeat=rank):
                if all(bits <= tuple([bits[i] ^ f for i, f in m]) for m in moves):
                    types = dict(zip(letters, [(TYPE_A, TYPE_B)[b] for b in bits]))
                    w = Nanoword(g, types, _trusted=True)
                    w._canon = (w.text(), 0)
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
