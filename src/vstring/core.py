"""Nanowords: Gauss words with two-valued letter types, and their rewriting moves.

A *Gauss word* is a finite sequence in which every letter that occurs does so
exactly twice.  A *nanoword* is a Gauss word together with a type assignment
``letter -> {a, b}``.  Nanowords encode based virtual string diagrams: the
letters are the real crossings read off along the curve, and the type records
which way the curve recrosses itself at that crossing.

Two nanowords represent the same virtual string exactly when they are related
by a finite sequence of

* isomorphisms (letter renamings),
* shift moves ``AxAy <-> xA'yA'`` (base-point slide; the moved letter changes
  type), and
* homotopy moves::

      H1:  xAAy      <-> xy          (any type)
      H2:  xAByBAz   <-> xyz         (|A| != |B|)
      H3:  xAByACzBCt <-> xBAyCAzCBt (|A| = |B| = |C|)

together with the derived moves H2a, H3a, H3b and H3c (consequences of the
three above)::

      H2a: xAByABz   <-> xyz          (|A| != |B|)
      H3a: xAByCAzBCt <-> xBAyACzCBt  (|A| = |C| != |B|)
      H3b: xAByCAzCBt <-> xBAyACzBCt  (|A| = |B| != |C|)
      H3c: xAByACzCBt <-> xBAyCAzBCt  (|B| = |C| != |A|)

The four H3-family patterns follow one rule.  Call the three swapped letter
pairs P1, P2 and P3, in word order.  A is the letter in P1 and P2, B the one
in P1 and P3, and C the one in P2 and P3.  A letter is *odd* when its type
differs from the types of the other two.  A pair is read in reverse of
(AB)(AC)(BC) exactly when the letter it lacks (C for P1, B for P2, A for P3)
is odd; or else every pair is read the other way round, which is the mirror
image the move itself produces.  The odd letter names the kind: none gives
H3, B gives H3a, C gives H3b and A gives H3c.

Here upper-case letters stand for single letters and x, y, z, t for arbitrary
(possibly empty) subsequences.  All values in this module are immutable and
all operations are pure functions.

Read as a diagram, each letter is an arrow between its two positions.  It
runs from the first occurrence (its tail) to the second (its head) for type
a, and back for type b.  ``_arrows`` gives each letter's positions and arrow
ends, and the invariants, the cable and the search's state key all read the
arrows this way.
"""

from __future__ import annotations

import enum
import functools
import itertools
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "TYPE_A",
    "TYPE_B",
    "NanowordError",
    "MoveError",
    "Nanoword",
    "EMPTY",
    "parse",
    "canonical_relabel",
    "isomorphic",
    "shift",
    "shift_inv",
    "shift_orbit",
    "shift_canonical",
    "shift_canonical_text",
    "shifts_to_canonical",
    "MoveKind",
    "MoveSite",
    "MoveTrace",
    "find_sites",
    "apply_move",
    "invert_steps",
    "fresh_names",
    "continuation_names",
    "relabel_disjoint",
]

TYPE_A = "a"
TYPE_B = "b"

_NAME_RE = re.compile(r"[A-Z][0-9._]*\Z")
_COMPACT_WORD_RE = re.compile(r"[A-Z]+\Z")
_TYPES_RE = re.compile(r"[ab]+\Z")


class NanowordError(ValueError):
    """Raised for malformed nanoword text or invalid constructions."""


class MoveError(ValueError):
    """Raised when a move site does not match the word it is applied to."""


def _other(t: str) -> str:
    return TYPE_B if t == TYPE_A else TYPE_A


def _check_name(name: object) -> None:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise NanowordError(f"invalid letter name {name!r}")


def _occurrences(word: tuple[str, ...]) -> dict[str, tuple[int, int]]:
    """The two positions of each letter of a word known to be a Gauss word."""
    first: dict[str, int] = {}
    occ: dict[str, tuple[int, int]] = {}
    for i, name in enumerate(word):
        if name in first:
            occ[name] = (first[name], i)
        else:
            first[name] = i
    return occ


class Nanoword:
    """An immutable Gauss word plus letter-type assignment.

    ``word`` is the tuple of letter names in traversal order; every name
    occurring in it occurs exactly twice.  ``rank`` is the number of distinct
    letters, i.e. half the word length.

    Validation happens at the public boundary only: ``parse`` and this
    constructor check every name, the Gauss condition and the types.  The
    rewrites of this module (moves, shifts, relabellings) keep a valid word
    valid, and build their results with ``_trusted=True``, which skips the
    checks; they pass a tuple and a dict that nothing changes afterwards.
    """

    __slots__ = ("word", "_tmap", "_letters", "_occ", "_hash", "_canon")

    def __init__(
        self, word: Iterable[str], types: Mapping[str, str], *, _trusted: bool = False
    ):
        if not _trusted:
            word = tuple(word)
            for name in word:
                _check_name(name)
            for name, count in Counter(word).items():
                if count != 2:
                    raise NanowordError(f"letter {name} occurs {count} time(s), expected 2")
            types = dict(types)
            if set(types) != set(word):
                missing = set(word) - set(types)
                extra = set(types) - set(word)
                raise NanowordError(
                    f"type assignment does not match letters (missing={sorted(missing)},"
                    f" extra={sorted(extra)})"
                )
            for name, t in types.items():
                if t not in (TYPE_A, TYPE_B):
                    raise NanowordError(f"invalid type {t!r} for letter {name}")
        self.word = word
        self._tmap = types
        self._letters = tuple(sorted(types))
        self._occ = _occurrences(word)
        self._hash: int | None = None
        self._canon: tuple[str, int] | None = None

    @property
    def rank(self) -> int:
        return len(self._letters)

    @property
    def letters(self) -> tuple[str, ...]:
        """Letter names in lexicographic order."""
        return self._letters

    def type_of(self, name: str) -> str:
        return self._tmap[name]

    def types(self) -> dict[str, str]:
        """A copy of the letter -> type assignment."""
        return dict(self._tmap)

    def occurrences(self, name: str) -> tuple[int, int]:
        """Positions of the two occurrences of ``name``, in order."""
        return self._occ[name]

    def text(self) -> str:
        """Printable form; ``parse(w.text()) == w``.

        Compact (``ABCABC|aba``) when every name is a single letter, with the
        type string listing types in lexicographic letter order; extended
        (``X.1 Y X.1 Y | X.1=a Y=b``) otherwise.  The empty word prints as
        ``0``.
        """
        return _text(self.word, self._tmap)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Nanoword({self.text()!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Nanoword):
            return NotImplemented
        return self.word == other.word and self._tmap == other._tmap

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.word, tuple(sorted(self._tmap.items()))))
        return self._hash


EMPTY = Nanoword((), {})


def parse(text: str) -> Nanoword:
    """Parse nanoword text in compact or extended form (``0`` = empty word)."""
    s = text.strip()
    if s == "0":
        return EMPTY
    if "|" not in s:
        raise NanowordError(f"missing '|' separator in {text!r}")
    left, right = s.split("|", 1)
    left, right = left.strip(), right.strip()
    if not left:
        raise NanowordError("empty word with nonempty type string")
    if " " not in left and _COMPACT_WORD_RE.match(left):
        word = tuple(left)
        letters = sorted(set(word))
        if not _TYPES_RE.match(right):
            raise NanowordError(f"invalid type string {right!r}")
        if len(right) != len(letters):
            raise NanowordError(
                f"type string length {len(right)} != rank {len(letters)}"
            )
        return Nanoword(word, dict(zip(letters, right)))
    word = tuple(left.split())
    tmap: dict[str, str] = {}
    for item in right.split():
        if "=" not in item:
            raise NanowordError(f"invalid type binding {item!r}")
        name, _, t = item.partition("=")
        if name in tmap:
            raise NanowordError(f"duplicate type binding for {name}")
        if t not in (TYPE_A, TYPE_B):
            raise NanowordError(f"invalid type {t!r} in binding {item!r}")
        tmap[name] = t
    return Nanoword(word, tmap)


def _canonical_name(i: int) -> str:
    if i < 26:
        return chr(65 + i)
    return f"{chr(65 + i % 26)}.{i // 26}"


@functools.lru_cache(maxsize=32)
def _canonical_names(rank: int) -> tuple[str, ...]:
    """The names of a canonically relabelled rank-``rank`` word, in order."""
    return tuple(_canonical_name(i) for i in range(rank))


def _text(word: tuple[str, ...], tmap: Mapping[str, str]) -> str:
    """The printed form of a word and its types (see ``Nanoword.text``)."""
    if not word:
        return "0"
    letters = sorted(tmap)
    if len("".join(letters)) == len(letters):  # every name is one letter
        return "".join(word) + "|" + "".join([tmap[name] for name in letters])
    tokens = " ".join(word)
    binds = " ".join([f"{name}={tmap[name]}" for name in letters])
    return f"{tokens} | {binds}"


def _rotation(alpha: Nanoword, k: int) -> tuple[tuple[str, ...], dict[str, str]]:
    """Word and types of ``shift^k(alpha)``, for 0 <= k <= len(word).

    Rotation k is ``word[k:] + word[:k]``.  A letter carried past the base
    point changes type: each letter with one occurrence before k and one at
    or after it is flipped.  Each such letter occurs once on either side of
    k, so the walk takes the shorter side.
    """
    types = dict(alpha._tmap)
    for name in alpha.word[k:] if 2 * k > len(alpha.word) else alpha.word[:k]:
        first, second = alpha._occ[name]
        if first < k <= second:
            types[name] = _other(types[name])
    return alpha.word[k:] + alpha.word[:k], types


def _relabelled_shift(alpha: Nanoword, k: int) -> tuple[tuple[str, ...], dict[str, str]]:
    """Rotation k of ``alpha``, renamed A, B, ... in first-occurrence order."""
    rotated, types = _rotation(alpha, k)
    names = dict(zip(dict.fromkeys(rotated), _canonical_names(alpha.rank)))
    return tuple([names[x] for x in rotated]), {new: types[old] for old, new in names.items()}


def canonical_relabel(alpha: Nanoword) -> Nanoword:
    """Rename letters A, B, C, ... in order of first occurrence.

    Idempotent, and the result is isomorphic to the input.
    """
    return Nanoword(*_relabelled_shift(alpha, 0), _trusted=True)


def isomorphic(alpha: Nanoword, beta: Nanoword) -> bool:
    """True iff the words agree after canonical relabelling.

    Compares the relabelled words and types without building either word.
    """
    return _relabelled_shift(alpha, 0) == _relabelled_shift(beta, 0)


def shift(alpha: Nanoword) -> Nanoword:
    """Rotation 1: the first letter moves to the end (base-point slide)."""
    if not alpha.word:
        return alpha
    return Nanoword(*_rotation(alpha, 1), _trusted=True)


def shift_inv(alpha: Nanoword) -> Nanoword:
    """Rotation n - 1: the last letter moves to the front; inverse of shift."""
    if not alpha.word:
        return alpha
    return Nanoword(*_rotation(alpha, len(alpha.word) - 1), _trusted=True)


def shift_orbit(alpha: Nanoword) -> list[Nanoword]:
    """All words reachable by iterated shifts, starting with ``alpha``.

    The orbit is finite (iterating the shift len(word) times is the
    identity: each letter is carried past the base point twice, so its type
    flips twice) and closed under inverse shifts.
    """
    orbit = [alpha]
    current = shift(alpha)
    while current != alpha:
        orbit.append(current)
        current = shift(current)
    return orbit


@functools.lru_cache(maxsize=32)
def _name_ranks(rank: int) -> tuple[int, ...]:
    """Sort position of canonical name i among the names of a rank-``rank`` word.

    The identity up to Z; past it, string order puts A.1 and A.10 before A.2
    and B, which is the order in which printed forms compare.
    """
    names = _canonical_names(rank)
    position = {name: i for i, name in enumerate(sorted(names))}
    return tuple([position[name] for name in names])


def _least_rotations(word: tuple[str, ...], occ: Mapping[str, tuple[int, int]]) -> list[int]:
    """The k whose rotation of ``word``, renamed, is least in printed order.

    ``occ`` holds the two positions of each letter.  Rotation k is
    ``word[k:] + word[:k]`` renamed in first-occurrence order, with each name
    replaced by its sort position (``_name_ranks``), so the rotations
    compare as integer sequences in the order of their printed words.  All
    rotations are read together, position by position, and each is dropped
    at its first element above the least one there.  The rotations left
    share their labels so far, so a letter at position j takes the next
    unused label when it is new to the rotation, and otherwise the label at
    ``j - back``, where ``back`` is the cyclic distance back to the other
    occurrence of that letter.  Returns the survivors in increasing order,
    ``[0]`` for the empty word.
    """
    n = len(word)
    back = [0] * n
    for first, second in occ.values():
        back[first] = n - second + first
        back[second] = second - first
    back += back
    ranks = _name_ranks(n // 2)
    labels = list(ranks[:1])  # every rotation starts with a new letter
    fresh = len(labels)
    candidates = list(range(n)) or [0]
    for j in range(1, n):
        # Once every letter has occurred, no rotation has a new one.
        new = ranks[fresh] if fresh < len(ranks) else None
        distances = [back[k + j] for k in candidates]
        step = [labels[j - d] if d <= j else new for d in distances]
        least = min(step)
        candidates = [k for k, label in zip(candidates, step) if label == least]
        if len(candidates) == 1:
            break
        labels.append(least)
        fresh += least == new
    return candidates


def _arrows(alpha: Nanoword) -> list[tuple[int, int, int, int, int]]:
    """(first, second, sign, tail, head) per letter in name order; sign -1 is type b."""
    occ, tmap = alpha._occ, alpha._tmap
    out = []
    for x in alpha._letters:
        first, second = occ[x]
        if tmap[x] == TYPE_B:
            out.append((first, second, -1, second, first))
        else:
            out.append((first, second, 1, first, second))
    return out


def _arrow_rotations(alpha: Nanoword) -> list[bytes]:
    """The rotations of the arrow sequence of ``alpha``, as bytes, rotation 0 first.

    The arrows are those of ``_arrows``, read here in one pass over the
    occurrence table, since this is the search's hot state key.  Entry j of
    the sequence is ``2 * d + tail``: ``d`` is the distance forward from j
    to the other occurrence of its letter, mod the length, and ``tail`` says
    that j is the arrow's tail.  Renaming leaves the
    sequence unchanged, and it determines the word up to renaming.  A shift
    rotates it by one entry: the letter carried past the base point changes
    type, so its arrow stays.  Every entry is below twice the length, so it
    takes one byte up to length 128 and eight bytes beyond.
    Rotation k starts at entry k; the empty word has one, empty, rotation.
    """
    n = len(alpha.word)
    entries = [0] * n
    for name, (first, second) in alpha._occ.items():
        entries[first] = 2 * (second - first) + (alpha._tmap[name] == TYPE_A)
        entries[second] = 2 * (n - second + first) + (alpha._tmap[name] == TYPE_B)
    width = 1 if n <= 128 else 8  # every entry is below 2 * n
    seq = bytes(entries) if width == 1 else b"".join([x.to_bytes(8, "big") for x in entries])
    twice, size = seq + seq, len(seq)
    return [twice[i : i + size] for i in range(0, size, width)] or [b""]


def _arrow_key(alpha: Nanoword) -> bytes:
    """The least rotation of the arrow sequence: an exact key of the shift class.

    Two words have the same key exactly when one is a shift of the other up
    to renaming, that is when their ``shift_canonical_text`` agrees, but
    nothing is renamed or printed.
    """
    return min(_arrow_rotations(alpha))


def _shift_period(alpha: Nanoword) -> int:
    """Least p > 0 such that ``shift^p(alpha)`` is ``alpha`` up to renaming.

    That is the least rotation after 0 that gives the arrow sequence back;
    rotation ``len(word)`` always does.  The empty word has period 1.
    """
    rotations = _arrow_rotations(alpha)
    return (rotations + rotations[:1]).index(rotations[0], 1)


def _shift_canonical_key(alpha: Nanoword) -> tuple[str, int]:
    """(canonical text, least k reaching it), computed once per word.

    Only the rotations that ``_least_rotations`` keeps are printed.  They
    agree in the word, so the least printed form among them is decided by
    the types in name order, and the least k wins a full tie.
    """
    if alpha._canon is None:
        alpha._canon = min(
            (_text(*_relabelled_shift(alpha, k)), k)
            for k in _least_rotations(alpha.word, alpha._occ)
        )
    return alpha._canon


def shift_canonical(alpha: Nanoword) -> Nanoword:
    """Canonical representative of the shift orbit.

    The lexicographically least printed form among the canonical relabellings
    of all shifts of ``alpha``.  Used wherever base-point independence is
    needed (search states, tabulation keys).  Returns ``alpha`` itself when
    it already is that representative.
    """
    text, k = _shift_canonical_key(alpha)
    if alpha.text() == text:
        return alpha
    canon = Nanoword(*_relabelled_shift(alpha, k), _trusted=True)
    canon._canon = (text, 0)
    return canon


def shift_canonical_text(alpha: Nanoword) -> str:
    """``shift_canonical(alpha).text()``, computed once per word and memoised on it."""
    return _shift_canonical_key(alpha)[0]


def shifts_to_canonical(alpha: Nanoword) -> int:
    """Least k >= 0 with canonical_relabel(shift^k(alpha)) == shift_canonical(alpha)."""
    return _shift_canonical_key(alpha)[1]


# ---------------------------------------------------------------------------
# Moves


class MoveKind(enum.Enum):
    SHIFT = "shift"
    SHIFT_INV = "shift-inv"
    H1_DOWN = "H1-"
    H1_UP = "H1+"
    H2_DOWN = "H2-"
    H2_UP = "H2+"
    H2A_DOWN = "H2a-"
    H2A_UP = "H2a+"
    H3 = "H3"
    H3A = "H3a"
    H3B = "H3b"
    H3C = "H3c"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Moves that do not change the rank.
RANK_PRESERVING = (MoveKind.H3, MoveKind.H3A, MoveKind.H3B, MoveKind.H3C)
#: Letter-removing directions.
RANK_DECREASING = (MoveKind.H1_DOWN, MoveKind.H2_DOWN, MoveKind.H2A_DOWN)
#: Letter-adding directions (infinite-branching under iteration; cap in search).
RANK_INCREASING = (MoveKind.H1_UP, MoveKind.H2_UP, MoveKind.H2A_UP)
#: The one kind order, letter-removing first so the search finds reductions
#: early.  ``_sites`` walks it for the search and the move-invariance suite.
ALL_MOVES = RANK_DECREASING + RANK_PRESERVING + RANK_INCREASING


@dataclass(frozen=True)
class MoveSite:
    """A concrete application site for a move.

    ``positions`` index into the word being rewritten: the letters removed or
    swapped for letter-removing and H3-family moves, insertion slots for
    letter-adding moves, and empty for shifts.  ``letters``/``types`` carry
    the names and types of letters introduced by a letter-adding move; empty
    ``letters`` means fresh names are chosen automatically.
    """

    kind: MoveKind
    positions: tuple[int, ...] = ()
    letters: tuple[str, ...] = ()
    types: tuple[str, ...] = ()

    def __str__(self) -> str:
        parts = [self.kind.value]
        if self.positions:
            parts.append("@" + ",".join(map(str, self.positions)))
        if self.letters:
            parts.append("+" + ",".join(self.letters))
        if self.types:
            parts.append("(" + ",".join(self.types) + ")")
        return "".join(parts)


#: Number of disjoint adjacent letter pairs a letter-removing or H3-family
#: site consists of.
_PAIR_COUNT = {
    MoveKind.H1_DOWN: 1,
    MoveKind.H2_DOWN: 2,
    MoveKind.H2A_DOWN: 2,
    **{kind: 3 for kind in RANK_PRESERVING},
}


def _pair_candidates(alpha: Nanoword, m: int) -> list[tuple[int, ...]]:
    """Positions of m = 1, 2 or 3 disjoint adjacent pairs that may form a site.

    Pairs start at p < q < r with gaps of at least 2, in lexicographic order.
    Past one pair, the letters fix the rest (see ``find_sites``), so at most
    one tuple per p is a candidate for two pairs and four for three.
    """
    w, occ = alpha.word, alpha._occ
    n = len(w)
    if m == 1:
        return [(p, p + 1) for p in range(n - 1)]

    def other(i: int) -> int:
        first, second = occ[w[i]]
        return second if first == i else first

    found: set[tuple[int, ...]] = set()
    for p in range(n - 2):
        if w[p] == w[p + 1]:
            continue
        ox, oy = other(p), other(p + 1)
        if m == 2:
            if abs(ox - oy) == 1 and min(ox, oy) >= p + 2:
                found.add((p, p + 1, min(ox, oy), max(ox, oy)))
            continue
        for oa, ob in ((ox, oy), (oy, ox)):
            for q in (oa - 1, oa):
                if q < p + 2 or q + 1 >= n:
                    continue
                oc = other(q + 1 if q == oa else q)
                if abs(ob - oc) == 1 and min(ob, oc) >= q + 2:
                    found.add((p, p + 1, q, q + 1, min(ob, oc), max(ob, oc)))
    return sorted(found)


def _site_kind(alpha: Nanoword, positions: Sequence[int]) -> MoveKind | None:
    """The letter-removing or H3-family kind of the pairs at ``positions``, or None.

    One pair can only form an H1- site and two pairs an H2- or H2a- site;
    three pairs follow the H3-family rule of the module docstring.
    """
    w = alpha.word
    if len(positions) == 2:
        return MoveKind.H1_DOWN if w[positions[0]] == w[positions[1]] else None
    if len(positions) == 4:
        a, b, c, d = [w[i] for i in positions]
        if alpha._tmap[a] == alpha._tmap[b]:
            return None
        if (c, d) == (b, a):
            return MoveKind.H2_DOWN
        return MoveKind.H2A_DOWN if (c, d) == (a, b) else None
    x1, y1, x2, y2, x3, y3 = [w[i] for i in positions]
    # A is the letter P1 and P2 share, B the rest of P1, C the rest of P2.
    if x1 == x2 or x1 == y2:
        a, b = x1, y1
    elif y1 == x2 or y1 == y2:
        a, b = y1, x1
    else:
        return None
    c = y2 if x2 == a else x2
    if {x3, y3} != {b, c}:
        return None
    ta, tb, tc = alpha._tmap[a], alpha._tmap[b], alpha._tmap[c]
    if ta == tb == tc:
        kind, odd = MoveKind.H3, None
    elif tb == tc:
        kind, odd = MoveKind.H3C, a
    elif ta == tc:
        kind, odd = MoveKind.H3A, b
    else:
        kind, odd = MoveKind.H3B, c
    # Whether each pair reads reversed from (AB)(AC)(BC) must match whether
    # the letter it lacks is odd, for all three pairs or for none.
    agree = {(x1 != a) == (c == odd), (x2 != a) == (b == odd), (x3 != b) == (a == odd)}
    return kind if len(agree) == 1 else None


def find_sites(
    alpha: Nanoword, kind: MoveKind, *, max_sites: int | None = None
) -> list[MoveSite]:
    """All sites in ``alpha`` where ``kind`` applies.

    Letter-adding directions enumerate insertion slots crossed with the two
    possible type choices; pass ``max_sites`` to cap the enumeration.

    Pair sites come in the order of their positions.  Beyond H1-, the first
    pair (p, p+1) holds two distinct letters, and the other pairs are read
    from where the letters occur again.  An H2- or H2a- site's second pair
    holds the other occurrences of both.  In an H3-family site, A is one of
    the two and B the other; the second pair holds A's other occurrence and
    a letter C, and the third pair the other occurrences of B and C.  Each
    candidate of that many pairs is classified once, by the same rule as
    ``apply_move`` uses, into the site list of its kind (``_pair_sites``).

    This lists one kind.  ``_sites`` is the one walk over all the kinds of a
    word, which the search and the move-invariance suite both take.
    """
    n = len(alpha.word)
    sites: Iterable[MoveSite]
    if kind in (MoveKind.SHIFT, MoveKind.SHIFT_INV):
        sites = [MoveSite(kind)] if n else []
    elif kind is MoveKind.H1_UP:
        sites = (
            MoveSite(kind, (slot,), types=(t,))
            for slot in range(n + 1)
            for t in (TYPE_A, TYPE_B)
        )
    elif kind in (MoveKind.H2_UP, MoveKind.H2A_UP):
        sites = (
            MoveSite(kind, (i, j), types=ts)
            for i in range(n + 1)
            for j in range(i, n + 1)
            for ts in ((TYPE_A, TYPE_B), (TYPE_B, TYPE_A))
        )
    else:
        sites = _pair_sites(alpha, _PAIR_COUNT[kind])[kind]
    return list(itertools.islice(sites, max_sites))


def _sites(alpha: Nanoword, add_cap: int | None) -> Iterator[MoveSite]:
    """Every site of ``alpha`` but the shifts, kind by kind in ``ALL_MOVES`` order.

    Each pair candidate is classified once, for all of its kinds.  Each
    letter-adding kind lists at most ``add_cap`` sites, or all with None.
    """
    pairs = {k: s for m in (1, 2, 3) for k, s in _pair_sites(alpha, m).items()}
    for kind in ALL_MOVES:
        yield from pairs[kind] if kind in pairs else find_sites(alpha, kind, max_sites=add_cap)


def _pair_sites(alpha: Nanoword, m: int) -> dict[MoveKind, list[MoveSite]]:
    """The sites of every kind made of ``m`` pairs, each kind's in position order."""
    sites: dict[MoveKind, list[MoveSite]] = {k: [] for k, c in _PAIR_COUNT.items() if c == m}
    for positions in _pair_candidates(alpha, m):
        kind = _site_kind(alpha, positions)
        if kind is not None:
            sites[kind].append(MoveSite(kind, positions))
    return sites


def _pick_fresh(alpha: Nanoword, site: MoveSite, count: int) -> tuple[str, ...]:
    """Names of the letters a letter-adding move introduces.

    Names given in ``site`` are the only outside input to a rewrite, so they
    are checked here as the constructor would check the rewritten word.
    """
    if not site.letters:
        return tuple(fresh_names(alpha.letters, count))
    if len(site.letters) != count:
        raise MoveError(f"{site.kind.value} needs {count} letter name(s)")
    for name in site.letters:
        if name in alpha._tmap:
            raise MoveError(f"letter {name} already occurs in the word")
    for name in site.letters:
        _check_name(name)
    if len(set(site.letters)) != count:
        # Both inserted pairs would carry the same letter.
        raise NanowordError(f"letter {site.letters[0]} occurs 4 time(s), expected 2")
    return site.letters


def apply_move(alpha: Nanoword, site: MoveSite) -> Nanoword:
    """Apply ``site`` to ``alpha``; raises MoveError if the site is invalid.

    The rewrite keeps the Gauss condition by construction, so the result is
    built without the constructor's checks.  The site is checked instead:
    its positions and types here, and the names of new letters, the only
    outside input, in ``_pick_fresh`` (invalid names raise NanowordError).
    """
    w = alpha.word
    n = len(w)
    kind = site.kind

    if kind is MoveKind.SHIFT:
        return shift(alpha)
    if kind is MoveKind.SHIFT_INV:
        return shift_inv(alpha)

    if kind in _PAIR_COUNT:
        positions = _check_positions(site, n, 2 * _PAIR_COUNT[kind])
        starts = positions[::2]
        previous = -2
        for s, e in zip(starts, positions[1::2]):
            if e != s + 1 or s < previous + 2:
                raise MoveError(f"bad pair positions {site.positions}")
            previous = s
        if _site_kind(alpha, positions) is not kind:
            raise MoveError(f"no {kind.value} pattern at {site.positions}")
        if kind in RANK_PRESERVING:
            chars = list(w)
            for s in starts:
                chars[s], chars[s + 1] = chars[s + 1], chars[s]
            return Nanoword(tuple(chars), alpha._tmap, _trusted=True)
        dropped = {w[i] for i in positions}
        return Nanoword(
            tuple(x for x in w if x not in dropped),
            {x: t for x, t in alpha._tmap.items() if x not in dropped},
            _trusted=True,
        )

    if kind is MoveKind.H1_UP:
        (slot,) = _check_positions(site, n + 1, 1)
        (t,) = _check_types(site, 1)
        (name,) = _pick_fresh(alpha, site, 1)
        tmap = alpha.types()
        tmap[name] = t
        return Nanoword(w[:slot] + (name, name) + w[slot:], tmap, _trusted=True)

    if kind in (MoveKind.H2_UP, MoveKind.H2A_UP):
        i, j = _check_positions(site, n + 1, 2)
        if j < i:
            raise MoveError("insertion slots out of order")
        ta, tb = _check_types(site, 2)
        if ta == tb:
            raise MoveError(f"{kind.value} letters must have different types")
        a, b = _pick_fresh(alpha, site, 2)
        second = (b, a) if kind is MoveKind.H2_UP else (a, b)
        tmap = alpha.types()
        tmap[a], tmap[b] = ta, tb
        return Nanoword(w[:i] + (a, b) + w[i:j] + second + w[j:], tmap, _trusted=True)

    raise MoveError(f"unknown move kind {kind}")  # pragma: no cover


def _check_positions(site: MoveSite, limit: int, count: int) -> tuple[int, ...]:
    if len(site.positions) != count:
        raise MoveError(
            f"{site.kind.value} expects {count} position(s), got {site.positions}"
        )
    for p in site.positions:
        if not 0 <= p < limit:
            raise MoveError(f"position {p} out of range for {site.kind.value}")
    return site.positions


def _check_types(site: MoveSite, count: int) -> tuple[str, ...]:
    if len(site.types) != count or any(t not in (TYPE_A, TYPE_B) for t in site.types):
        raise MoveError(f"{site.kind.value} expects {count} letter type(s)")
    return site.types


@dataclass(frozen=True)
class MoveTrace:
    """A replayable homotopy witness: a start word and a sequence of sites."""

    start: Nanoword
    steps: tuple[MoveSite, ...] = ()

    def replay(self) -> list[Nanoword]:
        """All intermediate words, starting with ``start``; validates each step."""
        words = [self.start]
        for site in self.steps:
            words.append(apply_move(words[-1], site))
        return words

    def end(self) -> Nanoword:
        return self.replay()[-1]

    def __len__(self) -> int:
        return len(self.steps)


def invert_steps(start: Nanoword, steps: Sequence[MoveSite]) -> list[MoveSite]:
    """Sites undoing ``steps``: replaying them from the end word returns to ``start``."""
    return _inverted(MoveTrace(start, tuple(steps)).replay(), steps)


def _inverted(words: Sequence[Nanoword], steps: Sequence[MoveSite]) -> list[MoveSite]:
    """``invert_steps`` of ``steps``, given ``words``, the replay they make."""
    return [_invert_one(before, site) for before, site in zip(words, steps)][::-1]


#: Each letter-removing kind and shift with its inverse, in both directions;
#: every H3-family move is its own inverse.
_INVERSE_KIND = {
    MoveKind.SHIFT: MoveKind.SHIFT_INV,
    MoveKind.H1_DOWN: MoveKind.H1_UP,
    MoveKind.H2_DOWN: MoveKind.H2_UP,
    MoveKind.H2A_DOWN: MoveKind.H2A_UP,
}
_INVERSE_KIND.update({up: down for down, up in _INVERSE_KIND.items()})


def _invert_one(before: Nanoword, site: MoveSite) -> MoveSite:
    kind = site.kind
    inverse = _INVERSE_KIND.get(kind, kind)
    if kind in RANK_DECREASING:
        # Pair k starts 2k places later in the word than its insertion slot.
        letters = tuple(dict.fromkeys(before.word[i] for i in site.positions))
        slots = tuple(s - 2 * k for k, s in enumerate(site.positions[::2]))
        types = tuple(before.type_of(x) for x in letters)
        return MoveSite(inverse, slots, letters=letters, types=types)
    if kind in RANK_INCREASING:
        positions = (s + 2 * k + d for k, s in enumerate(site.positions) for d in (0, 1))
        return MoveSite(inverse, tuple(positions))
    return MoveSite(inverse, site.positions)


# ---------------------------------------------------------------------------
# Letter name allocation


def fresh_names(used: Iterable[str], count: int) -> list[str]:
    """``count`` names not in ``used``, in canonical (A, B, ..., A.1, ...) order."""
    taken = set(used)
    # At most len(taken) of the first len(taken) + count names are taken.
    return [n for n in _canonical_names(len(taken) + count) if n not in taken][:count]


def continuation_names(used: Iterable[str], count: int) -> list[str]:
    """Fresh names continuing the alphabet past the highest single letter in ``used``.

    After Z, dotted tokens (A.1, B.1, ...) are used.  This is the allocation
    rule for composing words: a word on A..D gets companions E, F, G, ...
    """
    taken = set(used)
    top = max((ord(u) for u in taken if len(u) == 1), default=ord("A") - 1)
    return fresh_names(taken | {chr(c) for c in range(ord("A"), top + 1)}, count)


def relabel_disjoint(
    beta: Nanoword, used: Iterable[str]
) -> tuple[Nanoword, dict[str, str]]:
    """Rename ``beta``'s letters with continuation names so none clashes with ``used``.

    Names are assigned in order of first occurrence.  Returns the renamed word
    and the old -> new mapping.
    """
    order = list(dict.fromkeys(beta.word))
    new = continuation_names(set(used) | set(order), len(order))
    mapping = dict(zip(order, new))
    renamed = Nanoword(
        tuple([mapping[x] for x in beta.word]),
        {mapping[x]: beta.type_of(x) for x in order},
        _trusted=True,
    )
    return renamed, mapping
