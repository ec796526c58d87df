"""Differential tests of shift canonicalisation, populations and name allocation.

The reference functions below are the straightforward forms.  The shift
reference moves one letter to the other end and flips its type, so it shares
no code with the library's rotation.  One reference builds every word of the
shift orbit with it, relabels each one and compares printed forms;
the other prints the relabelling of every rotation of the letter tuple and
takes the least (text, k).  The library compares the rotations on integer
labels of the Gauss word, drops each rotation at its first larger label, and
prints every rotation that ties on the least one (one rotation in the common
case).  The population reference keys every raw word of each rank; the
library keys only one Gauss word per rotation class.

The search keys states by the least rotation of the arrow sequence instead
(``_arrow_key``); it must split words into the same classes as the printed
key, and its shift period must equal the one the renamed rotations give.
"""

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from vstring.core import (
    EMPTY,
    Nanoword,
    _arrow_key,
    _least_rotations,
    _occurrences,
    _relabelled_shift,
    _rotation,
    _shift_canonical_key,
    _shift_period,
    _text,
    canonical_relabel,
    continuation_names,
    fresh_names,
    isomorphic,
    parse,
    shift,
    shift_canonical,
    shift_canonical_text,
    shift_inv,
    shift_orbit,
    shifts_to_canonical,
)
from vstring.enumeration import (
    all_nanowords,
    canonical_population,
    standard_gauss_words,
)
from vstring.ops import cable, gen_alpha_n, r_dot
from vstring.search import SearchBudget, reduce_bounded

from test_core import _NAMES, named_nanowords

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import check_arrow_key  # noqa: E402


def _ref_canonical_name(i: int) -> str:
    if i < 26:
        return chr(65 + i)
    return f"{chr(65 + i % 26)}.{i // 26}"


def ref_canonical_relabel(alpha: Nanoword) -> Nanoword:
    mapping: dict[str, str] = {}
    for name in alpha.word:
        if name not in mapping:
            mapping[name] = _ref_canonical_name(len(mapping))
    return Nanoword(
        (mapping[name] for name in alpha.word),
        {new: alpha.type_of(old) for old, new in mapping.items()},
    )


def _ref_flip(alpha: Nanoword, name: str) -> dict[str, str]:
    types = alpha.types()
    types[name] = "b" if types[name] == "a" else "a"
    return types


def ref_shift(alpha: Nanoword) -> Nanoword:
    """Move the first letter to the end and flip its type."""
    if not alpha.word:
        return alpha
    moved = alpha.word[0]
    return Nanoword(alpha.word[1:] + (moved,), _ref_flip(alpha, moved), _trusted=True)


def ref_shift_inv(alpha: Nanoword) -> Nanoword:
    """Move the last letter to the front and flip its type."""
    if not alpha.word:
        return alpha
    moved = alpha.word[-1]
    return Nanoword((moved,) + alpha.word[:-1], _ref_flip(alpha, moved), _trusted=True)


def ref_shift_orbit(alpha: Nanoword) -> list[Nanoword]:
    orbit = [alpha]
    while (current := ref_shift(orbit[-1])) != alpha:
        orbit.append(current)
    return orbit


def ref_shift_canonical(alpha: Nanoword) -> Nanoword:
    return min(
        (ref_canonical_relabel(w) for w in ref_shift_orbit(alpha)),
        key=lambda w: w.text(),
    )


def ref_shifts_to_canonical(alpha: Nanoword) -> int:
    target = ref_shift_canonical(alpha).text()
    current = alpha
    k = 0
    while ref_canonical_relabel(current).text() != target:
        current = ref_shift(current)
        k += 1
    return k


def ref_rotation_text_min(alpha: Nanoword) -> tuple[str, int]:
    return min(
        (_text(*_relabelled_shift(alpha, k)), k) for k in range(len(alpha.word) or 1)
    )


def ref_canonical_population(max_rank: int) -> list[Nanoword]:
    seen: dict[str, Nanoword] = {"0": EMPTY}
    for rank in range(1, max_rank + 1):
        for w in all_nanowords(rank):
            key = shift_canonical_text(w)
            if key not in seen:
                seen[key] = shift_canonical(w)
    return [seen[k] for k in sorted(seen)]


def ref_least_rotation(word: tuple[str, ...]) -> tuple[str, ...]:
    rotations = []
    for k in range(len(word)):
        rotated = word[k:] + word[:k]
        mapping: dict[str, str] = {}
        for name in rotated:
            mapping.setdefault(name, _ref_canonical_name(len(mapping)))
        rotations.append(tuple(mapping[name] for name in rotated))
    return min(rotations)


def ref_continuation_names(used, count: int) -> list[str]:
    taken = set(used)
    singles = [ord(u) for u in taken if len(u) == 1]
    start = max(singles) + 1 if singles else ord("A")
    out: list[str] = []
    for code in range(start, ord("Z") + 1):
        name = chr(code)
        if name not in taken:
            out.append(name)
            if len(out) == count:
                return out
    i = 26
    while len(out) < count:
        name = _ref_canonical_name(i)
        if name not in taken:
            out.append(name)
        i += 1
    return out


def assert_matches_reference(w: Nanoword) -> None:
    expected = ref_shift_canonical(w)
    assert shift_canonical_text(w) == expected.text()
    assert shift_canonical(w) == expected
    assert shifts_to_canonical(w) == ref_shifts_to_canonical(w)
    assert canonical_relabel(w) == ref_canonical_relabel(w)
    for v in (shift(w), ref_canonical_relabel(w)):
        assert isomorphic(w, v) == (ref_canonical_relabel(w) == ref_canonical_relabel(v))
    fresh = Nanoword(w.word, w.types())  # no memoised key
    assert _shift_canonical_key(fresh) == ref_rotation_text_min(w)


@pytest.mark.parametrize("rank", range(5))
def test_every_raw_word_up_to_rank_4(rank):
    for w in all_nanowords(rank):
        assert_matches_reference(w)


@pytest.mark.parametrize("max_rank", range(5))
def test_population_matches_reference(max_rank):
    assert canonical_population(max_rank) == ref_canonical_population(max_rank)


def test_population_words_carry_their_keys():
    # The population sets each key by comparing type strings, without
    # canonicalising a typed word; a fresh copy computes it from scratch.
    words = canonical_population(5)
    assert len(words) == 3274
    for w in words:
        key = _shift_canonical_key(Nanoword(w.word, w.types(), _trusted=True))
        assert key[1] == 0
        assert w._canon == key


@pytest.mark.parametrize("rank,kept", [(1, 1), (2, 2), (3, 5), (4, 18), (5, 105)])
def test_one_gauss_word_per_rotation_class(rank, kept):
    # The counts are OEIS A007769, chord diagrams up to rotation.
    words = list(standard_gauss_words(rank))
    least = [w for w in words if 0 in _least_rotations(w, _occurrences(w))]
    assert len(least) == kept
    assert set(least) == {ref_least_rotation(w) for w in words}


def test_negative_population_rank_rejected():
    with pytest.raises(ValueError, match="max rank -1 is negative"):
        canonical_population(-1)


def half_turn_word(rank: int, seed: int, swap: int) -> Nanoword:
    """A word whose least rotation is decided by name order past A.10.

    The letters at 0, 1 and at ``rank``, ``rank + 1`` are H1 pairs, so the two
    rotations starting there lead; every other letter joins a random position
    of the first half to the second half, in pairs that a half turn maps onto
    each other.  Those two rotations then read alike until the letters at
    ``swap`` and ``swap + 1``, which are exchanged.
    """
    inner = list(range(2, rank))
    random.Random(seed).shuffle(inner)
    chords = [(0, 1), (rank, rank + 1)]
    for i, j in zip(inner[::2], inner[1::2]):
        chords += [(i, j + rank), (j, i + rank)]
    slots = [""] * (2 * rank)
    for i, (a, b) in enumerate(chords):
        slots[a] = slots[b] = _ref_canonical_name(i)
    slots[swap], slots[swap + 1] = slots[swap + 1], slots[swap]
    return Nanoword(slots, {name: "a" for name in slots})


def assert_rotations_match_reference(w: Nanoword) -> None:
    assert shift(w) == ref_shift(w)
    assert shift_inv(w) == ref_shift_inv(w)
    assert shift_orbit(w) == ref_shift_orbit(w)
    rotated = w
    for k in range(len(w.word) + 1):
        assert Nanoword(*_rotation(w, k)) == rotated
        assert Nanoword(*_relabelled_shift(w, k)) == ref_canonical_relabel(rotated)
        assert canonical_relabel(rotated) == ref_canonical_relabel(rotated)
        rotated = ref_shift(rotated)


def test_rotations_on_rank_4_population():
    for w in canonical_population(4):
        assert_rotations_match_reference(w)


@given(named_nanowords(max_rank=7))
@settings(max_examples=200, deadline=None)
def test_extended_names(w):
    assert_matches_reference(w)
    assert_rotations_match_reference(w)


@pytest.mark.parametrize(
    "word",
    [
        cable(parse("ABCACB|aaa"), 3),
        r_dot(parse("ABCACB|aba"), 9),
        r_dot(parse("ABCACB|aba"), 90),
        # The two leading rotations first differ in reading I.10 and I.8.
        half_turn_word(270, 3, 424),
    ],
    ids=["cable3", "rdot9", "rdot90", "half-turn"],
)
def test_canonical_names_past_z(word):
    # Past Z, lexicographic order of the names (A, A.1, B, ...) differs from
    # first-occurrence order, so the type bindings print in another order.
    # From rank 261 on, that order also puts A.10 before A.2.
    assert word.rank > 26
    assert_matches_reference(word)
    assert_matches_reference(shift(shift(shift(word))))


def test_canonical_word_is_returned_unchanged():
    for c in canonical_population(3):
        assert shift_canonical(c) is c
        assert shifts_to_canonical(c) == 0


@given(
    st.sets(st.sampled_from(_NAMES + ["a", "Y.2", "A.1"]), max_size=30),
    st.integers(1, 30),
)
@settings(max_examples=200, deadline=None)
def test_continuation_names(used, count):
    assert continuation_names(used, count) == ref_continuation_names(used, count)
    # For count 0 the reference returns the rest of the alphabet.
    assert continuation_names(used, 0) == []


def ref_shift_period(alpha: Nanoword) -> int:
    """The shift period by renamed rotations, the library's rule before arrow keys.

    Of the rotations that survive ``_least_rotations``, the first whose
    renamed word and types equal the least survivor's lies one period after
    it; with none, the period is the length (1 for the empty word).
    """
    first, *rest = _least_rotations(alpha.word, alpha._occ)
    least = _relabelled_shift(alpha, first)
    return next(
        (k - first for k in rest if _relabelled_shift(alpha, k) == least),
        max(len(alpha.word), 1),
    )


def all_types_flipped(alpha: Nanoword) -> Nanoword:
    return Nanoword(alpha.word, {x: "b" if t == "a" else "a" for x, t in alpha.types().items()})


def assert_key_matches_text(w: Nanoword, others: list[Nanoword]) -> None:
    """Every shift of ``w`` has its key, and each other word shares it exactly
    when it shares ``w``'s printed key."""
    key, text = _arrow_key(w), shift_canonical_text(w)
    assert {_arrow_key(v) for v in ref_shift_orbit(w)} == {key}
    for v in others:
        assert (_arrow_key(v) == key) == (shift_canonical_text(v) == text), (w.text(), v.text())


def test_arrow_key_partitions_like_text_up_to_rank_4(capsys):
    # Every shift of every raw word, keyed both ways: the keys and the texts
    # must correspond one to one.  Rank r has (2r)! / r! raw words, each with
    # 2r shifts: 1 + 4 + 48 + 720 + 13,440 words.
    assert check_arrow_key.main(["--max-rank", "4"]) == 0
    assert capsys.readouterr().out == "14213 words, 246 classes\n"


@pytest.mark.parametrize("rank", range(5))
def test_shift_period_matches_reference(rank):
    for w in all_nanowords(rank):
        assert _shift_period(w) == ref_shift_period(w), w.text()


@given(named_nanowords(max_rank=7), st.integers(0, 13))
@settings(max_examples=100, deadline=None)
def test_arrow_key_on_extended_names(w, k):
    orbit = shift_orbit(w)
    renamed_shift = ref_canonical_relabel(orbit[k % len(orbit)])
    assert_key_matches_text(w, [renamed_shift, all_types_flipped(w), shift_canonical(w)])
    assert _shift_period(w) == ref_shift_period(w)


def diameters(rank: int, seed: int) -> Nanoword:
    """Every letter joins opposite positions, so flipping every type is a half turn."""
    names = fresh_names((), rank)
    rng = random.Random(seed)
    return Nanoword(tuple(names) * 2, {x: rng.choice("ab") for x in names})


def nested(rank: int, seed: int) -> Nanoword:
    """The first letter's arrow spans the whole word, so its entry is the largest."""
    names = fresh_names((), rank)
    rng = random.Random(seed)
    return Nanoword(tuple(names) + tuple(reversed(names)), {x: rng.choice("ab") for x in names})


def shuffled(rank: int, seed: int) -> Nanoword:
    rng = random.Random(seed)
    names = fresh_names((), rank)
    seq = [names[i // 2] for i in range(2 * rank)]
    rng.shuffle(seq)
    return Nanoword(seq, {x: rng.choice("ab") for x in names})


@pytest.mark.parametrize(
    "word",
    [
        gen_alpha_n(64),
        nested(64, 1),
        gen_alpha_n(65),
        nested(65, 1),
        diameters(65, 1),
        shuffled(70, 1),
    ],
    ids=["alpha64", "nested64", "alpha65", "nested65", "diameters65", "shuffled70"],
)
def test_arrow_key_past_one_byte_per_entry(word):
    # From length 130 on, an entry no longer fits in one byte.
    twin = all_types_flipped(word)
    assert_key_matches_text(word, [twin, shift(twin)])
    assert _arrow_key(shift_inv(word)) == _arrow_key(word)
    assert _shift_period(word) == ref_shift_period(word)
    reduced, trace = reduce_bounded(word, SearchBudget(0, 20, 2))
    assert reduced.rank <= word.rank
    assert trace.end() == reduced
