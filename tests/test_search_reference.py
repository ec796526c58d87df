"""Differential test of the search's successor generation.

The reference below is the loop the search used before: every site of every
rotation in the shift orbit of a state's word.  The search applies every
site of rotation 0 and, from rotation 1, only the letter-removing and
H3-family sites whose last pair straddles the base point of rotation 0 (see
the ``search`` module docstring).  Both must reach the same shift classes,
and each site the search skips in rotation 1 must reach a class that
rotation 0 already reaches, so that every state is first found by the same
site as before and traces do not change.
"""

from hypothesis import given, settings

from vstring.core import (
    RANK_INCREASING,
    MoveKind,
    MoveSite,
    apply_move,
    find_sites,
    shift_canonical_text,
    shift_orbit,
)
from vstring.enumeration import canonical_population
from vstring.ops import cable
from vstring.search import ALL_MOVES, SearchBudget, _Frontier

from test_core import named_nanowords


def ref_successors(frontier, word, rotations=None, kinds=ALL_MOVES):
    shift_site = MoveSite(MoveKind.SHIFT)
    for j, rotated in enumerate(shift_orbit(word)[:rotations]):
        prefix = (shift_site,) * j
        for kind in kinds:
            if kind in RANK_INCREASING and word.rank + 1 > frontier.rank_cap:
                continue
            for site in find_sites(rotated, kind):
                yield prefix + (site,), apply_move(rotated, site)


def is_subsequence(short, long):
    remaining = iter(long)
    return all(any(item == other for other in remaining) for item in short)


def check_word(word, rank_increase=0, rotations=None):
    """The successors of ``word`` against the reference on its first ``rotations``."""
    frontier = _Frontier(word, SearchBudget(max_rank_increase=rank_increase))
    new = list(frontier._successors(word))
    ref = list(ref_successors(frontier, word, rotations))
    # The same sites in the same order, a subset of the reference's.
    assert is_subsequence(new, ref)
    new_keys = {shift_canonical_text(w) for _, w in new}
    assert new_keys == {shift_canonical_text(w) for _, w in ref}
    rotation0 = {shift_canonical_text(w) for steps, w in new if len(steps) == 1}
    kept = {steps for steps, _ in new}
    for steps, w in ref:
        if len(steps) == 2 and steps not in kept:
            assert shift_canonical_text(w) in rotation0, (word.text(), steps[-1])
    return new, ref


def test_population_rank_4():
    for word in canonical_population(4):
        check_word(word)
        # Letter-adding sites multiply the reference's work by about twenty,
        # so at rank 4 they are compared on rotations 0 and 1 only, which
        # still checks every skipped site of rotation 1.
        check_word(word, rank_increase=1, rotations=None if word.rank <= 3 else 2)


def test_cables_of_population_rank_2():
    for word in canonical_population(2):
        check_word(cable(word, 2))


def test_rotation_1_keeps_only_straddling_sites():
    word = cable(canonical_population(2)[-1], 2)
    new, ref = check_word(word, rank_increase=1)
    last = len(word.word) - 1
    for steps, _ in new:
        assert len(steps) in (1, 2)
        if len(steps) == 2:
            assert steps[0].kind is MoveKind.SHIFT
            assert steps[1].kind not in RANK_INCREASING
            assert steps[1].positions[-1] == last
    assert len(new) < len(ref)


@given(named_nanowords(max_rank=7))
@settings(max_examples=100, deadline=None)
def test_named_words_up_to_rank_7(word):
    check_word(word)


@given(named_nanowords(max_rank=3))
@settings(max_examples=40, deadline=None)
def test_named_words_with_letter_adding_sites(word):
    check_word(word, rank_increase=1)
