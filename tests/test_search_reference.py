"""Differential test of the search's successor generation.

The reference below is the loop the search used before: every site of every
rotation in the shift orbit of a state's word.  The search applies the
sites of rotation 0, less the letter-adding sites that repeat an earlier
one's state, and, from rotation 1, only the letter-removing and H3-family
sites whose last pair straddles the base point of rotation 0 (see the
``search`` module docstring).  Both must reach the same shift classes, each
class must be first reached by the same site, so that traces do not change,
and each site the search skips in rotation 1 must reach a class that
rotation 0 already reaches.
"""

from hypothesis import given, settings

from vstring.core import (
    ALL_MOVES,
    EMPTY,
    RANK_INCREASING,
    MoveKind,
    MoveSite,
    apply_move,
    find_sites,
    parse,
    shift_canonical_text,
    shift_orbit,
)
from vstring.enumeration import canonical_population
from vstring.ops import cable, gen_alpha_n
from vstring.search import SearchBudget, _Frontier

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


def first_steps(successors):
    """The steps that first reach each shift class, by its key."""
    first = {}
    for steps, w in successors:
        first.setdefault(shift_canonical_text(w), steps)
    return first


def check_word(word, rank_increase=0, rotations=None):
    """The successors of ``word`` against the reference on its first ``rotations``."""
    frontier = _Frontier(word, SearchBudget(max_rank_increase=rank_increase))
    new = list(frontier._successors(word))
    ref = list(ref_successors(frontier, word, rotations))
    # The same sites in the same order, a subset of the reference's.
    assert is_subsequence(new, ref)
    assert first_steps(new) == first_steps(ref)
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
        for n in (2, 3):
            check_word(cable(word, n), rank_increase=1, rotations=2)


def test_shift_symmetric_words_with_letter_adding_sites():
    # alpha_n has shift period 2.  The skipped letter-adding sites are all
    # in rotation 0, so rotations 0 and 1 of the reference check them.
    for n in range(3, 9):
        check_word(gen_alpha_n(n), rank_increase=1, rotations=2)
    # The empty word's one slot is slot n as well; none of its six
    # letter-adding sites may be skipped.
    new, _ = check_word(EMPTY, rank_increase=1)
    assert len(new) == 6


def test_one_expansion_of_a_period_2_word():
    # ABCABC|aba is its own rotation 2 up to renaming.  Of its 126
    # letter-adding sites, the 48 with both slots below 6 and the first
    # below 2 are applied, besides its 5 other sites.
    word = parse("ABCABC|aba")
    frontier = _Frontier(word, SearchBudget(max_rank_increase=1))
    assert len(list(frontier._successors(word))) == 53
    check_word(word, rank_increase=1)


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
