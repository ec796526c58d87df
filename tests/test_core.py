import pytest
from hypothesis import given, settings, strategies as st

from vstring.core import (
    EMPTY,
    MoveError,
    MoveKind,
    MoveSite,
    MoveTrace,
    Nanoword,
    NanowordError,
    apply_move,
    canonical_relabel,
    continuation_names,
    find_sites,
    fresh_names,
    invert_steps,
    isomorphic,
    parse,
    relabel_disjoint,
    shift,
    shift_canonical,
    shift_inv,
    shift_orbit,
)
from vstring.enumeration import canonical_population, sample_nanowords
from vstring.ops import cable, compose, covering, r_dot


@st.composite
def nanowords(draw, max_rank=4, min_rank=0):
    rank = draw(st.integers(min_rank, max_rank))
    seq = draw(st.permutations([i // 2 for i in range(2 * rank)]))
    names = [chr(65 + i) for i in range(rank)]
    types = {
        names[i]: draw(st.sampled_from("ab")) for i in range(rank)
    }
    return canonical_relabel(Nanoword((names[i] for i in seq), types))


class TestParsePrint:
    def test_compact(self):
        w = parse("ABCABC|aba")
        assert w.word == ("A", "B", "C", "A", "B", "C")
        assert w.types() == {"A": "a", "B": "b", "C": "a"}
        assert w.rank == 3

    def test_empty(self):
        assert parse("0") == EMPTY
        assert EMPTY.rank == 0
        assert EMPTY.text() == "0"

    def test_gauss_violation(self):
        with pytest.raises(NanowordError):
            parse("ABA|aa")

    def test_type_length_mismatch(self):
        with pytest.raises(NanowordError):
            parse("ABAB|a")

    def test_unknown_characters(self):
        with pytest.raises(NanowordError):
            parse("AB1AB1|ab")
        with pytest.raises(NanowordError):
            parse("ABAB|ax")

    def test_missing_separator(self):
        with pytest.raises(NanowordError):
            parse("ABAB")

    def test_extended_form(self):
        w = parse("X.1 Y X.1 Y | X.1=a Y=b")
        assert w.rank == 2
        assert w.type_of("X.1") == "a"
        assert parse(w.text()) == w

    def test_extended_errors(self):
        with pytest.raises(NanowordError):
            parse("X Y X Y | X=a")  # missing binding
        with pytest.raises(NanowordError):
            parse("X Y X Y | X=a Y=b Z=a")  # extra binding
        with pytest.raises(NanowordError):
            parse("X Y X Y | X=a X=b Y=a")  # duplicate binding

    @given(nanowords())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, w):
        assert parse(w.text()) == w


class TestCanonical:
    def test_relabel_by_first_occurrence(self):
        w = Nanoword(("X", "Y", "X", "Y"), {"X": "a", "Y": "a"})
        assert canonical_relabel(w).text() == "ABAB|aa"

    def test_fixed_point(self):
        w = parse("ABCABC|aba")
        assert canonical_relabel(w) == w

    def test_idempotent(self):
        w = parse("BCDBDC|aaa")
        once = canonical_relabel(w)
        assert canonical_relabel(once) == once

    def test_isomorphic(self):
        assert isomorphic(parse("ABAB|aa"), parse("X Y X Y | X=a Y=a"))
        assert not isomorphic(parse("ABAB|aa"), parse("ABAB|ab"))
        assert not isomorphic(parse("ABBA|ab"), parse("ABBA|ba"))


class TestShift:
    def test_shift_flips_type(self):
        assert shift(parse("ABAB|aa")).text() == "BABA|ba"

    def test_inverse_pair(self):
        w = parse("ABCABC|aba")
        assert shift_inv(shift(w)) == w
        assert shift(shift_inv(w)) == w

    def test_empty(self):
        assert shift(EMPTY) == EMPTY
        assert shift_inv(EMPTY) == EMPTY

    def test_orbit_closure(self):
        w = parse("ABAB|aa")
        orbit = shift_orbit(w)
        assert w in orbit
        assert shift(orbit[-1]) == w
        assert len({x.text() for x in orbit}) == len(orbit)

    @given(nanowords(max_rank=3, min_rank=1))
    @settings(max_examples=40, deadline=None)
    def test_canonical_is_orbit_invariant(self, w):
        assert shift_canonical(shift(w)) == shift_canonical(w)


class TestFindSites:
    def test_h1_sites(self):
        sites = find_sites(parse("AABB|ab"), MoveKind.H1_DOWN)
        assert [s.positions for s in sites] == [(0, 1), (2, 3)]

    def test_h2_type_condition(self):
        assert find_sites(parse("ABAB|aa"), MoveKind.H2_DOWN) == []
        assert find_sites(parse("ABBA|ab"), MoveKind.H2_DOWN) != []
        assert find_sites(parse("ABBA|aa"), MoveKind.H2_DOWN) == []

    def test_h2a_type_condition(self):
        assert find_sites(parse("ABAB|aa"), MoveKind.H2A_DOWN) == []
        assert len(find_sites(parse("ABAB|ab"), MoveKind.H2A_DOWN)) == 1

    def test_h3b_example(self):
        alpha = parse("ABCBDCAD|aabb")
        sites = find_sites(alpha, MoveKind.H3B)
        assert sites
        assert parse("BACDBCDA|aabb") in [apply_move(alpha, s) for s in sites]

    def test_h3_requires_equal_types(self):
        # Same positional pattern, wrong types: no H3 site.
        assert find_sites(parse("ABACBC|abb"), MoveKind.H3) == []

    def test_adding_sites_capped(self):
        w = parse("ABAB|aa")
        assert len(find_sites(w, MoveKind.H1_UP, max_sites=3)) == 3
        full = find_sites(w, MoveKind.H1_UP)
        assert len(full) == 2 * (len(w.word) + 1)

    def test_zero_cap_gives_no_sites(self):
        w = parse("AABB|ab")
        for kind in MoveKind:
            assert find_sites(w, kind, max_sites=0) == []

    def test_shift_sites(self):
        assert find_sites(parse("AA|a"), MoveKind.SHIFT) == [MoveSite(MoveKind.SHIFT)]
        assert find_sites(EMPTY, MoveKind.SHIFT) == []


class TestApplyMove:
    def test_h1_down(self):
        sites = find_sites(parse("AABB|ab"), MoveKind.H1_DOWN)
        assert apply_move(parse("AABB|ab"), sites[0]).text() == "BB|b"

    def test_h2a_down_to_empty(self):
        w = parse("ABAB|ab")
        (site,) = find_sites(w, MoveKind.H2A_DOWN)
        assert apply_move(w, site) == EMPTY

    def test_h3b_example(self):
        alpha = parse("ABCBDCAD|aabb")
        (site,) = find_sites(alpha, MoveKind.H3B)
        assert apply_move(alpha, site).text() == "BACDBCDA|aabb"

    def test_invalid_site_rejected(self):
        with pytest.raises(MoveError):
            apply_move(parse("ABAB|aa"), MoveSite(MoveKind.H1_DOWN, (0, 1)))
        with pytest.raises(MoveError):
            apply_move(parse("ABAB|aa"), MoveSite(MoveKind.H2A_DOWN, (0, 1, 2, 3)))

    def test_h1_up_auto_fresh(self):
        w = apply_move(parse("AA|a"), MoveSite(MoveKind.H1_UP, (1,), types=("b",)))
        assert w.text() == "ABBA|ab"

    def test_h2_up(self):
        w = apply_move(
            EMPTY, MoveSite(MoveKind.H2_UP, (0, 0), types=("a", "b"))
        )
        assert w.text() == "ABBA|ab"
        assert find_sites(w, MoveKind.H2_DOWN)

    def test_rank_change(self):
        w = parse("ABCBDCAD|aabb")
        for kind, delta in [(MoveKind.H3B, 0), (MoveKind.H1_UP, 1), (MoveKind.H2_UP, 2)]:
            for site in find_sites(w, kind, max_sites=4):
                assert apply_move(w, site).rank == w.rank + delta

    @given(nanowords(max_rank=3, min_rank=1), st.data())
    @settings(max_examples=60, deadline=None)
    def test_gauss_condition_preserved(self, w, data):
        kinds = [k for k in MoveKind if find_sites(w, k, max_sites=8)]
        kind = data.draw(st.sampled_from(kinds))
        site = data.draw(st.sampled_from(find_sites(w, kind, max_sites=8)))
        moved = apply_move(w, site)  # built unchecked, so the condition is checked here
        assert all(moved.word.count(x) == 2 for x in moved.letters)

    @given(nanowords(max_rank=3, min_rank=1), st.data())
    @settings(max_examples=60, deadline=None)
    def test_move_then_inverse_restores_exactly(self, w, data):
        kinds = [k for k in MoveKind if find_sites(w, k, max_sites=8)]
        kind = data.draw(st.sampled_from(kinds))
        site = data.draw(st.sampled_from(find_sites(w, kind, max_sites=8)))
        moved = apply_move(w, site)
        (back,) = invert_steps(w, [site])
        assert apply_move(moved, back) == w


_NAMES = [chr(65 + i) for i in range(26)] + ["X.1", "A.2", "B.1", "Q_3", "C.10", "Z.0"]


@st.composite
def named_nanowords(draw, max_rank=5):
    rank = draw(st.integers(0, max_rank))
    names = draw(st.lists(st.sampled_from(_NAMES), min_size=rank, max_size=rank, unique=True))
    seq = draw(st.permutations([i // 2 for i in range(2 * rank)]))
    types = {name: draw(st.sampled_from("ab")) for name in names}
    return Nanoword((names[i] for i in seq), types)


def assert_same_as_validated(w):
    """``w`` equals the word the checking constructor builds from its parts."""
    ref = Nanoword(w.word, w.types())
    assert type(w.word) is tuple
    assert w.letters == ref.letters
    assert all(w.occurrences(x) == ref.occurrences(x) for x in ref.letters)
    assert w.types() == ref.types()
    assert w.text() == ref.text()
    assert hash(w) == hash(ref)


class TestTrustedConstruction:
    """Rewrites build their results without the constructor's checks."""

    @given(named_nanowords())
    @settings(max_examples=100, deadline=None)
    def test_rewrites_equal_validated_words(self, w):
        for f in (shift, shift_inv, canonical_relabel, shift_canonical):
            assert_same_as_validated(f(w))
        for kind in MoveKind:
            for site in find_sites(w, kind, max_sites=6):
                assert_same_as_validated(apply_move(w, site))
        for r in range(5):
            assert_same_as_validated(covering(w, r))

    @given(named_nanowords(), named_nanowords())
    @settings(max_examples=60, deadline=None)
    def test_operations_equal_validated_words(self, w, v):
        for n in range(1, 4):
            assert_same_as_validated(cable(w, n))
            assert_same_as_validated(r_dot(w, n))
        # w with itself always clashes; v is renamed apart from w's letters.
        disjoint, _ = relabel_disjoint(v, w.letters)
        assert_same_as_validated(disjoint)
        assert_same_as_validated(compose(w, w))
        assert_same_as_validated(compose(w, v))
        assert_same_as_validated(compose(w, disjoint))

    def test_enumerated_words_equal_validated_words(self):
        for w in sample_nanowords((4, 5), 30, seed=5) + canonical_population(4):
            assert_same_as_validated(w)

    @pytest.mark.parametrize(
        "kind,slots,types,letters,message",
        [
            (MoveKind.H1_UP, (0,), ("a",), ("x",), "invalid letter name 'x'"),
            (MoveKind.H1_UP, (0,), ("a",), (3,), "invalid letter name 3"),
            (MoveKind.H1_UP, (0,), ("a",), ("",), "invalid letter name ''"),
            (MoveKind.H2_UP, (0, 1), ("a", "b"), ("C", "C"), "letter C occurs 4 time"),
        ],
    )
    def test_bad_new_letter_names_rejected(self, kind, slots, types, letters, message):
        site = MoveSite(kind, slots, letters=letters, types=types)
        with pytest.raises(NanowordError, match=message):
            apply_move(parse("ABAB|ab"), site)


class TestTraces:
    def test_replay_validates(self):
        w = parse("AABB|ab")
        (s1, s2) = find_sites(w, MoveKind.H1_DOWN)
        trace = MoveTrace(w, (s1,))
        assert trace.end().text() == "BB|b"
        bad = MoveTrace(w, (s1, s2))  # second site is stale after the first
        with pytest.raises(MoveError):
            bad.replay()

    def test_invert_steps_round_trip(self):
        w = parse("ABCBDCAD|aabb")
        steps = [
            find_sites(w, MoveKind.H3B)[0],
            MoveSite(MoveKind.SHIFT),
            MoveSite(MoveKind.SHIFT),
        ]
        end = MoveTrace(w, tuple(steps)).end()
        back = invert_steps(w, steps)
        assert MoveTrace(end, tuple(back)).end() == w


class TestNames:
    def test_fresh_names(self):
        assert fresh_names(("A", "C"), 3) == ["B", "D", "E"]

    def test_fresh_names_past_alphabet(self):
        used = [chr(65 + i) for i in range(26)]
        assert fresh_names(used, 2) == ["A.1", "B.1"]

    def test_continuation(self):
        assert continuation_names({"A", "B", "C", "D"}, 3) == ["E", "F", "G"]
        assert continuation_names({"X", "Y"}, 2) == ["Z", "A.1"]
        assert continuation_names(set(), 1) == ["A"]

    def test_relabel_disjoint(self):
        beta = parse("ABACBC|abb")
        renamed, mapping = relabel_disjoint(beta, {"A", "B", "C", "D"})
        assert renamed.text() == "EFEGFG|abb"
        assert mapping == {"A": "E", "B": "F", "C": "G"}


class TestRoundTrips:
    @given(named_nanowords(max_rank=7))
    @settings(max_examples=100, deadline=None)
    def test_shift_and_shift_inv(self, w):
        assert shift(shift_inv(w)) == w
        assert shift_inv(shift(w)) == w

    @given(named_nanowords(max_rank=4), st.integers(1, 5), st.data())
    @settings(max_examples=100, deadline=None)
    def test_inverted_steps_replay_to_start(self, w, length, data):
        # Letter-adding kinds are drawn like any other, so the walk may grow.
        current, steps = w, []
        for _ in range(length):
            sites = {k: find_sites(current, k, max_sites=8) for k in MoveKind}
            kind = data.draw(st.sampled_from([k for k in MoveKind if sites[k]]))
            site = data.draw(st.sampled_from(sites[kind]))
            current = apply_move(current, site)
            steps.append(site)
        end = MoveTrace(w, tuple(steps)).end()
        assert end == current
        assert MoveTrace(end, tuple(invert_steps(w, steps))).end() == w
