"""Differential tests of the letter weights, head/tail and based matrices, and th_realizable.

The reference functions below are the straightforward forms: n(X) sums the
pairwise linking numbers, the head and tail matrices test each arrow end for
membership in a set of cyclic positions, the based matrix takes its border
from those weights and its inner block from those head/tail matrices, and
``th_realizable`` matches permutations with its own backtracker after a
row/column-sum prefilter.  The library reads every one of them from one table
of occurrence positions and arrow ends, takes the based matrix's border as
the row sums of T - H, and ``th_realizable`` shares the backtracker of
``bm_isomorphic``.  One stacked kernel computes the tail/head matrices of
many equal-rank words at once, and each based matrix formed from its stack
must keep an independent read-only pairing.  ``_primitives`` builds the
primitives of any list of words with one kernel call per rank and one
reduction per distinct pairing; it must give what building and reducing each
word alone gives, also for a pairing repeated under other letter names.
``bm_isomorphic`` matches equal pairings without a search, and must give
the reference verdict.  They must give the same weights, the same matrices
and the same realizing word.
"""

import random
from itertools import combinations, groupby
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vstring.core import EMPTY, TYPE_A, Nanoword, fresh_names, parse
from vstring.enumeration import all_nanowords, canonical_population, sample_nanowords
from vstring import invariants
from vstring.invariants import (
    SPECIAL,
    BasedMatrix,
    _based_matrices,
    _bijection,
    _kernel,
    _line_keys,
    _primitives,
    based_matrix,
    bm_isomorphic,
    cable_reduced_based_matrix,
    composite_based_matrix,
    head_tail_matrices,
    linking_number,
    n_values,
    primitive_based_matrix,
    reduce_to_primitive,
    th_realizable,
)
from vstring.ops import cable

from test_core import named_nanowords
from test_reduction_reference import ref_bm_isomorphic


def ref_n_values(alpha: Nanoword) -> dict[str, int]:
    out = {x: 0 for x in alpha.letters}
    letters = alpha.letters
    for i, x in enumerate(letters):
        for y in letters[i + 1 :]:
            l = linking_number(alpha, x, y)
            out[x] += l
            out[y] -= l
    return out


def ref_arrow_ends(alpha: Nanoword, name: str) -> tuple[int, int]:
    first, second = alpha.occurrences(name)
    if alpha.type_of(name) == TYPE_A:
        return first, second
    return second, first


def ref_cyclic_interval(start: int, stop: int, length: int) -> set[int]:
    out = set()
    i = (start + 1) % length
    while i != stop:
        out.add(i)
        i = (i + 1) % length
    return out


def ref_head_tail_matrices(alpha: Nanoword) -> tuple[np.ndarray, np.ndarray]:
    order = alpha.letters
    k = len(order)
    tail = np.zeros((k, k), dtype=np.int64)
    head = np.zeros((k, k), dtype=np.int64)
    length = len(alpha.word)
    ends = {x: ref_arrow_ends(alpha, x) for x in order}
    for i, x in enumerate(order):
        span = ref_cyclic_interval(ends[x][0], ends[x][1], length)
        for j, y in enumerate(order):
            if i == j:
                continue
            ty, hy = ends[y]
            if ty in span:
                tail[i, j] = 1
            if hy in span:
                head[i, j] = 1
    return tail, head


def ref_th_signature(tail: np.ndarray, head: np.ndarray) -> tuple:
    return tuple(
        sorted(
            (
                int(tail[i].sum()),
                int(tail[:, i].sum()),
                int(head[i].sum()),
                int(head[:, i].sum()),
            )
            for i in range(tail.shape[0])
        )
    )


def ref_match_permutation(t1, h1, t2, h2) -> list[int] | None:
    k = t1.shape[0]
    perm: list[int] = []
    used = [False] * k

    def extend() -> bool:
        i = len(perm)
        if i == k:
            return True
        for c in range(k):
            if used[c]:
                continue
            ok = t1[c, c] == t2[i, i]
            for j in range(i):
                if not ok:
                    break
                d = perm[j]
                ok = (
                    t1[c, d] == t2[i, j]
                    and t1[d, c] == t2[j, i]
                    and h1[c, d] == h2[i, j]
                    and h1[d, c] == h2[j, i]
                )
            if ok:
                perm.append(c)
                used[c] = True
                if extend():
                    return True
                perm.pop()
                used[c] = False
        return False

    return perm if extend() else None


def ref_th_realizable(tail: np.ndarray, head: np.ndarray) -> Nanoword | None:
    tail = np.asarray(tail, dtype=np.int64)
    head = np.asarray(head, dtype=np.int64)
    k = tail.shape[0]
    if k == 0:
        return EMPTY
    target_sig = ref_th_signature(tail, head)
    for word in all_nanowords(k):
        t1, h1 = ref_head_tail_matrices(word)
        if ref_th_signature(t1, h1) != target_sig:
            continue
        perm = ref_match_permutation(t1, h1, tail, head)
        if perm is not None:
            names = fresh_names((), k)
            mapping = {word.letters[perm[i]]: names[i] for i in range(k)}
            return Nanoword(
                (mapping[x] for x in word.word),
                {mapping[x]: word.type_of(x) for x in word.letters},
            )
    return None


def assert_matches_reference(w: Nanoword) -> None:
    nv = n_values(w)
    assert dict(nv) == ref_n_values(w), w.text()
    assert list(nv) == list(w.letters)
    th = head_tail_matrices(w)
    tail, head = ref_head_tail_matrices(w)
    assert th.order == w.letters
    assert np.array_equal(th.tail, tail), w.text()
    assert np.array_equal(th.head, head), w.text()
    linking = [[linking_number(w, x, y) for y in w.letters] for x in w.letters]
    assert (th.tail - th.head).tolist() == linking


def _cables() -> list[Nanoword]:
    return [cable(w, n) for w in canonical_population(3) for n in (2, 3)]


def test_every_raw_word_up_to_rank_4():
    count = 0
    for rank in range(5):
        for w in all_nanowords(rank):
            assert_matches_reference(w)
            count += 1
    assert count == 1 + 2 + 3 * 4 + 15 * 8 + 105 * 16


def test_cables_of_rank_3_words():
    words = _cables()
    assert max(w.rank for w in words) == 29
    for w in words:
        assert_matches_reference(w)


def test_sampled_rank_5_to_7_words():
    words = sample_nanowords((5, 6, 7), 40, 31)
    assert len(words) == 40
    for w in words:
        assert_matches_reference(w)


@given(named_nanowords(max_rank=7))
@settings(max_examples=200, deadline=None)
def test_named_words(w):
    assert_matches_reference(w)


def ref_based_matrix(alpha: Nanoword) -> BasedMatrix:
    t, h = ref_head_tail_matrices(alpha)
    nv = ref_n_values(alpha)
    k = len(alpha.letters)
    full = np.zeros((k + 1, k + 1), dtype=np.int64)
    full[1:, 1:] = t - h + t @ h.T - h @ t.T
    full[1:, 0] = [nv[x] for x in alpha.letters]
    full[0, 1:] = -full[1:, 0]
    return BasedMatrix((SPECIAL, *alpha.letters), full)


def assert_based_matrix_matches_reference(w: Nanoword) -> None:
    got, expected = based_matrix(w), ref_based_matrix(w)
    assert got.elements == expected.elements, w.text()
    assert got.pairing.dtype == np.int64
    assert np.array_equal(got.pairing, expected.pairing), w.text()


def test_based_matrix_population_rank_4():
    words = canonical_population(4)
    assert len(words) == 246
    for w in words:
        assert_based_matrix_matches_reference(w)


def test_based_matrix_cables_of_rank_3_words():
    for w in _cables():
        assert_based_matrix_matches_reference(w)


@given(named_nanowords(max_rank=7))
@settings(max_examples=100, deadline=None)
def test_based_matrix_named_words(w):
    assert_based_matrix_matches_reference(w)


def assert_kernel_matches_reference(words: list[Nanoword], monkeypatch) -> None:
    stacks = []

    def recorded(group):
        stacks.append(_kernel(group))
        return stacks[-1]

    monkeypatch.setattr(invariants, "_kernel", recorded)
    matrices = _based_matrices(words)
    assert len(stacks) == 1
    th = _kernel(words)
    assert th.shape == (len(words), 2, words[0].rank, words[0].rank)
    assert np.array_equal(th, stacks[0])
    for w, (tail, head), m in zip(words, th, matrices):
        expected = ref_head_tail_matrices(w)
        assert np.array_equal(tail, expected[0]) and np.array_equal(head, expected[1]), w.text()
        assert m == ref_based_matrix(w), w.text()
        assert m.pairing.dtype == np.int64 and not m.pairing.flags.writeable
        # Its own memory, not a view into the stack it was formed in.
        assert m.pairing.flags.owndata and not np.shares_memory(m.pairing, stacks[0])
    for m1, m2 in combinations(matrices, 2):
        assert not np.shares_memory(m1.pairing, m2.pairing)


def test_kernel_on_gauss_word_groups_of_population_rank_4(monkeypatch):
    groups = [list(g) for _, g in groupby(canonical_population(4), key=attrgetter("word"))]
    assert groups[0] == [EMPTY] and max(len(g) for g in groups) == 16
    assert sum(map(len, groups)) == 246
    for group in groups:
        assert_kernel_matches_reference(group, monkeypatch)


def test_kernel_on_the_empty_word(monkeypatch):
    assert_kernel_matches_reference([EMPTY, EMPTY], monkeypatch)


def test_kernel_on_equal_rank_cables(monkeypatch):
    # 2-cables of rank 3 words and 3-cables of rank 2 words; a 2-cable of a
    # rank 7 word has the rank of a 3-cable of a rank 3 word, 29.
    population = canonical_population(3)
    for n, rank in ((2, 3), (3, 2)):
        assert_kernel_matches_reference(
            [cable(w, n) for w in population if w.rank == rank], monkeypatch
        )
    mixed = [cable(w, 3) for w in population if w.rank == 3][:4]
    mixed += [cable(w, 2) for w in sample_nanowords((7,), 3, 5)]
    assert {w.rank for w in mixed} == {29}
    assert_kernel_matches_reference(mixed, monkeypatch)


def assert_primitives_match_per_word(words: list[Nanoword]) -> None:
    # The bulk path against the one-word path: build, then reduce, each word.
    primitives = _primitives(words)
    assert len(primitives) == len(words)
    for w, p in zip(words, primitives):
        expected = reduce_to_primitive(based_matrix(w))[0]
        assert p.elements == expected.elements, w.text()
        assert p.pairing.tolist() == expected.pairing.tolist(), w.text()
        assert p.pairing.dtype == np.int64 and not p.pairing.flags.writeable
    for p, q in combinations(primitives, 2):
        assert not np.shares_memory(p.pairing, q.pairing)


def test_primitives_of_shuffled_population_rank_4():
    words = canonical_population(4)
    random.Random(32).shuffle(words)
    assert len({w.rank for w in words[:20]}) > 1
    assert_primitives_match_per_word(words)


def test_primitives_of_empty_and_repeated_words():
    w = parse("ABCACB|aaa")
    assert_primitives_match_per_word([EMPTY, w, EMPTY, w, parse("ABAB|ab")])
    assert _primitives([]) == []


@given(st.lists(named_nanowords(max_rank=6), max_size=8))
@settings(max_examples=60, deadline=None)
def test_primitives_named_words(words):
    assert_primitives_match_per_word(words)


def _renamed(w: Nanoword, names: list[str]) -> Nanoword:
    """``w`` with its letters, in name order, renamed to ``names``."""
    mapping = dict(zip(w.letters, names))
    return Nanoword([mapping[x] for x in w.word], {mapping[x]: w.type_of(x) for x in w.letters})


def _renamed_copies(w: Nanoword) -> list[Nanoword]:
    # Names in the same order keep the pairing and change every tag; names
    # in reverse order permute the pairing.
    names = sorted(f"Q{i}" for i in range(w.rank))
    return [_renamed(w, names), _renamed(w, names[::-1])]


def test_primitives_of_renamed_copies(monkeypatch):
    # A pairing seen before takes the first one's reduction with its own tags.
    words = [parse("ABCACB|aaa"), parse("AABCBDCD|aaab"), parse("ABCADBECDE|aaaaa")]
    words += canonical_population(3)[::7]
    words = [c for w in words for c in (w, *_renamed_copies(w), w)]
    random.Random(34).shuffle(words)
    reductions = []
    reduce = invariants.reduce_to_primitive

    def counting_reduce(m, **kwargs):
        reductions.append(m.pairing.tolist())
        return reduce(m, **kwargs)

    monkeypatch.setattr(invariants, "reduce_to_primitive", counting_reduce)
    primitives = _primitives(words)
    monkeypatch.undo()
    first_tags: dict[str, tuple[str, ...]] = {}
    retagged = 0
    for w, p in zip(words, primitives):
        tags = first_tags.setdefault(str(based_matrix(w).pairing.tolist()), p.elements)
        retagged += tags != p.elements
    assert len(reductions) == len(first_tags) < len(words)
    assert retagged > 0
    assert_primitives_match_per_word(words)


def test_bm_isomorphic_on_equal_and_retagged_pairings(monkeypatch):
    # Equal pairings are matched without a search; every verdict is the
    # reference's, with tags renamed or not.
    matrices = []
    for w in canonical_population(3)[::5]:
        for c in (w, *_renamed_copies(w)):
            m = based_matrix(c)
            matrices += [m, reduce_to_primitive(m)[0]]
    verdicts = [
        (bm_isomorphic(m1, m2), ref_bm_isomorphic(m1, m2)) for m1 in matrices for m2 in matrices
    ]
    assert all(got == expected for got, expected in verdicts)
    assert 0 < sum(got for got, _ in verdicts) < len(verdicts)

    def no_search(*args):
        raise AssertionError("equal pairings searched for a bijection")

    monkeypatch.setattr(invariants, "_bijection", no_search)
    for m in matrices:
        retagged = BasedMatrix((SPECIAL, *(f"R{i}" for i in range(m.size - 1))), m.pairing)
        assert bm_isomorphic(m, m) and bm_isomorphic(m, retagged)
        assert ref_bm_isomorphic(m, retagged)


def _internal_matrices(w: Nanoword, v: Nanoword) -> list[BasedMatrix]:
    m = based_matrix(w)
    return [
        m,
        composite_based_matrix(m, w.types(), based_matrix(v), v.types()),
        cable_reduced_based_matrix(primitive_based_matrix(w), 2),
        reduce_to_primitive(m)[0],
        primitive_based_matrix(w),
    ]


def test_internal_pairings_read_only():
    for m in _internal_matrices(parse("ABCACB|aaa"), parse("ABCABC|aba")):
        assert m.pairing.dtype == np.int64
        assert not m.pairing.flags.writeable
        with pytest.raises(ValueError):
            m.pairing[0, 0] = 1


def test_trusted_keeps_the_array_it_is_given():
    # Its caller has just built the array, so it is kept, not copied, and
    # made read-only.
    a = np.array([[0, 1], [-1, 0]], dtype=np.int64)
    m = BasedMatrix._trusted((SPECIAL, "A"), a)
    assert m.pairing is a
    assert not a.flags.writeable


def test_caller_arrays_cannot_change_results():
    # A pairing passed in stays writable for its owner; writing to it after
    # the call leaves every result alone.
    a = np.array([[0, 1, -1], [-1, 0, 0], [1, 0, 0]], dtype=np.int64)
    padded = np.zeros((4, 4), dtype=np.int64)
    padded[:3, :3] = a  # C is annihilating
    m = BasedMatrix(("s", "A", "B"), a)
    reducible = BasedMatrix(("s", "A", "B", "C"), padded)
    types = {"A": "a", "B": "b"}
    results = [
        reduce_to_primitive(m)[0],  # already primitive: no step taken
        reduce_to_primitive(reducible)[0],
        composite_based_matrix(m, types, m, types),
        cable_reduced_based_matrix(m, 2),
    ]
    assert results[0] == results[1] == m
    before = [r.pairing.copy() for r in results]
    a[...] = 7
    padded[...] = 7
    for r, old in zip(results, before):
        assert np.array_equal(r.pairing, old)
        assert not np.shares_memory(r.pairing, m.pairing)


def _same_outcome(tail: np.ndarray, head: np.ndarray) -> Nanoword | None:
    got = th_realizable(tail, head)
    expected = ref_th_realizable(tail, head)
    assert (got is None) == (expected is None)
    if got is not None:
        assert got.text() == expected.text()
    return got


def test_th_realizable_same_word_as_reference():
    rng = random.Random(5)
    for w in canonical_population(3):
        th = head_tail_matrices(w)
        k = len(th.order)
        perms = [list(range(k))] + [rng.sample(range(k), k) for _ in range(2)]
        for perm in perms:
            tail = th.tail[np.ix_(perm, perm)]
            head = th.head[np.ix_(perm, perm)]
            got = _same_outcome(tail, head)
            assert got is not None
            back = head_tail_matrices(got)
            assert np.array_equal(back.tail, tail)
            assert np.array_equal(back.head, head)


def _random_pair(k: int, rng: random.Random) -> tuple[np.ndarray, np.ndarray]:
    def one() -> np.ndarray:
        m = np.array([[rng.randrange(2) for _ in range(k)] for _ in range(k)])
        np.fill_diagonal(m, 0)
        return m

    return one(), one()


def test_bijection_same_permutation_as_reference():
    # Random 0/1 pairs with zero diagonal, not skew: a match must check both
    # b[i][j] and b[j][i].  Half the targets are permuted copies, half of
    # those with one entry flipped.
    rng = random.Random(7)
    found = 0
    for _ in range(400):
        k = rng.randrange(1, 6)
        t1, h1 = _random_pair(k, rng)
        if rng.randrange(2):
            perm = rng.sample(range(k), k)
            t2, h2 = t1[np.ix_(perm, perm)].copy(), h1[np.ix_(perm, perm)].copy()
            if k > 1 and rng.randrange(2):
                i, j = rng.sample(range(k), 2)
                t2[i, j] ^= 1
        else:
            t2, h2 = _random_pair(k, rng)
        target, rows = (t2 + 2 * h2).tolist(), (t1 + 2 * h1).tolist()
        expected = ref_match_permutation(t1, h1, t2, h2)
        # Equal keys leave the search unpruned; the line keys prune it.
        assert _bijection(target, rows, [0] * k, [0] * k) == expected
        assert _bijection(target, rows, _line_keys(target), _line_keys(rows)) == expected
        found += expected is not None
    assert 100 < found < 300


def test_th_realizable_unrealizable_pairs():
    rng = random.Random(6)
    pairs = [_random_pair(2, rng) for _ in range(16)]
    pairs += [_random_pair(3, rng) for _ in range(40)]
    unrealizable = 0
    for tail, head in pairs:
        if _same_outcome(tail, head) is None:
            unrealizable += 1
    assert unrealizable >= 20
