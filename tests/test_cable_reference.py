"""Differential test of the n-cable word against the four-branch builder.

The library builds the cable from each letter's arrow: strand i writes a
row of the letter's n x n block at the arrow's tail and a column at its
head.  The reference below is the straightforward builder it replaced, which
branches on the letter's type and on which occurrence it reads.  Both must
give the same word, letter for letter, and the same types.
"""

import pytest
from hypothesis import given, settings, strategies as st

from vstring.core import TYPE_A, TYPE_B, Nanoword, parse
from vstring.enumeration import all_nanowords
from vstring.ops import cable, r_dot

from test_core import named_nanowords


def ref_cable(alpha: Nanoword, n: int) -> Nanoword:
    if n == 1:
        return alpha

    def strand_copy(i: int) -> list[str]:
        out: list[str] = []
        for p, name in enumerate(alpha.word):
            is_first = alpha.occurrences(name)[0] == p
            if alpha.type_of(name) == TYPE_A:
                if is_first:
                    out.extend(f"{name}.{i}.{j}" for j in range(n))
                else:
                    out.extend(f"{name}.{k}.{i}" for k in range(n - 1, -1, -1))
            else:
                if is_first:
                    out.append(f"{name}.0.{i}")
                    out.extend(f"{name}.{k}.{i}" for k in range(n - 1, 0, -1))
                else:
                    nxt = (i + 1) % n
                    out.extend(f"{name}.{nxt}.{j}" for j in range(n))
        return out

    word: list[str] = []
    for i in range(n - 1):
        word.extend(strand_copy(i))
        word.append(f"C.{i}")
    word.extend(strand_copy(n - 1))
    word.extend(f"C.{k}" for k in range(n - 2, -1, -1))

    tmap: dict[str, str] = {f"C.{k}": TYPE_A for k in range(n - 1)}
    for name in alpha.letters:
        if alpha.type_of(name) == TYPE_A:
            for i in range(n):
                for j in range(n):
                    tmap[f"{name}.{i}.{j}"] = TYPE_A if i <= j else TYPE_B
        else:
            for i in range(n):
                d = (i - 1) % n
                for j in range(n):
                    tmap[f"{name}.{i}.{j}"] = TYPE_A if j > d else TYPE_B
    return Nanoword(word, tmap)


def assert_cable_matches_reference(w: Nanoword, n: int) -> None:
    got, expected = cable(w, n), ref_cable(w, n)
    assert got.word == expected.word, (w.text(), n)
    assert got.types() == expected.types(), (w.text(), n)


@pytest.mark.parametrize("rank", range(5))
def test_every_raw_word_up_to_rank_4(rank):
    words = list(all_nanowords(rank))
    assert len(words) == (1, 2, 12, 120, 1680)[rank]
    for w in words:
        for n in range(1, 5):
            assert_cable_matches_reference(w, n)


@given(named_nanowords(max_rank=6), st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_named_words(w, n):
    assert_cable_matches_reference(w, n)


def test_rank_90_word_with_dotted_names():
    # Names A.1 .. A.30 sort A.1, A.10, A.11, .., A.2: name order is not the
    # order of the copies, and the rank is past the 26 single letters.
    w = r_dot(parse("ABCACB|aba"), 30)
    assert w.rank == 90 and w.letters[:3] == ("A.1", "A.10", "A.11")
    for n in range(1, 5):
        assert_cable_matches_reference(w, n)
