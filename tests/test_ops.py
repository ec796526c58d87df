import math

import pytest
from hypothesis import given, settings, strategies as st

from vstring.core import (
    EMPTY,
    Nanoword,
    canonical_relabel,
    isomorphic,
    parse,
    shift_canonical_text,
)
from vstring.enumeration import canonical_population
from vstring.invariants import n_values, rho, u_polynomial
from vstring.ops import (
    cable,
    compose,
    covering,
    coverings,
    gen_alpha_n,
    gen_gamma_pq,
    r_dot,
    uncover_preimage,
)
from vstring.search import SearchBudget, cover_stats
from vstring.suites import population

from test_core import nanowords


class TestCovering:
    def test_worked_example(self):
        w = parse("ABCACB|aaa")
        assert covering(w, 2).text() == "AA|a"
        assert covering(w, 0) == EMPTY
        assert covering(w, 3) == EMPTY

    def test_five_crossing_example(self):
        c = covering(parse("ABCDBEDEAC|baaaa"), 2)
        assert c.text() == "BCDBDC|aaa"
        assert isomorphic(c, parse("BCDBDC|aaa"))

    def test_identity_cover(self):
        w = parse("ABCDBEDEAC|baaaa")
        assert covering(w, 1) == w

    def test_zero_cover_keeps_weightless(self):
        a5 = gen_alpha_n(5)
        assert covering(a5, 0) == a5

    def test_word_returned_when_every_letter_kept(self):
        seen = set()
        for w in canonical_population(3):
            nv = n_values(w)
            for r in range(5):
                kept_all = all(v == 0 if r == 0 else v % r == 0 for v in nv.values())
                assert (covering(w, r) is w) == kept_all
                seen.add(kept_all)
        assert seen == {True, False}

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            covering(parse("AA|a"), -1)

    @given(nanowords(max_rank=4))
    @settings(max_examples=60, deadline=None)
    def test_never_deletes_exactly_one(self, w):
        for r in range(w.rank + 2):
            assert w.rank - covering(w, r).rank != 1

    @given(nanowords(max_rank=3), nanowords(max_rank=3))
    @settings(max_examples=40, deadline=None)
    def test_commutes_with_composition(self, a, b):
        for r in (0, 2, 3):
            left = covering(compose(a, b), r)
            right = compose(covering(a, r), covering(b, r))
            assert canonical_relabel(left) == canonical_relabel(right)


def ref_covering(alpha, r):
    """The per-r covering as first written: a fresh subword on every call."""
    nv = n_values(alpha)
    divisible = (lambda v: v == 0) if r == 0 else (lambda v: v % r == 0)
    types = {x: alpha.type_of(x) for x in alpha.letters if divisible(nv[x])}
    if len(types) == alpha.rank:
        return alpha
    return Nanoword(tuple([x for x in alpha.word if x in types]), types, _trusted=True)


def covering_population():
    """canonical_population(4) and the 2-cables of every word of rank <= 2."""
    return canonical_population(4) + [cable(w, 2) for w in canonical_population(2)]


class TestCoverings:
    def test_table_matches_covering(self):
        for w in covering_population():
            table = coverings(w)
            assert list(table) == [0, *range(2, w.rank + 1)]
            for r, cover in table.items():
                assert cover == ref_covering(w, r), (w.text(), r)
                assert covering(w, r) is cover

    def test_equal_covers_shared_across_words(self):
        first: dict = {}  # cover value -> (the object first seen, its word)
        across = 0
        for w in covering_population():
            for r, cover in coverings(w).items():
                if cover is w:
                    continue
                seen, owner = first.setdefault(cover, (cover, w))
                assert seen is cover, (w.text(), r)
                across += owner is not w
                fresh = ref_covering(w, r)
                assert shift_canonical_text(cover) == shift_canonical_text(fresh)
        assert across > 0

    def test_worked_example(self):
        # n = (2, -1, -1): the 2-covering keeps A, the 0- and 3-coverings
        # keep nothing and are one object.
        table = coverings(parse("ABCACB|aaa"))
        assert table[2].text() == "AA|a"
        assert table[0] is table[3]
        assert table[0] == EMPTY


class TestCompose:
    def test_worked_example(self):
        c = compose(parse("ABACDBDC|abbb"), parse("ABACBC|abb"))
        assert c.text() == "ABACDBDCEFEGFG|abbbabb"

    def test_identity(self):
        w = parse("ABAB|ab")
        assert compose(EMPTY, w) == w
        assert compose(w, EMPTY) == w

    def test_kishino(self):
        assert compose(parse("ABAB|aa"), parse("ABAB|aa")).text() == "ABABCDCD|aaaa"

    @given(nanowords(max_rank=3), nanowords(max_rank=3))
    @settings(max_examples=40, deadline=None)
    def test_rank_and_u_additive(self, a, b):
        c = compose(a, b)
        assert c.rank == a.rank + b.rank
        assert u_polynomial(c) == u_polynomial(a) + u_polynomial(b)


class TestCable:
    def test_two_cable_example_letter_for_letter(self):
        c = cable(parse("X Y X Z Y Z | X=a Y=b Z=b"), 2)
        w0 = "X.0.0 X.0.1 Y.0.0 Y.1.0 X.1.0 X.0.0 Z.0.0 Z.1.0 Y.1.0 Y.1.1 Z.1.0 Z.1.1"
        w1 = "X.1.0 X.1.1 Y.0.1 Y.1.1 X.1.1 X.0.1 Z.0.1 Z.1.1 Y.0.0 Y.0.1 Z.0.0 Z.0.1"
        assert c.word == tuple((w0 + " C.0 " + w1 + " C.0").split())
        type_a = {"X.0.0", "X.0.1", "X.1.1", "Y.1.1", "Z.1.1", "C.0"}
        assert {x for x in c.letters if c.type_of(x) == "a"} == type_a

    def test_width_one_identity(self):
        w = parse("ABCACB|aaa")
        assert cable(w, 1) == w

    def test_empty_word_cable(self):
        assert canonical_relabel(cable(EMPTY, 3)).text() == "ABBA|aa"

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            cable(parse("AA|a"), 0)

    def test_equal_requests_share_one_cable(self):
        for text in ("AA|a", "ABAB|ab", "ABCACB|aaa", "ABCDBEDEAC|baaaa"):
            w = parse(text)
            for n in (2, 3):
                assert cable(w, n) is cable(parse(w.text()), n)

    def test_width_one_is_the_first_equal_word(self):
        cable.cache_clear()
        w = parse("ABCACB|aaa")
        assert cable(w, 1) is w
        assert cable(parse(w.text()), 1) is w

    def test_bad_width_raises_on_every_call(self):
        w = parse("AA|a")
        for _ in range(2):
            with pytest.raises(ValueError):
                cable(w, 0)

    @given(nanowords(max_rank=3), st.sampled_from([2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_rank_formula(self, w, n):
        assert cable(w, n).rank == w.rank * n * n + n - 1

    @given(nanowords(max_rank=3), st.sampled_from([2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_u_polynomial_formula(self, w, n):
        assert u_polynomial(cable(w, n)) == u_polynomial(w).cable_transform(n)

    @given(nanowords(max_rank=2), st.sampled_from([(2, 2), (2, 4), (3, 2), (2, 0), (3, 0)]))
    @settings(max_examples=40, deadline=None)
    def test_cover_cable_commutation(self, w, nr):
        n, r = nr
        k = 0 if r == 0 else r // math.gcd(n, r)
        assert isomorphic(covering(cable(w, n), r), cable(covering(w, k), n))

    @given(nanowords(max_rank=2, min_rank=1), st.sampled_from([2, 3]))
    @settings(max_examples=30, deadline=None)
    def test_rho_bound(self, w, n):
        delta = 1 if n % 2 == 0 else 0
        assert rho(cable(w, n)) <= n * n * rho(w) + delta


class TestPopulation:
    def test_one_shared_tuple_per_setting(self):
        words = population(3, 7, 200)
        assert isinstance(words, tuple)
        assert population(3, 7, 200) is words
        # Spelled any other way, the same setting would miss the cache.
        with pytest.raises(TypeError):
            population(3)
        with pytest.raises(TypeError):
            population(max_rank=3, seed=7, sample=200)


class TestRDot:
    def test_worked_example(self):
        rd = r_dot(parse("ABACBC|aab"), 2)
        expected = parse(
            "A.1 A.2 B.1 B.2 A.2 A.1 C.1 C.2 B.2 B.1 C.2 C.1 | "
            "A.1=a A.2=a B.1=a B.2=a C.1=b C.2=b"
        )
        assert rd == expected

    def test_identity(self):
        w = parse("ABAB|ab")
        assert r_dot(w, 1) == w

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            r_dot(parse("AA|a"), 0)

    @given(nanowords(max_rank=3), st.sampled_from([2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_fixed_under_matching_cover(self, w, r):
        rd = r_dot(w, r)
        nv = n_values(w)
        nvd = n_values(rd)
        for x in w.letters:
            for i in range(1, r + 1):
                assert nvd[f"{x}.{i}"] == r * nv[x]
        assert covering(rd, r) == rd


class TestFamilies:
    def test_gamma_11_is_doubled_pair(self):
        assert canonical_relabel(gen_gamma_pq(1, 1)).text() == "ABAB|aa"

    def test_gamma_12_matches_example_word(self):
        assert isomorphic(gen_gamma_pq(1, 2), parse("ABCACB|aaa"))

    def test_gamma_rank_and_u(self):
        for p in range(1, 5):
            for q in range(1, 5):
                w = gen_gamma_pq(p, q)
                assert w.rank == p + q
                expected = {q: p} if p != q else {}
                if p != q:
                    expected[p] = expected.get(p, 0) - q
                assert u_polynomial(w).as_dict() == expected

    def test_gamma_rejects_bad_params(self):
        with pytest.raises(ValueError):
            gen_gamma_pq(0, 1)

    def test_alpha_n_shape(self):
        a3 = gen_alpha_n(3)
        assert canonical_relabel(a3).text() == "ABCABC|aba"
        for n in (3, 5, 8):
            w = gen_alpha_n(n)
            assert w.rank == n
            assert all(v == 0 for v in n_values(w).values())
            assert covering(w, 0) == w

    def test_alpha_n_rejects_small(self):
        with pytest.raises(ValueError):
            gen_alpha_n(2)


class TestUncoverPreimage:
    def test_empty(self):
        assert uncover_preimage(EMPTY, 2) == EMPTY

    def test_rejects_r_one(self):
        for r in (1, -3):
            with pytest.raises(ValueError):
                uncover_preimage(parse("AA|a"), r)

    def test_doubled_pair(self):
        pre = uncover_preimage(parse("ABAB|aa"), 2)
        assert pre.rank == 4
        assert canonical_relabel(covering(pre, 2)) == parse("ABAB|aa")
        assert not u_polynomial(pre)

    @given(nanowords(max_rank=3), st.sampled_from([0, 2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_postconditions(self, w, r):
        pre = uncover_preimage(w, r)
        assert canonical_relabel(covering(pre, r)) == canonical_relabel(w)
        assert not u_polynomial(pre)


class TestFixedPointSets:
    """Word-level relations between the sets fixed by different coverings."""

    @given(nanowords(max_rank=4))
    @settings(max_examples=60, deadline=None)
    def test_fixed_under_zero_implies_all(self, w):
        if covering(w, 0) == w:
            for r in range(7):
                assert covering(w, r) == w

    @given(nanowords(max_rank=4), st.sampled_from([(2, 2), (3, 2), (2, 3)]))
    @settings(max_examples=60, deadline=None)
    def test_fixed_under_multiple_implies_divisor(self, w, kr):
        k, r = kr
        if covering(w, k * r) == w:
            assert covering(w, r) == w

    @given(nanowords(max_rank=4), st.sampled_from([(2, 3), (2, 4), (4, 6)]))
    @settings(max_examples=60, deadline=None)
    def test_fixed_under_pair_iff_lcm(self, w, pq):
        p, q = pq
        both = covering(w, p) == w and covering(w, q) == w
        l = p * q // math.gcd(p, q)
        assert both == (covering(w, l) == w)


class TestCoverStats:
    def test_trivial_word(self):
        stats = cover_stats(EMPTY, 2)
        assert stats.m_upper == 0
        assert stats.height_upper == 0
        assert stats.fixed

    def test_worked_example(self):
        stats = cover_stats(parse("ABCACB|aaa"), 2)
        assert stats.m_upper == 3
        assert stats.height_upper == 1
        assert stats.base_word.text() == "AA|a"
        assert not stats.fixed

    def test_oracle_refinement(self):
        budget = SearchBudget(2, 20_000, 32)
        stats = cover_stats(parse("ABCACB|aaa"), 2, budget)
        assert stats.base_word == EMPTY

    def test_fixed_point(self):
        rd = r_dot(parse("ABACBC|aab"), 2)
        stats = cover_stats(rd, 2)
        assert stats.fixed
        assert stats.height_upper == 0

    def test_weightless_word(self):
        assert cover_stats(gen_alpha_n(5), 0).m_upper == 0

    def test_matches_walk_down_reference(self):
        # The walk-down over r that cover_stats used before it read the
        # covering table, and the direct fixedness check.
        def ref_m_upper(w):
            nonzero = [abs(v) for v in n_values(w).values() if v != 0]
            if not nonzero:
                return 0
            m_upper = max(nonzero) + 1
            base0 = covering(w, 0)
            while m_upper > 1 and covering(w, m_upper - 1) == base0:
                m_upper -= 1
            return m_upper

        for w in covering_population():
            for r in (0, 2, 3):
                stats = cover_stats(w, r)
                assert stats.m_upper == ref_m_upper(w), w.text()
                assert stats.fixed == (covering(w, r) == w), (w.text(), r)
