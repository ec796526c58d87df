import logging
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vstring.core import (
    ALL_MOVES,
    EMPTY,
    MoveKind,
    Nanoword,
    apply_move,
    canonical_relabel,
    find_sites,
    parse,
    shift,
    shift_canonical_text,
)
from vstring.enumeration import all_nanowords, canonical_population
import vstring.core as core_module
import vstring.invariants as invariants_module
from vstring.invariants import (
    BasedMatrix,
    DistinguishReport,
    HeadTailMatrices,
    ReductionStep,
    UPolynomial,
    based_matrix,
    bm_isomorphic,
    cable_reduced_based_matrix,
    composite_based_matrix,
    distinguish,
    head_tail_matrices,
    invariant_bundle,
    linking_number,
    n_values,
    primitive_based_matrix,
    reduce_to_primitive,
    rho,
    th_realizable,
    u_polynomial,
    u_realizable,
)
from vstring.ops import cable, compose, covering, gen_alpha_n, gen_gamma_pq, r_dot
from vstring.suites import population, suite_move_invariance

from test_core import nanowords


class TestLinking:
    # The five-case table: sign from the occurrence pattern and type match.
    @pytest.mark.parametrize(
        "text,pair,expected",
        [
            ("ABAB|aa", ("A", "B"), 1),
            ("ABAB|ab", ("A", "B"), -1),
            ("ABCABC|aba", ("A", "B"), -1),
            ("AABB|ab", ("A", "B"), 0),
            ("ABBA|aa", ("A", "B"), 0),
            ("BABA|ab", ("A", "B"), 1),
            ("BABA|aa", ("A", "B"), -1),
        ],
    )
    def test_case_table(self, text, pair, expected):
        assert linking_number(parse(text), *pair) == expected

    def test_self_linking_zero(self):
        assert linking_number(parse("ABAB|aa"), "A", "A") == 0

    def test_unknown_letter(self):
        with pytest.raises(KeyError):
            linking_number(parse("ABAB|aa"), "A", "Z")

    @given(nanowords(max_rank=4))
    @settings(max_examples=50, deadline=None)
    def test_skew_symmetry(self, w):
        for x in w.letters:
            for y in w.letters:
                assert linking_number(w, x, y) == -linking_number(w, y, x)

    @given(nanowords(max_rank=4, min_rank=1))
    @settings(max_examples=50, deadline=None)
    def test_shift_stable(self, w):
        shifted = shift(w)
        for x in w.letters:
            for y in w.letters:
                assert linking_number(w, x, y) == linking_number(shifted, x, y)


class TestNValues:
    def test_example_word(self):
        assert n_values(parse("ABCACB|aaa")) == {"A": 2, "B": -1, "C": -1}

    def test_empty(self):
        assert n_values(EMPTY) == {}

    def test_cached_result_is_read_only(self):
        w = parse("ABCACB|aaa")
        u, cover = u_polynomial(w), covering(w, 2)
        with pytest.raises(TypeError):
            n_values(w)["A"] = 99
        assert n_values(w) == {"A": 2, "B": -1, "C": -1}
        assert u_polynomial(w) == u
        assert covering(w, 2) == cover

    def test_gamma_family(self):
        w = gen_gamma_pq(2, 3)
        nv = n_values(w)
        assert all(nv[f"X.{i}"] == 3 for i in (1, 2))
        assert all(nv[f"Y.{j}"] == -2 for j in (1, 2, 3))

    @given(nanowords(max_rank=4))
    @settings(max_examples=60, deadline=None)
    def test_zero_sum_and_bound(self, w):
        nv = n_values(w)
        assert sum(nv.values()) == 0
        assert all(abs(v) < max(w.rank, 1) for v in nv.values())


class TestUPolynomial:
    def test_gamma_23(self):
        assert u_polynomial(gen_gamma_pq(2, 3)).as_dict() == {3: 2, 2: -3}

    def test_example_word(self):
        u = u_polynomial(parse("ABCACB|aaa"))
        assert u.as_dict() == {2: 1, 1: -2}
        assert str(u) == "t^2 - 2t"

    def test_trefoil_zero(self):
        assert not u_polynomial(parse("ABCABC|aba"))

    def test_realizability(self):
        assert u_realizable(u_polynomial(gen_gamma_pq(2, 3)))
        assert not u_realizable(UPolynomial.from_dict({2: 1}))
        assert u_realizable(UPolynomial())

    def test_normalization(self):
        assert UPolynomial.from_dict({2: 0, 1: 3}).coeffs == ((1, 3),)
        with pytest.raises(ValueError):
            UPolynomial(((0, 1),))
        with pytest.raises(ValueError):
            UPolynomial(((1, 0),))

    def test_duplicate_exponents_rejected(self):
        # Would print "2t - 2t", be truthy and give as_dict() == {1: 2}.
        with pytest.raises(ValueError, match="strictly increasing"):
            UPolynomial(((1, -2), (1, 2)))
        with pytest.raises(ValueError, match="strictly increasing"):
            UPolynomial(((2, 1), (1, 1)))

    def test_addition_and_cable_transform(self):
        u = UPolynomial.from_dict({1: 2, 3: -1})
        v = UPolynomial.from_dict({1: -2, 2: 5})
        assert (u + v).as_dict() == {3: -1, 2: 5}
        assert u.cable_transform(2).as_dict() == {2: 8, 6: -4}

    def test_str_forms(self):
        assert str(UPolynomial()) == "0"
        assert str(UPolynomial.from_dict({1: 1})) == "t"
        assert str(UPolynomial.from_dict({1: -1, 4: 2})) == "2t^4 - t"


class TestHeadTail:
    def test_worked_example(self):
        th = head_tail_matrices(parse("ABCBCA|bab"))
        assert th.order == ("A", "B", "C")
        assert np.array_equal(th.tail, [[0, 0, 0], [0, 0, 0], [1, 1, 0]])
        assert np.array_equal(th.head, [[0, 0, 0], [0, 0, 1], [1, 0, 0]])

    def test_empty(self):
        th = head_tail_matrices(EMPTY)
        assert th.tail.shape == (0, 0)

    def test_fractional_entries_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            HeadTailMatrices(("A", "B"), [[0, 0.7], [0, 0]], np.zeros((2, 2)))

    def test_entries_other_than_zero_one_rejected(self):
        with pytest.raises(ValueError, match="0/1"):
            HeadTailMatrices(("A", "B"), [[0, 5], [3, 0]], np.zeros((2, 2)))
        with pytest.raises(ValueError, match="0/1"):
            HeadTailMatrices(("A", "B"), np.zeros((2, 2)), [[0, -1], [0, 0]])
        with pytest.raises(ValueError, match="0/1"):
            HeadTailMatrices(("A", "B"), [[1, 0], [0, 0]], np.zeros((2, 2)))

    def test_duplicate_letter_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            HeadTailMatrices(("A", "A"), np.zeros((2, 2)), np.zeros((2, 2)))

    def test_caller_arrays_stay_apart(self):
        tail, head = np.zeros((2, 2), dtype=np.int64), np.zeros((2, 2), dtype=np.int64)
        th = HeadTailMatrices(("A", "B"), tail, head[:])
        assert tail.flags.writeable
        head[0, 1] = 1
        assert not th.head.any()

    @given(nanowords(max_rank=4))
    @settings(max_examples=50, deadline=None)
    def test_difference_is_linking(self, w):
        th = head_tail_matrices(w)
        diff = th.tail - th.head
        assert np.array_equal(diff, -diff.T)
        for i, x in enumerate(th.order):
            for j, y in enumerate(th.order):
                assert diff[i, j] == linking_number(w, x, y)


class TestTHRealizable:
    UNREALIZABLE = (
        np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]]),
        np.array([[0, 1, 0], [0, 0, 0], [0, 1, 0]]),
    )

    def test_counterexample_rejected(self):
        tail, head = self.UNREALIZABLE
        assert tail.shape == head.shape
        diff = tail - head
        assert np.array_equal(diff, -diff.T)  # skew restriction alone passes
        assert th_realizable(tail, head) is None

    def test_worked_example_realized(self):
        th = head_tail_matrices(parse("ABCBCA|bab"))
        word = th_realizable(th.tail, th.head)
        assert word is not None
        back = head_tail_matrices(word)
        assert np.array_equal(back.tail, th.tail)
        assert np.array_equal(back.head, th.head)

    def test_empty_pair(self):
        assert th_realizable(np.zeros((0, 0)), np.zeros((0, 0))) == EMPTY

    def test_search_leaves_word_caches_alone(self):
        # The search's throwaway words go through no per-word cache.
        assert not hasattr(head_tail_matrices, "cache_info")
        assert not hasattr(based_matrix, "cache_info")
        assert not hasattr(primitive_based_matrix, "cache_info")
        caches = (n_values,)
        before = [f.cache_info() for f in caches]
        assert th_realizable(*self.UNREALIZABLE) is None
        assert [f.cache_info() for f in caches] == before

    def test_move_invariance_reduces_each_word_once(self, monkeypatch):
        # One reduction per distinct based matrix pairing among each
        # population word and its moved words, and no weights: the
        # primitives alone carry u and rho.
        words = population(2, 7, 0)
        expected = 0
        for word in words:
            sites = [s for k in (MoveKind.SHIFT, *ALL_MOVES) for s in find_sites(word, k)]
            moved = [apply_move(word, s) for s in sites]
            expected += len({str(based_matrix(w).pairing.tolist()) for w in (word, *moved)})
        reductions = []
        reduce = invariants_module.reduce_to_primitive

        def counting_reduce(m, **kwargs):
            reductions.append(m)
            return reduce(m, **kwargs)

        monkeypatch.setattr(invariants_module, "reduce_to_primitive", counting_reduce)
        before = n_values.cache_info()
        report = suite_move_invariance(2, 7, 0)
        after = n_values.cache_info()
        assert report.total + len(words) == 334
        assert len(reductions) == expected == 78
        assert after.hits + after.misses == before.hits + before.misses

    def test_move_invariance_one_kernel_call_per_rank(self, monkeypatch):
        # Each population word and its moved words get their based matrices
        # from one kernel call per rank among them.
        expected = 0
        for word in population(2, 7, 0):
            sites = [s for k in (MoveKind.SHIFT, *ALL_MOVES) for s in find_sites(word, k)]
            moved = [apply_move(word, s) for s in sites]
            expected += len({w.rank for w in (word, *moved)})
        calls = []
        kernel = invariants_module._kernel

        def counting_kernel(words):
            calls.append(len(words))
            return kernel(words)

        monkeypatch.setattr(invariants_module, "_kernel", counting_kernel)
        report = suite_move_invariance(2, 7, 0)
        assert len(calls) == expected == 22
        assert sum(calls) == report.total + len(population(2, 7, 0))

    def test_move_invariance_classifies_each_candidate_once(self, monkeypatch):
        # One _pair_sites pass per pair count m = 1, 2, 3 for each population
        # word, for all the kinds of that many pairs.
        calls = []
        pair_sites = core_module._pair_sites

        def counting_pair_sites(alpha, m):
            calls.append(m)
            return pair_sites(alpha, m)

        monkeypatch.setattr(core_module, "_pair_sites", counting_pair_sites)
        suite_move_invariance(2, 7, 0)
        assert calls == [1, 2, 3] * len(population(2, 7, 0))

    def test_cap(self):
        with pytest.raises(ValueError):
            th_realizable(np.zeros((6, 6)), np.zeros((6, 6)))

    @pytest.mark.parametrize(
        "tail,head",
        [
            (np.zeros((2, 3)), np.zeros((2, 3))),  # not square
            (np.zeros((2, 2)), np.zeros((3, 3))),  # sizes differ
            (np.array(0), np.array(0)),  # 0-d
            ([[0, 5], [0, 0]], np.zeros((2, 2))),  # entry outside 0/1
        ],
        ids=["non-square", "unequal", "0-d", "entry-5"],
    )
    def test_malformed_rejected(self, tail, head):
        with pytest.raises(ValueError):
            th_realizable(tail, head)

    def test_fractional_entries_rejected(self):
        # Truncated to int64, [[0, 0.5], [0, 0]] would pass as the zero
        # matrix and realize ABBA|ba.
        with pytest.raises(ValueError, match="integers"):
            th_realizable([[0, 0.5], [0, 0]], np.zeros((2, 2)))

    def test_harvested_matrices_permuted(self):
        th = head_tail_matrices(parse("ABCACB|aaa"))
        perm = [2, 0, 1]
        tail = th.tail[np.ix_(perm, perm)]
        head = th.head[np.ix_(perm, perm)]
        word = th_realizable(tail, head)
        assert word is not None
        back = head_tail_matrices(word)
        assert np.array_equal(back.tail, tail)
        assert np.array_equal(back.head, head)


class TestBasedMatrix:
    def test_empty_word(self):
        m = based_matrix(EMPTY)
        assert m.elements == ("s",)
        assert m.pairing.shape == (1, 1)

    def test_annihilating_letter(self):
        m = based_matrix(parse("AA|a"))
        assert m.b("A", "s") == 0 and m.b("A", "A") == 0

    def test_alpha_7_closed_form(self):
        m = based_matrix(gen_alpha_n(7))
        assert m.elements == ("s", *(f"X.{i}" for i in range(7)))
        assert not m.pairing[0].any()  # all weights zero
        for i in range(7):
            for j in range(7):
                d = (i - j) % 7
                expected = 1 if d in (5, 6) else (-1 if d in (1, 2) else 0)
                assert m.pairing[1 + i, 1 + j] == expected

    def test_border_is_n(self):
        w = parse("ABCACB|aaa")
        m = based_matrix(w)
        nv = n_values(w)
        for x in w.letters:
            assert m.b(x, "s") == nv[x]

    def test_validation(self):
        with pytest.raises(ValueError):
            BasedMatrix(("s", "A"), np.array([[0, 1], [1, 0]]))  # not skew
        with pytest.raises(ValueError):
            BasedMatrix(("A", "s"), np.zeros((2, 2), dtype=int))  # s not first

    def test_fractional_entries_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            BasedMatrix(("s", "A"), [[0, 0.7], [-0.7, 0]])
        # Integral floats are integers.
        assert BasedMatrix(("s", "A"), [[0, 2.0], [-2.0, 0]]).b("s", "A") == 2

    def test_caller_array_left_writable(self):
        a = np.array([[0, 1], [-1, 0]], dtype=np.int64)
        BasedMatrix(("s", "A"), a)
        assert a.flags.writeable

    def test_caller_view_cannot_change_matrix(self):
        base = np.array([[0, 1], [-1, 0]], dtype=np.int64)
        m = BasedMatrix(("s", "A"), base[:])
        base[0, 1] = 5
        assert m.b("s", "A") == 1

    @given(nanowords(max_rank=4))
    @settings(max_examples=40, deadline=None)
    def test_skew(self, w):
        m = based_matrix(w).pairing
        assert np.array_equal(m, -m.T)


class TestReduction:
    def test_single_annihilating_removal(self):
        p, steps = reduce_to_primitive(based_matrix(parse("AA|a")))
        assert p.elements == ("s",)
        assert [s.kind for s in steps] == ["annihilating"]
        assert steps[0].removed == ("A",)

    def test_core_removal(self):
        m = BasedMatrix(("s", "A", "B"), np.array([[0, 0, 1], [0, 0, 1], [-1, -1, 0]]))
        p, steps = reduce_to_primitive(m)
        assert steps == (ReductionStep("core", ("A",)),)
        assert p.elements == ("s", "B")

    def test_complementary_pair_then_annihilating(self):
        m = BasedMatrix(
            ("s", "A", "B", "C"),
            np.array([[0, -1, 1, 0], [1, 0, 1, -1], [-1, -1, 0, 1], [0, 1, -1, 0]]),
        )
        p, steps = reduce_to_primitive(m)
        assert steps == (
            ReductionStep("complementary", ("A", "B")),
            ReductionStep("annihilating", ("C",)),
        )
        assert p.elements == ("s",)

    def test_self_complementary_left_and_logged(self, caplog):
        m = BasedMatrix(("s", "A", "B"), np.array([[0, 0, 2], [0, 0, 1], [-2, -1, 0]]))
        with caplog.at_level(logging.INFO, logger="vstring.invariants"):
            p, steps = reduce_to_primitive(m)
        assert (p, steps) == (m, ())
        assert caplog.messages == [
            "irreducible self-complementary element A left in place"
        ]

    def test_alpha_5_already_primitive(self):
        m = based_matrix(gen_alpha_n(5))
        p, steps = reduce_to_primitive(m)
        assert steps == ()
        assert p == m

    def test_kishino_primitive(self):
        p, _ = reduce_to_primitive(based_matrix(parse("ABABCDCD|aaaa")))
        assert p.size - 1 == 4

    def test_special_element_never_removed(self):
        for w in canonical_population(3):
            p, _ = reduce_to_primitive(based_matrix(w))
            assert p.elements[0] == "s"

    def test_randomized_orders_confluent(self):
        rng = random.Random(11)
        for text in ("ABABCDCD|aaaa", "ABCABC|aba", "ABCACB|aaa"):
            m = based_matrix(parse(text))
            reference, _ = reduce_to_primitive(m)
            for _ in range(25):
                alt, _ = reduce_to_primitive(m, rng=rng)
                assert bm_isomorphic(reference, alt)


class TestRho:
    @pytest.mark.parametrize(
        "word,expected",
        [
            (EMPTY, 0),
            (parse("AA|a"), 0),
            (parse("ABCABC|aba"), 0),
            (parse("ABABCDCD|aaaa"), 4),
            (parse("ABCACB|aaa"), 3),
        ],
    )
    def test_values(self, word, expected):
        assert rho(word) == expected

    @pytest.mark.parametrize("n", [5, 7, 8])
    def test_alpha_family(self, n):
        assert rho(gen_alpha_n(n)) == n


class TestPrimitive:
    def test_second_call_equal_unshared(self):
        w = parse("ABCACB|aaa")
        p, q = primitive_based_matrix(w), primitive_based_matrix(w)
        assert p == q
        assert not np.shares_memory(p.pairing, q.pairing)

    def test_pairing_read_only(self):
        p = primitive_based_matrix(parse("ABABCDCD|aaaa"))
        with pytest.raises(ValueError):
            p.pairing[0, 1] = 5

    def test_u_is_read_off_the_primitive(self):
        # Each reduction step drops a weight 0 or a pair of weights k and
        # -k, so the signed counts of the primitive's border are u.
        words = list(canonical_population(5))
        words += [cable(w, n) for w in canonical_population(2) for n in (2, 3)]
        assert len(words) == 3286
        for w in words:
            counts: dict[int, int] = {}
            for v in primitive_based_matrix(w).pairing[1:, 0].tolist():
                if v:
                    counts[abs(v)] = counts.get(abs(v), 0) + (1 if v > 0 else -1)
            assert UPolynomial.from_dict(counts) == u_polynomial(w), w


class TestBmIsomorphic:
    def test_reversed_order(self):
        m = based_matrix(parse("ABCACB|aaa"))
        perm = [0, 3, 2, 1]
        rearranged = BasedMatrix(
            tuple(m.elements[i] for i in perm), m.pairing[np.ix_(perm, perm)]
        )
        assert bm_isomorphic(m, rearranged)

    def test_size_mismatch(self):
        assert not bm_isomorphic(
            based_matrix(gen_alpha_n(5)), based_matrix(gen_alpha_n(7))
        )

    def test_two_dot_words_not_isomorphic(self):
        pa = primitive_based_matrix(r_dot(parse("ABCBDCAD|aabb"), 2))
        pb = primitive_based_matrix(r_dot(parse("BACDBCDA|aabb"), 2))
        assert pa.size == pb.size  # rho alone cannot tell them apart
        assert not bm_isomorphic(pa, pb)

    def test_sign_flip_detected(self):
        m = based_matrix(parse("ABCACB|aaa"))
        assert not bm_isomorphic(m, BasedMatrix(m.elements, -m.pairing))


KISHINO_MATRIX = np.array(
    [
        [0, -1, 1, -1, 1],
        [1, 0, 1, 0, 0],
        [-1, -1, 0, 0, 0],
        [1, 0, 0, 0, 1],
        [-1, 0, 0, -1, 0],
    ]
)


class TestCompositeBasedMatrix:
    def test_kishino_block_form(self):
        delta = parse("ABAB|aa")
        m = based_matrix(delta)
        combined = composite_based_matrix(m, delta.types(), m, delta.types())
        assert np.array_equal(combined.pairing, KISHINO_MATRIX)
        assert np.array_equal(
            based_matrix(parse("ABABCDCD|aaaa")).pairing, KISHINO_MATRIX
        )

    def test_all_type_a_zero_block(self):
        a, b = parse("ABCACB|aaa"), parse("ABAB|aa")
        combined = composite_based_matrix(
            based_matrix(a), a.types(), based_matrix(b), b.types()
        )
        assert not combined.pairing[1:4, 4:].any()

    def test_trivial_component(self):
        b = parse("ABAB|ab")
        combined = composite_based_matrix(
            based_matrix(EMPTY), {}, based_matrix(b), b.types()
        )
        assert np.array_equal(combined.pairing, based_matrix(b).pairing)

    def test_mixed_types_match_composed_word(self):
        a, b = parse("ABACDBDC|abbb"), parse("ABACBC|abb")
        predicted = composite_based_matrix(
            based_matrix(a), a.types(), based_matrix(b), b.types()
        )
        # The composite's letters sort as (a's letters, fresh letters), which
        # is exactly the block order of the prediction.
        actual = based_matrix(compose(a, b))
        assert np.array_equal(predicted.pairing, actual.pairing)

    def test_missing_type_data(self):
        b = parse("ABAB|ab")
        with pytest.raises(KeyError):
            composite_based_matrix(based_matrix(b), {"A": "a"}, based_matrix(b), b.types())
        with pytest.raises(KeyError, match="'A'"):
            composite_based_matrix(based_matrix(b), b.types(), based_matrix(b), {"B": "b"})


class TestCableReducedBasedMatrix:
    def test_trivial_input(self):
        q = cable_reduced_based_matrix(based_matrix(EMPTY), 3)
        assert q.size == 3  # s plus two join elements
        assert not q.pairing.any()
        p, _ = reduce_to_primitive(q)
        assert p.size == 1

    def test_n_one_identity(self):
        m = primitive_based_matrix(parse("ABCACB|aaa"))
        q = cable_reduced_based_matrix(m, 1)
        assert np.array_equal(q.pairing, m.pairing)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            cable_reduced_based_matrix(based_matrix(EMPTY), 0)

    @pytest.mark.parametrize(
        "text", ["ABAB|aa", "ABCACB|aaa", "ABCABC|aba", "ABABCDCD|aaaa"]
    )
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_cable_word(self, text, n):
        w = parse(text)
        q = cable_reduced_based_matrix(primitive_based_matrix(w), n)
        predicted, _ = reduce_to_primitive(q)
        actual = primitive_based_matrix(cable(w, n))
        assert bm_isomorphic(predicted, actual)


def ref_distinguish(alpha, beta, depth=2, compared=None):
    """The per-r covering loop that distinguish ran before it read the
    covering tables: every r-covering of both words, repeats included.
    The top-level covering pairs it compares are appended to ``compared``."""
    evidence = []
    ua, ub = u_polynomial(alpha), u_polynomial(beta)
    if ua != ub:
        evidence.append(("u-polynomial", str(ua), str(ub)))
    ra, rb = rho(alpha), rho(beta)
    if ra != rb:
        evidence.append(("rho", str(ra), str(rb)))
    elif not evidence:
        pa, pb = primitive_based_matrix(alpha), primitive_based_matrix(beta)
        if not bm_isomorphic(pa, pb):
            rows_a, rows_b = pa.to_json()["rows"], pb.to_json()["rows"]
            evidence.append(("primitive-based-matrix", str(rows_a), str(rows_b)))
    if not evidence and depth > 0:
        for r in [0, *range(2, max(alpha.rank, beta.rank) + 1)]:
            ca, cb = covering(alpha, r), covering(beta, r)
            if ca == alpha and cb == beta:
                continue
            if compared is not None:
                compared.append((ca, cb))
            sub = ref_distinguish(ca, cb, depth - 1)
            if sub.verdict == "distinct":
                name, va, vb = sub.evidence[0]
                evidence.append((f"cover[{r}] {name}", va, vb))
                break
    if evidence:
        return DistinguishReport("distinct", tuple(evidence))
    if shift_canonical_text(alpha) == shift_canonical_text(beta):
        return DistinguishReport("same-word-class")
    return DistinguishReport("unknown")


class TestDistinguish:
    def test_matches_per_r_reference(self, monkeypatch):
        small = canonical_population(2)
        pairs = [(a, b) for a in small for b in small]
        pairs.append((gen_gamma_pq(2, 2), gen_gamma_pq(3, 3)))
        pairs += [(gen_alpha_n(n), EMPTY) for n in (5, 6)]
        pairs.append((parse("ABABCDCD|aaaa"), EMPTY))
        # Equal u, rho and primitive matrix, with a 3-covering of the longer
        # word compared against the 0-covering of the shorter.
        for text in ("ABCADBCD|aabb", "ABCDABCD|aaaa"):
            pairs += [(parse(text), parse("ABAB|aa")), (parse("ABAB|aa"), parse(text))]
        # Record the recursive calls, to see which covering pairs are compared.
        calls = []

        def recording(a, b, depth=2):
            calls.append((a, b, depth))
            return distinguish(a, b, depth)

        monkeypatch.setattr(invariants_module, "distinguish", recording)
        for a, b in pairs:
            compared, calls[:] = [], []
            report = distinguish(a, b)
            assert report == ref_distinguish(a, b, compared=compared), (a.text(), b.text())
            # Each pair the per-r loop compared, once, in the same order.
            assert [(x, y) for x, y, depth in calls if depth == 1] == list(dict.fromkeys(compared))

    def test_kishino_vs_trivial(self):
        report = distinguish(EMPTY, parse("ABABCDCD|aaaa"))
        assert report.verdict == "distinct"
        assert report.evidence

    def test_gamma_pp_family(self):
        report = distinguish(gen_gamma_pq(2, 2), gen_gamma_pq(3, 3))
        assert report.verdict == "distinct"

    def test_shift_never_distinct(self):
        for w in [parse("ABCACB|aaa"), gen_alpha_n(5), parse("ABAB|ab")]:
            report = distinguish(w, shift(w))
            assert report.verdict in ("same-word-class", "unknown")

    def test_same_word_class(self):
        assert distinguish(parse("ABAB|aa"), parse("ABAB|aa")).verdict == "same-word-class"
        assert distinguish(parse("ABAB|aa"), shift(parse("ABAB|aa"))).verdict == "same-word-class"

    def test_covers_separate(self):
        # Same u, rho and primitive matrix can still differ under coverings;
        # build such a pair from the weight-zero family vs the trivial word.
        a = gen_alpha_n(5)
        report = distinguish(a, EMPTY)
        assert report.verdict == "distinct"

    def test_evidence_values_differ(self):
        report = distinguish(EMPTY, parse("ABABCDCD|aaaa"))
        for _, va, vb in report.evidence:
            assert va != vb


class TestBundle:
    def test_json_shape(self):
        bundle = invariant_bundle(parse("ABCACB|aaa"))
        assert bundle["word"] == "ABCACB|aaa"
        assert bundle["rank"] == 3
        assert bundle["n_values"] == {"A": 2, "B": -1, "C": -1}
        assert bundle["u_polynomial"] == [[1, -2], [2, 1]]
        assert bundle["based_matrix"]["order"][0] == "s"
        assert bundle["rho"] == 3
