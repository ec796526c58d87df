"""Acceptance criteria, one test (and one printed pass/fail line) each.

All comparisons are exact: the objects under test are integer-valued
combinatorial data, so no tolerances apply.  The whole module is budgeted to
run well under five minutes on a laptop.
"""

import math
import random

import numpy as np
import pytest

from vstring.core import (
    EMPTY,
    canonical_relabel,
    isomorphic,
    parse,
)
from vstring.enumeration import canonical_population
from vstring.invariants import (
    based_matrix,
    bm_isomorphic,
    distinguish,
    head_tail_matrices,
    primitive_based_matrix,
    reduce_to_primitive,
    rho,
    th_realizable,
    u_polynomial,
)
from vstring.ops import (
    cable,
    compose,
    cover_stats,
    covering,
    gen_alpha_n,
    gen_gamma_pq,
    r_dot,
)
from vstring.search import SearchBudget, covering_graph, equivalent_bounded, reduce_bounded
from vstring.suites import SUITES


def report(name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


class TestCriterion1WorkedExamples:
    def test_c1_worked_example_fidelity(self):
        ok = True

        # Round trip of the doubled-occurrence trefoil word.
        w = parse("ABCABC|aba")
        ok &= parse(w.text()) == w and w.text() == "ABCABC|aba"

        # Composition example, exact output.
        ok &= (
            compose(parse("ABACDBDC|abbb"), parse("ABACBC|abb")).text()
            == "ABACDBDCEFEGFG|abbbabb"
        )

        # Tail/head matrices of ABCBCA|bab.
        th = head_tail_matrices(parse("ABCBCA|bab"))
        ok &= bool(np.array_equal(th.tail, [[0, 0, 0], [0, 0, 0], [1, 1, 0]]))
        ok &= bool(np.array_equal(th.head, [[0, 0, 0], [0, 0, 1], [1, 0, 0]]))

        # Covering example.
        ok &= covering(parse("ABCACB|aaa"), 2).text() == "AA|a"

        # Five-crossing covering example.
        cov = covering(parse("ABCDBEDEAC|baaaa"), 2)
        ok &= isomorphic(cov, parse("BCDBDC|aaa"))

        # Nested duplication example, letter for letter.
        expected = parse(
            "A.1 A.2 B.1 B.2 A.2 A.1 C.1 C.2 B.2 B.1 C.2 C.1 | "
            "A.1=a A.2=a B.1=a B.2=a C.1=b C.2=b"
        )
        ok &= r_dot(parse("ABACBC|aab"), 2) == expected

        # 2-cable example, letter for letter including the type set.
        c = cable(parse("X Y X Z Y Z | X=a Y=b Z=b"), 2)
        w0 = "X.0.0 X.0.1 Y.0.0 Y.1.0 X.1.0 X.0.0 Z.0.0 Z.1.0 Y.1.0 Y.1.1 Z.1.0 Z.1.1"
        w1 = "X.1.0 X.1.1 Y.0.1 Y.1.1 X.1.1 X.0.1 Z.0.1 Z.1.1 Y.0.0 Y.0.1 Z.0.0 Z.0.1"
        ok &= c.word == tuple((w0 + " C.0 " + w1 + " C.0").split())
        type_a = {"X.0.0", "X.0.1", "X.1.1", "Y.1.1", "Z.1.1", "C.0"}
        ok &= {x for x in c.letters if c.type_of(x) == "a"} == type_a

        report("criterion-1 worked-example fidelity (exact)", bool(ok))


class TestCriterion2InvariantValues:
    def test_c2_invariant_values(self):
        ok = True
        for p in range(1, 5):
            for q in range(1, 5):
                expected = {}
                expected[q] = expected.get(q, 0) + p
                expected[p] = expected.get(p, 0) - q
                expected = {k: v for k, v in expected.items() if v}
                ok &= u_polynomial(gen_gamma_pq(p, q)).as_dict() == expected

        ok &= u_polynomial(parse("ABCACB|aaa")).as_dict() == {2: 1, 1: -2}
        ok &= u_polynomial(cable(parse("ABCACB|aaa"), 2)).as_dict() == {4: 4, 2: -8}

        for n in (5, 7, 8):
            ok &= rho(gen_alpha_n(n)) == n

        m = based_matrix(gen_alpha_n(7))
        ok &= m.elements == ("s", *(f"X.{i}" for i in range(7)))
        for i in range(7):
            ok &= m.b(f"X.{i}", "s") == 0
            for j in range(7):
                d = (i - j) % 7
                expected = 1 if d in (5, 6) else (-1 if d in (1, 2) else 0)
                ok &= m.b(f"X.{i}", f"X.{j}") == expected

        report("criterion-2 invariant values (exact)", bool(ok))


#: Instances of each suite at these settings, which are also the defaults of
#: ``vstring verify all --seed 7``.
C3_INSTANCES = {
    "composite-bm": 80,
    "cover-cable-commute": 2508,
    "move-invariance": 7299,
    "reduction-confluence": 3400,
    "rho-bounds": 529,
    "structural": 2640,
    "u-cable": 456,
}


class TestCriterion3TheoremSuites:
    """Exhaustive rank <= 3 population plus a 200-word fixed-seed sample."""

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_c3_suite(self, name):
        suite_report = SUITES[name](max_rank=3, seed=7, sample=200)
        report(
            f"criterion-3 suite {name}: "
            f"{suite_report.passed}/{suite_report.total} instances",
            suite_report.failed == 0,
        )
        count = C3_INSTANCES[name]
        assert suite_report.summary() == f"{name}: {count}/{count} instances pass [ok]"
        assert sorted(C3_INSTANCES) == sorted(SUITES)


class TestCriterion4Nontriviality:
    def test_c4_nontriviality_reproductions(self):
        ok = True

        ok &= distinguish(EMPTY, parse("ABABCDCD|aaaa")).verdict == "distinct"
        ok &= distinguish(gen_gamma_pq(2, 2), gen_gamma_pq(3, 3)).verdict == "distinct"

        for word in (gen_gamma_pq(1, 1), gen_alpha_n(3), gen_alpha_n(4), gen_alpha_n(6)):
            result = equivalent_bounded(word, EMPTY)
            ok &= result.verdict == "homotopic"
            ok &= canonical_relabel(result.trace.end()) == EMPTY
            ok &= result.trace.start == word

        doubled_a = r_dot(parse("ABCBDCAD|aabb"), 2)
        doubled_b = r_dot(parse("BACDBCDA|aabb"), 2)
        ok &= not bm_isomorphic(
            primitive_based_matrix(doubled_a), primitive_based_matrix(doubled_b)
        )
        verdict = distinguish(doubled_a, doubled_b)
        ok &= verdict.verdict == "distinct"
        ok &= any("based-matrix" in name for name, _, _ in verdict.evidence)

        report("criterion-4 nontriviality reproductions", bool(ok))


class TestCriterion5OracleStructure:
    def test_c5_reduction_confluence_50_orders(self):
        rng = random.Random(2)
        ok = True
        words = canonical_population(3) + [
            parse("ABABCDCD|aaaa"),
            gen_alpha_n(5),
            gen_gamma_pq(2, 3),
        ]
        for word in words:
            m = based_matrix(word)
            reference, _ = reduce_to_primitive(m)
            for _ in range(50):
                alt, _ = reduce_to_primitive(m, rng=rng)
                ok &= bm_isomorphic(reference, alt)
        report("criterion-5a reduction confluence (50 random orders/word)", bool(ok))

    def test_c5_covering_graph_shape(self):
        graph = covering_graph(canonical_population(3), 2)
        ok = all(
            graph.component_is_tree_with_root_loop(c) for c in graph.components()
        )
        report("criterion-5b covering graph: tree with one self-loop per component", ok)

    def test_c5_th_realizability(self):
        ok = True
        unreal_t = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        unreal_h = np.array([[0, 1, 0], [0, 0, 0], [0, 1, 0]])
        ok &= th_realizable(unreal_t, unreal_h) is None

        for text in ("ABCBCA|bab", "ABCACB|aaa", "ABAB|ab"):
            th = head_tail_matrices(parse(text))
            found = th_realizable(th.tail, th.head)
            ok &= found is not None
            back = head_tail_matrices(found)
            ok &= bool(np.array_equal(back.tail, th.tail))
            ok &= bool(np.array_equal(back.head, th.head))

        report("criterion-5c tail/head realizability checks", bool(ok))


class TestCriterion6BoundedSurrogates:
    def test_c6_bounded_surrogates_in_place(self):
        # Exact homotopy rank, m, height and base are not decidable with
        # this toolkit; the bounded surrogates stand in for them.
        ok = True

        # Word-level covering bounds exist and are refinable by the oracle.
        stats = cover_stats(parse("ABCACB|aaa"), 2, SearchBudget(2, 20_000, 32))
        ok &= stats.m_upper == 3 and stats.height_upper == 1
        ok &= stats.base_word == EMPTY

        # Rank from the bounded reduction is an upper bound witness that is
        # monotone as the state budget grows.
        ranks = []
        for states in (10, 1000, 50_000):
            reduced, trace = reduce_bounded(gen_alpha_n(4), SearchBudget(2, states, 64))
            ok &= trace.end() == reduced
            ranks.append(reduced.rank)
        ok &= ranks == sorted(ranks, reverse=True)

        report("criterion-6 bounded surrogates for hr/m/height/base", bool(ok))
