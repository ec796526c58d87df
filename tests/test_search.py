from dataclasses import fields, replace
from functools import partialmethod
from pathlib import Path

import pytest

from vstring.cli import main
from vstring.core import (
    EMPTY,
    MoveKind,
    MoveSite,
    Nanoword,
    _arrow_key,
    apply_move,
    canonical_relabel,
    find_sites,
    invert_steps,
    parse,
    shift,
    shift_canonical,
    shift_canonical_text,
    shift_orbit,
    shifts_to_canonical,
)
from vstring.enumeration import (
    all_nanowords,
    canonical_population,
    sample_nanowords,
    standard_gauss_words,
)
from vstring.invariants import primitive_based_matrix, rho, u_polynomial, bm_isomorphic
from vstring.ops import gen_alpha_n, gen_gamma_pq
from vstring.search import (
    DEFAULT_BUDGET,
    ORACLE_BUDGET,
    SearchBudget,
    _Frontier,
    _join_traces,
    covering_graph,
    equivalent_bounded,
    oracle_class,
    reduce_bounded,
)
from vstring.tabulate import record_for, record_to_json, tabulation_records

from test_search_reference import ref_successors

ROOT = Path(__file__).resolve().parent.parent


def record_states(monkeypatch):
    """The states held by all frontiers at each call of ``_Frontier._successors``."""
    successors = _Frontier._successors
    frontiers = []
    totals = []

    def recorded(self, word):
        if self not in frontiers:
            frontiers.append(self)
        totals.append(sum(len(f.nodes) for f in frontiers))
        return successors(self, word)

    monkeypatch.setattr(_Frontier, "_successors", recorded)
    return totals


def record_yielded(monkeypatch):
    """Per frontier, the first word ``_successors`` yields for each key it lacks.

    That is the word the frontier stores the key for, unless the state cap
    stops the expansion there, and then the frontier stores no more keys.
    """
    successors = _Frontier._successors
    yielded = {}

    def recorded(self, word):
        first = yielded.setdefault(self, {})
        for steps, result in successors(self, word):
            key = _arrow_key(result)
            if key not in self.nodes:
                first.setdefault(key, result)
            yield steps, result

    monkeypatch.setattr(_Frontier, "_successors", recorded)
    return yielded


class TestEnumeration:
    def test_standard_word_counts(self):
        # (2n-1)!! double-occurrence sequences
        assert sum(1 for _ in standard_gauss_words(0)) == 1
        assert sum(1 for _ in standard_gauss_words(1)) == 1
        assert sum(1 for _ in standard_gauss_words(2)) == 3
        assert sum(1 for _ in standard_gauss_words(3)) == 15
        assert sum(1 for _ in standard_gauss_words(4)) == 105

    def test_all_nanowords_counts(self):
        assert sum(1 for _ in all_nanowords(2)) == 12

    def test_population_is_canonical_and_sorted(self):
        pop = canonical_population(2)
        texts = [w.text() for w in pop]
        assert texts == sorted(texts)
        assert all(shift_canonical(w).text() == w.text() for w in pop)

    def test_sample_deterministic(self):
        a = [w.text() for w in sample_nanowords((4, 5), 30, seed=5)]
        b = [w.text() for w in sample_nanowords((4, 5), 30, seed=5)]
        assert a == b
        assert len(a) == 30


class TestSearchBudget:
    def test_parse(self):
        assert SearchBudget.parse("1,100,8") == SearchBudget(1, 100, 8)
        assert SearchBudget.parse("1, 100, 8") == SearchBudget(1, 100, 8)
        with pytest.raises(ValueError):
            SearchBudget.parse("1,2")
        with pytest.raises(ValueError):
            SearchBudget(-1, 0, 0)

    def test_rank_cap_admits_one_more(self):
        # A letter-adding move is tried from every state below the cap, so an
        # H2 insertion from rank cap - 1 stores a state of rank cap + 1.
        frontier = _Frontier(parse("ABAB|ab"), SearchBudget(1, 2000, 32))
        while frontier.expand_one(0) is not None:
            pass
        ranks = [node.rank for node in frontier.nodes.values()]
        assert frontier.rank_cap == 3
        assert max(ranks) == frontier.rank_cap + 1


class TestWordFreeNodes:
    """A node holds no word; replaying its trace gives the word the search reached."""

    def test_replayed_word_is_the_yielded_word(self, monkeypatch):
        yielded = record_yielded(monkeypatch)
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        from workloads import search_queries

        assert [main(args) for _, args, _ in search_queries(11)] == [0] * 9
        for word in canonical_population(2):
            reduce_bounded(word, SearchBudget(1, 200, 16))
        stored = 0
        for frontier, first in yielded.items():
            for key, node in frontier.nodes.items():
                replayed = frontier.trace(key).end()
                if node.parent is None:
                    assert replayed is frontier.start
                    continue
                word = first[key]
                assert replayed.word == word.word and replayed.types() == word.types()
                assert node.rank == word.rank
                stored += 1
        assert stored > 1000

    def test_nodes_hold_no_word(self, monkeypatch):
        yielded = record_yielded(monkeypatch)
        assert main(["reduce", "ABCBDCAD|aabb", "--budget", "2,1000,64"]) == 0
        (frontier,) = yielded
        assert len(frontier.nodes) > 1
        for node in frontier.nodes.values():
            for field in fields(node):
                assert not isinstance(getattr(node, field.name), Nanoword), field.name


class TestReduceBounded:
    @pytest.mark.parametrize(
        "word",
        [gen_gamma_pq(1, 1), gen_alpha_n(3), gen_alpha_n(4)],
        ids=["gamma11", "alpha3", "alpha4"],
    )
    def test_trivial_words_reach_zero(self, word):
        reduced, trace = reduce_bounded(word)
        assert reduced.rank == 0
        assert trace.start == word
        assert trace.end() == reduced

    def test_trefoil_regression(self):
        # The doubled-occurrence trefoil word is homotopically trivial.
        reduced, trace = reduce_bounded(parse("ABCABC|aba"))
        assert reduced.rank == 0
        assert len(trace.steps) == 2

    def test_irreducible_word_stays(self):
        reduced, _ = reduce_bounded(parse("ABCACB|aaa"), SearchBudget(1, 3000, 16))
        assert reduced.rank == 3  # rho = 3 forbids any reduction

    def test_budget_growth_monotone(self):
        word = gen_alpha_n(4)
        ranks = []
        for states in (10, 200, 20000):
            reduced, _ = reduce_bounded(word, SearchBudget(2, states, 64))
            ranks.append(reduced.rank)
        assert ranks == sorted(ranks, reverse=True)

    def test_zero_budget_returns_start(self):
        word = parse("ABAB|ab")
        reduced, trace = reduce_bounded(word, SearchBudget(0, 1, 0))
        assert reduced == word
        assert trace.steps == ()

    def test_empty_word_stops_after_one_expansion(self, monkeypatch):
        totals = record_states(monkeypatch)
        reduced, trace = reduce_bounded(EMPTY)
        assert reduced is EMPTY
        assert trace.steps == ()
        assert totals == [1]

    def test_stops_at_state_cap(self, monkeypatch):
        # The cap is reached after a few expansions; no state is expanded
        # once nothing more can be added.
        totals = record_states(monkeypatch)
        reduced, _ = reduce_bounded(parse("ABCBDCAD|aabb"), SearchBudget(2, 1000, 64))
        assert reduced.text() == "ABCBDCAD|aabb"
        assert max(totals) < 1000

    def test_reduced_to_zero_has_trivial_invariants(self):
        for word in [gen_gamma_pq(1, 1), gen_alpha_n(3), parse("ABCABC|aba")]:
            reduced, _ = reduce_bounded(word)
            if reduced.rank == 0:
                assert not u_polynomial(word)
                assert rho(word) == 0
                assert bm_isomorphic(
                    primitive_based_matrix(word), primitive_based_matrix(EMPTY)
                )


class TestEquivalentBounded:
    def test_h3b_pair_homotopic(self):
        res = equivalent_bounded(parse("ABCBDCAD|aabb"), parse("BACDBCDA|aabb"))
        assert res.verdict == "homotopic"
        end = res.trace.end()
        assert canonical_relabel(end) == canonical_relabel(parse("BACDBCDA|aabb"))

    def test_kishino_distinct(self):
        res = equivalent_bounded(EMPTY, parse("ABABCDCD|aaaa"))
        assert res.verdict == "distinct"
        assert res.report is not None and res.report.verdict == "distinct"
        assert res.trace is None

    def test_reflexive(self):
        w = parse("ABCACB|aaa")
        res = equivalent_bounded(w, w)
        assert res.verdict == "homotopic"
        assert res.trace.steps == ()

    def test_shift_related(self):
        w = parse("ABCACB|aaa")
        res = equivalent_bounded(w, shift(w))
        assert res.verdict == "homotopic"
        assert canonical_relabel(res.trace.end()) == canonical_relabel(shift(w))

    def test_unknown_under_tiny_budget(self):
        # Distinct-by-search-only pair under a budget too small to connect.
        res = equivalent_bounded(
            gen_alpha_n(6), EMPTY, SearchBudget(0, 4, 2)
        )
        assert res.verdict == "unknown"

    def test_stops_at_state_cap(self, monkeypatch):
        # Both frontiers count the states they hold together, so both stop
        # expanding once the pair has reached the cap.
        totals = record_states(monkeypatch)
        res = equivalent_bounded(gen_alpha_n(6), EMPTY, SearchBudget(2, 200, 64))
        assert res.verdict == "unknown"
        assert max(totals) < 200

    def test_never_both_verdicts(self):
        # A verified trace and an invariant separation cannot coexist: replay
        # the trace and re-check invariants agree at both ends.
        res = equivalent_bounded(parse("ABCBDCAD|aabb"), parse("BACDBCDA|aabb"))
        assert res.verdict == "homotopic"
        start, end = res.trace.start, res.trace.end()
        assert u_polynomial(start) == u_polynomial(end)
        assert rho(start) == rho(end)


SHIFTS = {MoveKind.SHIFT, MoveKind.SHIFT_INV}


def ref_join_steps(fa, fb, key):
    """The join's steps as the search built them before the net-shift rule.

    Both paths get the forward shifts to the canonical position, the second
    is inverted together with its shifts, and adjacent shift/inverse-shift
    pairs are then cancelled wherever they stand.
    """
    shift_site = MoveSite(MoveKind.SHIFT)
    full_a = list(fa.trace(key).steps) + [shift_site] * shifts_to_canonical(fa.trace(key).end())
    full_b = list(fb.trace(key).steps) + [shift_site] * shifts_to_canonical(fb.trace(key).end())
    back = [replace(site, letters=()) for site in invert_steps(fb.start, full_b)]
    out = []
    for site in full_a + back:
        if out and {out[-1].kind, site.kind} == SHIFTS:
            out.pop()
        else:
            out.append(site)
    return out


class TestJoinTraces:
    """``_join_traces`` writes the junction as one net shift, which gives the
    same steps as the old rule of appending both sides' shifts and cancelling."""

    def check_joins(self, monkeypatch, pairs, budget=DEFAULT_BUDGET):
        nets = []

        def checked(fa, fb, key, end_a):
            assert end_a == fa.trace(key).end()
            trace = _join_traces(fa, fb, key, end_a)
            steps = list(trace.steps)
            assert steps == ref_join_steps(fa, fb, key), (fa.start.text(), fb.start.text())
            for before, after in zip(steps, steps[1:]):
                assert {before.kind, after.kind} != SHIFTS, (fa.start.text(), fb.start.text())
            nets.append(
                shifts_to_canonical(fa.trace(key).end())
                - shifts_to_canonical(fb.trace(key).end())
            )
            return trace

        monkeypatch.setattr("vstring.search._join_traces", checked)
        for alpha, beta in pairs:
            assert equivalent_bounded(alpha, beta, budget).verdict == "homotopic"
        assert len(nets) == len(pairs)
        return nets  # ka - kb of each join

    def test_join_at_least_printed_shared_state(self, monkeypatch):
        # One expansion can make several states shared; the join takes the
        # one whose printed canonical text is least.
        shared_counts = []

        def checked(fa, fb, key, end_a):
            shared = [k for k in fa.nodes if k in fb.nodes]
            shared_counts.append(len(shared))
            assert key == min(shared, key=lambda k: shift_canonical_text(fa.trace(k).end()))
            return _join_traces(fa, fb, key, end_a)

        monkeypatch.setattr("vstring.search._join_traces", checked)
        for word in ("AABCCB|aaa", "AABCCB|aab", "AABCCB|bab"):
            res = equivalent_bounded(EMPTY, parse(word), SearchBudget(1, 500, 16))
            assert res.verdict == "homotopic"
        assert min(shared_counts) > 1

    def test_population_rank_3_against_shift_orbit(self, monkeypatch):
        pairs = [(w, v) for w in canonical_population(3) for v in shift_orbit(w)]
        # Each pair meets at once, at the state of the canonical first word,
        # so each join is the second word's shifts to canonical, inverted.
        assert min(self.check_joins(monkeypatch, pairs)) < 0

    def test_population_rank_2_pairs(self, monkeypatch):
        pop = canonical_population(2)
        pairs = [(a, b) for a in pop for b in pop if a != b]
        rotated = [(a, v) for a, b in pairs for v in (b, shift(b), shift(shift(b)))]
        nets = self.check_joins(monkeypatch, rotated, SearchBudget(1, 2000, 32))
        assert min(nets) < 0 < max(nets)


#: The underived homotopy moves; shift moves are implicit in state expansion.
UNDERIVED = (
    MoveKind.H1_DOWN,
    MoveKind.H2_DOWN,
    MoveKind.H3,
    MoveKind.H1_UP,
    MoveKind.H2_UP,
)


class TestDerivedMoveSoundness:
    """The derived moves are consequences of shift/H1/H2/H3.

    For sampled sites of each derived kind, the two sides must be connected
    by the underived move set within a bounded search.  The search runs with
    its successors replaced by the whole-orbit loop over the underived kinds:
    without the derived kinds a site that straddles the base point can flip
    to a kind outside the move set, so every rotation must be walked.
    """

    BUDGET = SearchBudget(2, 60_000, 48)
    TRACE_KINDS = set(UNDERIVED) | {MoveKind.SHIFT, MoveKind.SHIFT_INV}

    @pytest.fixture(autouse=True)
    def underived_search(self, monkeypatch):
        underived = partialmethod(ref_successors, kinds=UNDERIVED)
        monkeypatch.setattr(_Frontier, "_successors", underived)

    def _check_kind(self, kind, words, limit):
        checked = 0
        for word in words:
            for site in find_sites(word, kind, max_sites=2):
                other = apply_move(word, site)
                res = equivalent_bounded(word, other, self.BUDGET)
                assert res.verdict == "homotopic", (word.text(), str(site))
                kinds = {step.kind for step in res.trace.steps}
                assert kinds <= self.TRACE_KINDS, (word.text(), str(site), kinds)
                checked += 1
                if checked >= limit:
                    return checked
        return checked

    def test_h2a_sound(self):
        words = [w for w in canonical_population(3) if w.rank >= 2]
        assert self._check_kind(MoveKind.H2A_DOWN, words, limit=4) > 0

    @pytest.mark.parametrize("kind", [MoveKind.H3A, MoveKind.H3B, MoveKind.H3C])
    def test_h3_variants_sound(self, kind):
        words = list(canonical_population(3)) + sample_nanowords((4, 5), 60, seed=13)
        assert self._check_kind(kind, words, limit=3) > 0


class TestCoveringGraph:
    def test_single_trivial_node(self):
        g = covering_graph([EMPTY], 2)
        assert g.edges == {"0": "0"}

    def test_fixed_point_self_loop(self):
        g22 = gen_gamma_pq(2, 2)
        g = covering_graph([g22], 2)
        key = shift_canonical(g22).text()
        assert g.edges[key] == key

    @pytest.mark.parametrize("oracle", [False, True])
    def test_rank3_population_shape(self, oracle):
        g = covering_graph(canonical_population(3), 2, oracle=oracle)
        comps = g.components()
        assert comps
        for comp in comps:
            assert g.component_is_tree_with_root_loop(comp)

    def test_dot_output(self):
        g = covering_graph(canonical_population(1), 2)
        dot = g.to_dot()
        assert dot.startswith("digraph covering {")
        assert '[label="r=2"]' in dot
        assert dot.rstrip().endswith("}")

    def test_oracle_merges_homotopic_nodes(self):
        words = [parse("ABAB|aa"), EMPTY]
        plain = covering_graph(words, 2)
        merged = covering_graph(words, 2, oracle=True)
        assert len(plain.nodes) == 2
        assert set(merged.nodes) == {"0"}
        assert merged.edges == {"0": "0"}
        for comp in merged.components():
            assert merged.component_is_tree_with_root_loop(comp)


def ref_oracle_words(max_rank):
    """The words the tabulation kept before ``oracle_class`` named them.

    Each class, keyed by its bounded reduction, keeps its first word of the
    population, which is sorted by text.
    """
    by_reduced = {}
    for w in canonical_population(max_rank):
        by_reduced.setdefault(shift_canonical_text(reduce_bounded(w, ORACLE_BUDGET)[0]), w)
    return list(by_reduced.values())


class TestOracleClass:
    @pytest.mark.parametrize("max_rank", [0, 1, 2, 3])
    def test_tabulation_matches_old_merge(self, max_rank):
        new = [record_to_json(r) for r in tabulation_records(max_rank, oracle=True)]
        assert new == [record_to_json(record_for(w)) for w in ref_oracle_words(max_rank)]

    def test_tabulation_and_graph_name_the_same_classes(self):
        records = tabulation_records(3, oracle=True)
        graph = covering_graph(canonical_population(3), 2, oracle=True)
        assert {r["canonical"] for r in records} == set(graph.nodes)

    @pytest.mark.parametrize(
        "word,name",
        [("AABCBDCD|aaab", "ABACBC|aab"), ("AABCBDCD|aabb", "ABACBC|abb")],
    )
    def test_rank_4_words_named_by_their_reduction(self, word, name):
        # The least population word of each of these classes is of rank 4,
        # but the class is named by its reduction, of rank 3.
        assert oracle_class(parse(word)).text() == name
