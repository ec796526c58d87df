import pytest

from vstring.core import (
    EMPTY,
    RANK_INCREASING,
    MoveKind,
    MoveSite,
    apply_move,
    canonical_relabel,
    find_sites,
    parse,
    shift,
    shift_canonical,
    shift_orbit,
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
    SearchBudget,
    _Frontier,
    covering_graph,
    equivalent_bounded,
    reduce_bounded,
)


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
        ranks = [node.word.rank for node in frontier.nodes.values()]
        assert frontier.rank_cap == 3
        assert max(ranks) == frontier.rank_cap + 1


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


#: The underived homotopy moves; shift moves are implicit in state expansion.
UNDERIVED = (
    MoveKind.H1_DOWN,
    MoveKind.H2_DOWN,
    MoveKind.H3,
    MoveKind.H1_UP,
    MoveKind.H2_UP,
)


def whole_orbit_successors(self, word):
    """Every underived site of every rotation of ``word``, with its result.

    Without the derived kinds a site that straddles the base point can flip
    to a kind outside the move set, so every rotation must be walked.
    """
    shift_site = MoveSite(MoveKind.SHIFT)
    for j, rotated in enumerate(shift_orbit(word)):
        prefix = (shift_site,) * j
        for kind in UNDERIVED:
            if kind in RANK_INCREASING and word.rank + 1 > self.rank_cap:
                continue
            for site in find_sites(rotated, kind):
                yield prefix + (site,), apply_move(rotated, site)


class TestDerivedMoveSoundness:
    """The derived moves are consequences of shift/H1/H2/H3.

    For sampled sites of each derived kind, the two sides must be connected
    by the underived move set within a bounded search.  The search runs with
    its successors replaced by the whole-orbit loop over the underived kinds.
    """

    BUDGET = SearchBudget(2, 60_000, 48)
    TRACE_KINDS = set(UNDERIVED) | {MoveKind.SHIFT, MoveKind.SHIFT_INV}

    @pytest.fixture(autouse=True)
    def underived_search(self, monkeypatch):
        monkeypatch.setattr(_Frontier, "_successors", whole_orbit_successors)

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

    def test_rank3_population_shape(self):
        g = covering_graph(canonical_population(3), 2)
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
        merged = covering_graph(words, 2, oracle=SearchBudget(2, 5000, 16))
        assert len(plain.nodes) == 2
        assert set(merged.nodes) == {"0"}
        assert merged.edges == {"0": "0"}
        for comp in merged.components():
            assert merged.component_is_tree_with_root_loop(comp)
