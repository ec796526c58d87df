"""Bounded homotopy search over nanowords.

States are shift-orbit canonical forms, which quotients out the base-point
symmetry; transitions apply one H-move to any shift of the state.  Rank-
preserving and rank-decreasing moves are always available.  The rank cap is
the start's rank plus ``max_rank_increase``, and a letter-adding move is
tried only from a state below the cap; an H2 insertion adds two letters, so
a state may reach cap + 1, and the rank-preserving moves spread at that
rank.  Every result carries a replayable move trace, so a "homotopic"
answer is a checkable certificate, and "distinct" answers delegate to the
invariant comparison, so the two can never both hold.

A state's successors come from two rotations of its word w, not from the
whole shift orbit.  Say w has length n.  A site of rotation j is a set of
letter pairs or insertion slots at cyclic places of w.  Unless one of its
pairs straddles the base point of w, the same places form a site of w,
whose result is the rotation-j result shifted back j times, so both reach
the same state.  Letters carried past the base point change type on the
way, which can change the kind of the site; the derived kinds H2a and
H3a/b/c, which the search always uses, absorb that flip.  The one pair of
places that is not adjacent in w is (n-1, 0), across its base point.
Rotation 1 makes it adjacent, as its last pair (n-2, n-1), and a site of a
later rotation that uses it is a site of rotation 1 as well.  So the search
applies every site of w and, from ``shift(w)``, only the letter-removing
and H3-family sites whose last pair is (n-2, n-1).

Homotopy of virtual strings is only semi-decidable with these tools: search
yields upper-bound witnesses (a low-rank representative, an equivalence
trace) or "unknown", never a proof of inequivalence by itself.

The module also holds every result that a search refines: the covering
statistics of a word (``cover_stats``: the height, base and fixedness of
its r-covering chain) and the covering-map graph (``covering_graph``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping

from .core import (
    EMPTY,
    MoveKind,
    MoveSite,
    MoveTrace,
    Nanoword,
    RANK_DECREASING,
    RANK_INCREASING,
    RANK_PRESERVING,
    apply_move,
    find_sites,
    invert_steps,
    isomorphic,
    shift,
    shift_canonical,
    shift_canonical_text,
    shifts_to_canonical,
)
from .invariants import DistinguishReport, distinguish
from .ops import covering, coverings

__all__ = [
    "SearchBudget",
    "DEFAULT_BUDGET",
    "EquivalenceResult",
    "reduce_bounded",
    "equivalent_bounded",
    "CoverStats",
    "cover_stats",
    "CoveringGraph",
    "covering_graph",
]

#: Search step kinds, letter-removing first so reductions are found early.
ALL_MOVES: tuple[MoveKind, ...] = RANK_DECREASING + RANK_PRESERVING + RANK_INCREASING


@dataclass(frozen=True)
class SearchBudget:
    """Caps for the bounded searches; exhausting them is not an error.

    A letter-adding move is tried only from a state whose rank is below the
    start's rank plus ``max_rank_increase``, so a state may reach one more
    than that (an H2 insertion adds two letters).
    """

    max_rank_increase: int = 2
    max_states: int = 200_000
    max_depth: int = 64

    def __post_init__(self) -> None:
        if min(self.max_rank_increase, self.max_states, self.max_depth) < 0:
            raise ValueError("budget components must be nonnegative")

    @classmethod
    def parse(cls, text: str) -> "SearchBudget":
        """Parse "increase,states,depth", the form of the ``--budget`` option."""
        parts = [int(p) for p in text.split(",")]
        if len(parts) != 3:
            raise ValueError(f"expected 3 comma-separated integers, got {text!r}")
        return cls(*parts)


DEFAULT_BUDGET = SearchBudget()


@dataclass
class _Node:
    word: Nanoword          # concrete word reached (trace target)
    parent: str | None      # key of the parent state
    steps: tuple[MoveSite, ...]  # sites leading from the parent's word here


class _Frontier:
    """Best-first expansion over shift-orbit canonical states.

    Heap entries are (rank, depth, insertion index, key); the insertion index
    breaks ties in the order states were reached.
    """

    def __init__(self, start: Nanoword, budget: SearchBudget):
        self.budget = budget
        self.rank_cap = start.rank + budget.max_rank_increase
        key = shift_canonical_text(start)
        self.nodes: dict[str, _Node] = {key: _Node(start, None, ())}
        self.heap: list[tuple[int, int, int, str]] = [(start.rank, 0, 0, key)]

    def expand_one(self, shared_states: int) -> list[str] | None:
        """Pop one state and insert its successors; returns the new keys.

        Returns None, and pops nothing, when no state is left to expand or
        no room is left for a new one.
        """
        if not self.heap or len(self.nodes) + shared_states >= self.budget.max_states:
            return None
        _, depth, _, key = heapq.heappop(self.heap)
        if depth >= self.budget.max_depth:
            return []
        new_keys: list[str] = []
        for steps, word in self._successors(self.nodes[key].word):
            if len(self.nodes) + shared_states >= self.budget.max_states:
                break
            nkey = shift_canonical_text(word)
            if nkey in self.nodes:
                continue
            heapq.heappush(self.heap, (word.rank, depth + 1, len(self.nodes), nkey))
            self.nodes[nkey] = _Node(word, key, steps)
            new_keys.append(nkey)
        return new_keys

    def _successors(
        self, word: Nanoword
    ) -> Iterator[tuple[tuple[MoveSite, ...], Nanoword]]:
        """(steps, result) of each site applied; see the module docstring."""
        last = len(word.word) - 1
        for j, rotated in enumerate((word, shift(word))):
            prefix = (MoveSite(MoveKind.SHIFT),) * j
            for kind in ALL_MOVES:
                if kind in RANK_INCREASING and (j or word.rank + 1 > self.rank_cap):
                    continue
                for site in find_sites(rotated, kind):
                    if not j or site.positions[-1] == last:
                        yield prefix + (site,), apply_move(rotated, site)

    def trace_steps(self, key: str) -> list[MoveSite]:
        """The sites from the start word to the word of state ``key``."""
        steps: list[MoveSite] = []
        k: str | None = key
        while k is not None:
            node = self.nodes[k]
            steps[:0] = node.steps
            k = node.parent
        return steps


def reduce_bounded(
    alpha: Nanoword, budget: SearchBudget = DEFAULT_BUDGET
) -> tuple[Nanoword, MoveTrace]:
    """Lowest-rank word reachable within the budget, with a replayable trace.

    The returned rank is an upper bound for the homotopy rank of ``alpha``;
    exhausting the budget returns the best word found so far.
    """
    frontier = _Frontier(alpha, budget)
    while frontier.expand_one(0) is not None:
        if EMPTY.text() in frontier.nodes:  # the one rank-0 state
            break
    nodes = frontier.nodes
    best_key = min(nodes, key=lambda k: (nodes[k].word.rank, k))
    trace = MoveTrace(alpha, tuple(frontier.trace_steps(best_key)))
    return nodes[best_key].word, trace


@dataclass(frozen=True)
class EquivalenceResult:
    """Outcome of a bounded equivalence test.

    ``verdict`` is "homotopic" (with a verified ``trace`` from the first word
    to the second, up to renaming), "distinct" (with the invariant
    ``report``), or "unknown" when the budget ran out.
    """

    verdict: str
    trace: MoveTrace | None = None
    report: DistinguishReport | None = None


def _join_traces(
    alpha: Nanoword,
    steps_a: list[MoveSite],
    beta: Nanoword,
    steps_b: list[MoveSite],
    word_a: Nanoword,
    word_b: Nanoword,
) -> MoveTrace:
    """Trace alpha -> beta through a common state reached by both sides.

    ``word_a``/``word_b`` are the concrete words both sides reached; they
    share a shift-orbit canonical form.  Aligning each by forward shifts to
    the canonical position makes them positionally identical up to renaming,
    so the inverted second path replays verbatim on the first side's word.
    """
    shift_site = MoveSite(MoveKind.SHIFT)
    full_a = steps_a + [shift_site] * shifts_to_canonical(word_a)
    full_b = steps_b + [shift_site] * shifts_to_canonical(word_b)
    # The inverted second-side steps replay on the first side's word, which
    # is only isomorphic to the second side's; drop recorded letter names so
    # letter-adding steps pick fresh ones instead of clashing.
    back = [replace(site, letters=()) for site in invert_steps(beta, full_b)]
    trace = MoveTrace(alpha, tuple(_cancel_shift_pairs(full_a + back)))
    end = trace.end()
    if not isomorphic(end, beta):
        raise AssertionError("search produced an invalid equivalence trace")
    return trace


def _cancel_shift_pairs(steps: list[MoveSite]) -> list[MoveSite]:
    """Drop adjacent shift/shift-inv pairs (a replay no-op) from a step list."""
    out: list[MoveSite] = []
    inverse = {MoveKind.SHIFT: MoveKind.SHIFT_INV, MoveKind.SHIFT_INV: MoveKind.SHIFT}
    for site in steps:
        if out and site.kind in inverse and out[-1].kind is inverse[site.kind]:
            out.pop()
        else:
            out.append(site)
    return out


def equivalent_bounded(
    alpha: Nanoword,
    beta: Nanoword,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> EquivalenceResult:
    """Bidirectional bounded search for a homotopy between two words.

    Returns "homotopic" only with a trace that has been replayed and checked,
    "distinct" only when an invariant separates the words, else "unknown".
    """
    report = distinguish(alpha, beta)
    if report.verdict == "distinct":
        return EquivalenceResult("distinct", report=report)

    fa = _Frontier(alpha, budget)
    fb = _Frontier(beta, budget)

    common = [k for k in fa.nodes if k in fb.nodes]
    while not common:
        progressed = False
        for mine, other in ((fa, fb), (fb, fa)):
            new_keys = mine.expand_one(len(other.nodes))
            progressed |= new_keys is not None
            # No state was shared before this expansion, so a shared one is new.
            common = [k for k in new_keys or () if k in other.nodes]
            if common:
                break
        if not progressed:
            return EquivalenceResult("unknown", report=report)
    key = min(common)

    trace = _join_traces(
        alpha,
        fa.trace_steps(key),
        beta,
        fb.trace_steps(key),
        fa.nodes[key].word,
        fb.nodes[key].word,
    )
    return EquivalenceResult("homotopic", trace=trace)


# ---------------------------------------------------------------------------
# Covering statistics


@dataclass(frozen=True)
class CoverStats:
    """Word-level covering bounds for one word.

    ``m_upper`` bounds the least m with cover_n = cover_0 for all n >= m;
    ``height_upper`` bounds the number of r-covering iterations until the
    sequence stabilises; ``base_word`` is the stabilised word (search-reduced
    when a budget is supplied); ``fixed`` says whether the r-covering returns
    the word verbatim.  True heights/bases of virtual strings are only
    semi-decidable, so these are bounds, not exact values.
    """

    m_upper: int
    height_upper: int
    base_word: Nanoword
    fixed: bool


def cover_stats(alpha: Nanoword, r: int, budget: SearchBudget | None = None) -> CoverStats:
    """Covering-derived numeric bounds; pass a SearchBudget to refine them."""
    # Past the largest r whose covering differs from the 0-covering, every
    # covering is the 0-covering; the 1-covering (the word) always differs.
    table = coverings(alpha)
    differs = [k for k, cover in table.items() if cover != table[0]]
    m_upper = 0 if table[0] is alpha else 1 + max(differs, default=1)

    chain = [alpha]
    while True:
        nxt = covering(chain[-1], r)
        if nxt == chain[-1]:
            break
        chain.append(nxt)
    height = len(chain) - 1
    base = chain[-1]

    if budget is not None:
        for i in range(height):
            if equivalent_bounded(chain[i], chain[i + 1], budget).verdict == "homotopic":
                height = i
                break
        base, _ = reduce_bounded(base, budget)

    return CoverStats(
        m_upper=m_upper,
        height_upper=height,
        base_word=base,
        fixed=len(chain) == 1,
    )


# ---------------------------------------------------------------------------
# Covering graphs


@dataclass(frozen=True)
class CoveringGraph:
    """The action of one covering map on a set of words, as a functional graph.

    Nodes are shift-orbit canonical forms (keyed by their printed text) and
    each node has exactly one outgoing edge, to its r-covering.  Because a
    covering never increases rank and fixes a word exactly when it removes
    nothing, every cycle is a self-loop: each weakly connected component is a
    tree with a loop at its root.
    """

    r: int
    nodes: Mapping[str, Nanoword]
    edges: Mapping[str, str]

    def components(self) -> list[set[str]]:
        neighbours: dict[str, set[str]] = {k: set() for k in self.nodes}
        for src, dst in self.edges.items():
            neighbours[src].add(dst)
            neighbours[dst].add(src)
        remaining = set(self.nodes)
        out: list[set[str]] = []
        while remaining:
            seed = min(remaining)
            comp = {seed}
            stack = [seed]
            while stack:
                for nxt in neighbours[stack.pop()]:
                    if nxt not in comp:
                        comp.add(nxt)
                        stack.append(nxt)
            remaining -= comp
            out.append(comp)
        return out

    def component_is_tree_with_root_loop(self, component: set[str]) -> bool:
        loops = [k for k in component if self.edges[k] == k]
        return len(loops) == 1

    def to_dot(self) -> str:
        def quote(text: str) -> str:
            return '"' + text.replace('"', '\\"') + '"'

        lines = ["digraph covering {"]
        for key in sorted(self.nodes):
            lines.append(f"  {quote(key)} [label={quote(key)}];")
        for src in sorted(self.edges):
            lines.append(
                f"  {quote(src)} -> {quote(self.edges[src])} [label=\"r={self.r}\"];"
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


def covering_graph(
    words: Iterable[Nanoword], r: int, *, oracle: SearchBudget | None = None
) -> CoveringGraph:
    """Close the word set under the r-covering and record the induced map.

    With ``oracle``, words a bounded search proves homotopic are merged into
    one node (keyed by the least canonical form found); the covering map is
    well-defined on homotopy classes, so edges factor through the merge.
    """
    classes: dict[str, Nanoword] = {}

    def node_of(word: Nanoword) -> Nanoword:
        key = shift_canonical_text(word)
        if key not in classes:
            canon = shift_canonical(word)
            if oracle is not None:
                canon = shift_canonical(reduce_bounded(canon, oracle)[0])
            classes[key] = canon
        return classes[key]

    nodes: dict[str, Nanoword] = {}
    edges: dict[str, str] = {}
    for w in words:
        node = node_of(w)
        nodes.setdefault(node.text(), node)
    queue = sorted(nodes)
    while queue:
        key = queue.pop()
        cover = node_of(covering(nodes[key], r))
        ckey = cover.text()
        if ckey not in nodes:
            nodes[ckey] = cover
            queue.append(ckey)
        edges[key] = ckey
    return CoveringGraph(r, nodes, edges)
