"""Bounded homotopy search over nanowords.

States are shift classes, so the base-point symmetry is quotiented out.  A
state is keyed by the least rotation of its word's arrow sequence
(``core._arrow_key``), with no renaming or printing.  The printed canonical
text orders states only where the choice among them shows: the lowest-rank
state ``reduce_bounded`` returns, the shared state at which
``equivalent_bounded`` joins its two searches, and the shift counts of that
join.  Transitions apply one H-move to any shift of the state.  Rank-
preserving and rank-decreasing moves are always available.  The rank cap is
the start's rank plus ``max_rank_increase``, and a letter-adding move is
tried only from a state below the cap; an H2 insertion adds two letters, so
a state may reach cap + 1, and the rank-preserving moves spread at that
rank.  Every result carries a replayable move trace, so a "homotopic"
answer is a checkable certificate, and "distinct" answers delegate to the
invariant comparison, so the two can never both hold.

A state stores no word: its node holds the rank of its word, the key of its
parent and the sites that lead from the parent's word to its own.
``apply_move`` is deterministic, so those sites fix the word, and
``_Frontier.trace(key).end()`` replays it, in at most ``max_depth`` moves,
only where a word is read: the state being expanded, the lowest-rank states
``reduce_bounded`` orders by printed text, and the shared states
``equivalent_bounded`` orders and joins at.

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
and H3-family sites whose last pair is (n-2, n-1).  Both rotations' sites
come from ``core._sites``, the one walk over a word's sites, which the
move-invariance suite takes too; it lists letter-adding sites for w only.

Of the letter-adding sites of w, those that repeat the state of an earlier
site of w are skipped; the first site to reach each state is unchanged.
When n > 0, cyclic slot n is slot 0, so a site with a slot equal to n is
skipped: H1+ (n, t) reaches the state of (0, t), H2+ (i, n, ts) that of
(0, i, ts), and H2a+ (i, n, (ta, tb)) that of (0, i, (tb, ta)).  If w has
shift period p < n, meaning rotation p of w renamed is w with its types,
then a site whose first slot is p or more reaches the state of the site
with every slot p less, and is skipped too.  The empty word's one slot is
slot 0 and slot n at once, so none of its sites is skipped.

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
    RANK_INCREASING,
    _arrow_key,
    _inverted,
    _shift_period,
    _sites,
    apply_move,
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
    "ORACLE_BUDGET",
    "EquivalenceResult",
    "reduce_bounded",
    "oracle_class",
    "equivalent_bounded",
    "CoverStats",
    "cover_stats",
    "CoveringGraph",
    "covering_graph",
]

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
        parts = text.split(",")
        if len(parts) != 3 or not all(p.strip().removeprefix("-").isdecimal() for p in parts):
            raise ValueError(f"expected 3 comma-separated integers, got {text!r}")
        return cls(*map(int, parts))


DEFAULT_BUDGET = SearchBudget()
#: Search budget of the oracle.  Up to rank 3, the largest rank ``tabulate
#: --oracle`` accepts, it merges the same words as the default budget, in a
#: seventh of the time.
ORACLE_BUDGET = SearchBudget(1, 2000, 32)


@dataclass
class _Node:
    # No word: the parent's key and the steps fix it (``_Frontier.trace``).
    rank: int                    # rank of the state's word
    parent: bytes | None         # key of the parent state
    steps: tuple[MoveSite, ...]  # sites leading from the parent's word here


class _Frontier:
    """Best-first expansion over shift classes, keyed by ``_arrow_key``.

    Heap entries are (rank, depth, insertion index, key); the insertion index
    breaks ties in the order states were reached.
    """

    def __init__(self, start: Nanoword, budget: SearchBudget):
        self.start = start
        self.budget = budget
        self.rank_cap = start.rank + budget.max_rank_increase
        key = _arrow_key(start)
        self.nodes: dict[bytes, _Node] = {key: _Node(start.rank, None, ())}
        self.heap: list[tuple[int, int, int, bytes]] = [(start.rank, 0, 0, key)]

    def expand_one(self, shared_states: int) -> list[bytes] | None:
        """Pop one state and insert its successors; returns the new keys.

        Returns None, and pops nothing, when no state is left to expand or
        no room is left for a new one.
        """
        if not self.heap or len(self.nodes) + shared_states >= self.budget.max_states:
            return None
        _, depth, _, key = heapq.heappop(self.heap)
        if depth >= self.budget.max_depth:
            return []
        new_keys: list[bytes] = []
        for steps, word in self._successors(self.trace(key).end()):
            if len(self.nodes) + shared_states >= self.budget.max_states:
                break
            nkey = _arrow_key(word)
            if nkey in self.nodes:
                continue
            heapq.heappush(self.heap, (word.rank, depth + 1, len(self.nodes), nkey))
            self.nodes[nkey] = _Node(word.rank, key, steps)
            new_keys.append(nkey)
        return new_keys

    def _successors(
        self, word: Nanoword
    ) -> Iterator[tuple[tuple[MoveSite, ...], Nanoword]]:
        """(steps, result) of each site applied; see the module docstring."""
        n = len(word.word)
        adds = word.rank < self.rank_cap
        # A letter-adding site is kept when its first slot is below the shift
        # period and its last below slot n (the empty word has one slot); the
        # others repeat an earlier site's state.
        period = _shift_period(word) if adds else 0
        slots = max(n, 1)
        for j, rotated in enumerate((word, shift(word))):
            prefix = (MoveSite(MoveKind.SHIFT),) * j
            for site in _sites(rotated, None if adds and j == 0 else 0):
                first, last = site.positions[0], site.positions[-1]
                adding = site.kind in RANK_INCREASING
                if (first < period and last < slots) if adding else (j == 0 or last == n - 1):
                    yield prefix + (site,), apply_move(rotated, site)

    def trace(self, key: bytes) -> MoveTrace:
        """The trace from the start word to state ``key``; its end is the state's word.

        The word is stored nowhere: ``trace(key).end()`` replays the sites,
        and ``apply_move`` is deterministic, so it is the word the search
        reached, letter for letter.
        """
        steps: list[MoveSite] = []
        k: bytes | None = key
        while k is not None:
            node = self.nodes[k]
            steps[:0] = node.steps
            k = node.parent
        return MoveTrace(self.start, tuple(steps))


def reduce_bounded(
    alpha: Nanoword, budget: SearchBudget = DEFAULT_BUDGET
) -> tuple[Nanoword, MoveTrace]:
    """Lowest-rank word reachable within the budget, with a replayable trace.

    The returned rank is an upper bound for the homotopy rank of ``alpha``;
    exhausting the budget returns the best word found so far.
    """
    frontier = _Frontier(alpha, budget)
    while frontier.expand_one(0) is not None:
        if _arrow_key(EMPTY) in frontier.nodes:  # the one rank-0 state
            break
    low = min(node.rank for node in frontier.nodes.values())
    lows = [frontier.trace(k) for k, node in frontier.nodes.items() if node.rank == low]
    return min(((t.end(), t) for t in lows), key=lambda pair: shift_canonical_text(pair[0]))


def oracle_class(word: Nanoword) -> Nanoword:
    """The word that names ``word``'s class in every search-merged view.

    It is the shift-canonical form of the lowest-rank word that
    ``reduce_bounded`` reaches from ``word``'s canonical form within
    ``ORACLE_BUDGET``.  Homotopic words share a class only when one-sided
    searches happen to reach the same word, so the class is not certified:
    two words with different oracle classes may still be homotopic.  A
    certified class table would replace this body, and both views with it.
    """
    return shift_canonical(reduce_bounded(shift_canonical(word), ORACLE_BUDGET)[0])


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


def _join_traces(fa: _Frontier, fb: _Frontier, key: bytes, end_a: Nanoword) -> MoveTrace:
    """Trace ``fa.start`` -> ``fb.start`` through the state ``key`` both sides hold.

    ``end_a`` is the first side's word at ``key``, already replayed.  With
    ``ka``/``kb`` the forward shifts that take each side's word at ``key``
    to the canonical position, the two words shifted there are identical up
    to renaming.  So the trace is the first path, then the net shift: ``ka -
    kb`` shifts, or ``kb - ka`` inverse shifts when ``kb > ka``; then the
    inverted second path, which replays verbatim on the first side's word.
    """
    ta, tb = fa.trace(key), fb.trace(key)
    words_b = tb.replay()
    ka, kb = shifts_to_canonical(end_a), shifts_to_canonical(words_b[-1])
    net = (MoveSite(MoveKind.SHIFT if ka > kb else MoveKind.SHIFT_INV),) * abs(ka - kb)
    # The inverted second-side steps replay on the first side's word, which
    # is only isomorphic to the second side's; drop recorded letter names so
    # letter-adding steps pick fresh ones instead of clashing.
    back = tuple(replace(site, letters=()) for site in _inverted(words_b, tb.steps))
    trace = MoveTrace(fa.start, ta.steps + net + back)
    if not isomorphic(trace.end(), fb.start):
        raise AssertionError("search produced an invalid equivalence trace")
    return trace


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
    end_a, key = min(
        ((fa.trace(k).end(), k) for k in common), key=lambda pair: shift_canonical_text(pair[0])
    )
    return EquivalenceResult("homotopic", trace=_join_traces(fa, fb, key, end_a))


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
    words: Iterable[Nanoword], r: int, *, oracle: bool = False
) -> CoveringGraph:
    """Close the word set under the r-covering and record the induced map.

    With ``oracle``, each node is a word's ``oracle_class``, the canonical
    form of its bounded reduction within ``ORACLE_BUDGET``, so words that
    reduce to the same word are one node; the covering map is well-defined on
    homotopy classes, so edges factor through the merge.
    """
    classes: dict[str, Nanoword] = {}

    def node_of(word: Nanoword) -> Nanoword:
        key = shift_canonical_text(word)
        if key not in classes:
            classes[key] = oracle_class(word) if oracle else shift_canonical(word)
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
