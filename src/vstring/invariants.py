"""Homotopy invariants of nanowords.

Linking numbers and the derived letter weights n(X), the u-polynomial, head
and tail matrices, the based matrix and its reduction to a primitive based
matrix, the element-count invariant rho, based-matrix isomorphism, and the
block formulas for based matrices of composites and cables.

All of them but ``linking_number`` read one table of each letter's two
positions and its arrow, ``core._arrows`` (the core module states the arrow
convention).  n(X) is the arrow tails minus the arrow heads strictly between
the two occurrences of X, negated for type b.
``linking_number`` reads the occurrence pattern of its two letters instead,
on purpose: it is the independent reference whose sums the tests compare
with ``n_values``.

The based matrix of a word is a triple ``(G, s, b)``: a finite element set G
with a special element s and a skew-symmetric integer pairing b.  For a word,
G is the letter set plus s, ``b(g, s) = n(g)``, and the letter-letter block
is ``T - H + T H^t - H T^t`` in terms of the tail and head matrices.  Three
reductions (dropping an annihilating element, a core element, or a
complementary pair) lead to a primitive based matrix, unique up to
isomorphism, which is a homotopy invariant of the word.

One stacked numpy kernel computes the tail and head matrices of any number
of equal-rank words at once.  ``head_tail_matrices`` and ``based_matrix``
are its one-word case, and ``th_realizable`` calls it once per Gauss word,
over the words that share it.  ``_primitives`` is the one path from words
to primitive based matrices: it groups any list of words by rank, forms each
rank's based matrices from one stack, and reduces each distinct pairing once
per call; a repeated pairing, often a moved word's, reuses that reduction
under its own tags.  So a self-complementary element is logged once per
distinct pairing of a call.  Move-invariance calls it once per population
word with all its moved words, the tabulator once per Gauss-word group, and
``primitive_based_matrix`` and ``distinguish`` on their one or two words.
Every based matrix built here, of a word, a composite or a cable, takes its
border from one rule, ``_bordered``.

One rule decides what is cached: ``n_values`` is the one per-word cache,
read-only, for the coverings of a word and for the words that several
suites ask for again.  Every other invariant is computed where it is asked,
and a caller that needs a value twice keeps it.  Only the public
constructors of ``HeadTailMatrices`` and ``BasedMatrix`` check and copy what
they are given, and ``head_tail_matrices`` goes through the first.  The
based matrices built here meet the checks by construction and keep the int64
array just built for each of them, made read-only: a word's pairing is its
own copy of its slice of the stack, so it shares memory with nothing.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, groupby
from operator import attrgetter
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .core import (
    EMPTY,
    TYPE_B,
    Nanoword,
    _arrows,
    fresh_names,
    shift_canonical_text,
)
from .enumeration import all_nanowords

__all__ = [
    "UPolynomial",
    "HeadTailMatrices",
    "BasedMatrix",
    "ReductionStep",
    "DistinguishReport",
    "linking_number",
    "n_values",
    "u_polynomial",
    "u_realizable",
    "head_tail_matrices",
    "th_realizable",
    "based_matrix",
    "reduce_to_primitive",
    "primitive_based_matrix",
    "rho",
    "bm_isomorphic",
    "composite_based_matrix",
    "cable_reduced_based_matrix",
    "distinguish",
    "invariant_bundle",
]

logger = logging.getLogger(__name__)

SPECIAL = "s"


def _frozen(a) -> np.ndarray:
    """A read-only int64 copy, so the caller's array can change neither way.

    Raises ValueError if an entry is not an integer.
    """
    out = np.array(a, dtype=np.int64)
    if getattr(a, "dtype", None) != np.int64 and not np.array_equal(out, a):
        raise ValueError("matrix entries must be integers")
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# u-polynomial


@dataclass(frozen=True)
class UPolynomial:
    """Sparse integer polynomial sum_{k>=1} u_k t^k, zero coefficients absent."""

    coeffs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        for k, c in self.coeffs:
            if k < 1:
                raise ValueError(f"exponent {k} < 1")
            if c == 0:
                raise ValueError("zero coefficient stored")
        if any(k >= k2 for (k, _), (k2, _) in zip(self.coeffs, self.coeffs[1:])):
            raise ValueError("exponents must be strictly increasing")

    @classmethod
    def from_dict(cls, d: Mapping[int, int]) -> "UPolynomial":
        return cls(tuple(sorted((k, c) for k, c in d.items() if c != 0)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "UPolynomial") -> "UPolynomial":
        d = self.as_dict()
        for k, c in other.coeffs:
            d[k] = d.get(k, 0) + c
        return UPolynomial.from_dict(d)

    def derivative_at_one(self) -> int:
        return sum(k * c for k, c in self.coeffs)

    def cable_transform(self, n: int) -> "UPolynomial":
        """n^2 * u(t^n): what the u-polynomial becomes under an n-cabling."""
        return UPolynomial.from_dict({n * k: n * n * c for k, c in self.coeffs})

    def pairs(self) -> list[list[int]]:
        """JSON form: [[k, u_k], ...] sorted by k."""
        return [[k, c] for k, c in self.coeffs]

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k, c in reversed(self.coeffs):
            mag = abs(c)
            term = ("" if mag == 1 else str(mag)) + ("t" if k == 1 else f"t^{k}")
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts)


# ---------------------------------------------------------------------------
# Linking numbers


def linking_number(alpha: Nanoword, a: str, b: str) -> int:
    """Linking number of two letters: 0 unless they alternate, else +-1.

    For alternating letters the sign depends on which letter starts the
    pattern and on whether the two types agree; it is skew-symmetric and
    stable under the shift move.
    """
    if a == b:
        alpha.occurrences(a)
        return 0
    a1, a2 = alpha.occurrences(a)
    b1, b2 = alpha.occurrences(b)
    if a1 < b1 < a2 < b2:      # pattern ABAB
        first_is_a = True
    elif b1 < a1 < b2 < a2:    # pattern BABA
        first_is_a = False
    else:
        return 0
    same = alpha.type_of(a) == alpha.type_of(b)
    if first_is_a:
        return 1 if same else -1
    return -1 if same else 1


@lru_cache(maxsize=8192)
def n_values(alpha: Nanoword) -> Mapping[str, int]:
    """n(X) = sum of linking numbers of X with every letter; sums to zero.

    The result is cached per word, so it is returned as a read-only mapping.
    """
    arrows = _arrows(alpha)
    step = [0] * len(alpha.word)
    for _, _, _, tail, head in arrows:
        step[tail], step[head] = 1, -1
    before = list(accumulate(step, initial=0))  # before[p] = sum(step[:p])
    return MappingProxyType(
        {
            x: sign * (before[second] - before[first + 1])
            for x, (first, second, sign, _, _) in zip(alpha.letters, arrows)
        }
    )


def u_polynomial(alpha: Nanoword) -> UPolynomial:
    """u_k = #{X : n(X) = k} - #{X : n(X) = -k}, collected for k >= 1."""
    counts: dict[int, int] = {}
    for v in n_values(alpha).values():
        if v > 0:
            counts[v] = counts.get(v, 0) + 1
        elif v < 0:
            counts[-v] = counts.get(-v, 0) - 1
    return UPolynomial.from_dict(counts)


def u_realizable(u: UPolynomial) -> bool:
    """Whether some virtual string has this u-polynomial: u(0) = u'(1) = 0.

    u(0) = 0 holds by construction (exponents start at 1), so the test
    reduces to sum_k k*u_k = 0.
    """
    return u.derivative_at_one() == 0


# ---------------------------------------------------------------------------
# Head and tail matrices


@dataclass(frozen=True)
class HeadTailMatrices:
    """0/1 tail and head incidence matrices over a fixed letter order.

    ``tail[i, j]`` is 1 when, scanning cyclically from the tail of letter i's
    arrow to its head, the tail of letter j's arrow is passed; ``head``
    likewise for the head of j's arrow.  With the arrows of ``core._arrows``,
    off the diagonal ``tail[i, j] = (first_i < tail_j < second_i) XOR (i is
    type b)``, and the diagonal is zero.  The difference
    ``tail - head`` recovers the letter-letter linking numbers, so it is
    skew-symmetric for every word.
    """

    order: tuple[str, ...]
    tail: np.ndarray
    head: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "tail", _frozen(self.tail))
        object.__setattr__(self, "head", _frozen(self.head))
        k = len(self.order)
        if len(set(self.order)) != k:
            raise ValueError("duplicate letter names")
        for m in (self.tail, self.head):
            if m.shape != (k, k):
                raise ValueError("matrix shape does not match letter order")
            if np.any(np.diagonal(m)) or not np.isin(m, (0, 1)).all():
                raise ValueError("matrices must be 0/1 with zero diagonal")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeadTailMatrices):
            return NotImplemented
        return (
            self.order == other.order
            and np.array_equal(self.tail, other.tail)
            and np.array_equal(self.head, other.head)
        )


def _kernel(words: Sequence[Nanoword]) -> np.ndarray:
    """The (m, 2, k, k) stack of the tail and head matrices of equal-rank words.

    Letters are in name order.  Arrow i passes the end p of another arrow
    when ``sign_i (p - first_i) (p - second_i) < 0``; at i's own ends it is 0.
    """
    m, k = len(words), words[0].rank
    table = np.array([_arrows(w) for w in words], dtype=np.int64).reshape(m, k, 5)
    first, second, sign = table[..., :1], table[..., 1:2], table[..., 2:3]
    ends = table[..., 3:].transpose(0, 2, 1).reshape(m, 1, 2 * k)  # tail ends, then head ends
    th = (sign * (ends - first) * (ends - second) < 0).astype(np.int64)
    return th.reshape(m, k, 2, k).transpose(0, 2, 1, 3)


def head_tail_matrices(alpha: Nanoword) -> HeadTailMatrices:
    """Tail and head matrices of a word, letters in lexicographic order."""
    return HeadTailMatrices(alpha.letters, *_kernel([alpha])[0])


#: Largest rank ``th_realizable`` searches: it tries every word of that rank.
TH_REALIZABLE_CAP = 5


def th_realizable(tail: np.ndarray, head: np.ndarray) -> Nanoword | None:
    """A nanoword whose tail/head matrices equal the given pair, or None.

    Any letter-order permutation is allowed.  Exhaustive search over Gauss
    words of the matching rank, all type assignments and all orderings;
    ``TH_REALIZABLE_CAP`` bounds the rank accepted (the search is factorial).
    """
    k = len(tail) if np.ndim(tail) else 0
    if k > TH_REALIZABLE_CAP:
        raise ValueError(f"rank {k} exceeds brute-force cap {TH_REALIZABLE_CAP}")
    names = fresh_names((), k)
    given = HeadTailMatrices(tuple(names), tail, head)
    if k == 0:
        return EMPTY

    # Entries 0..3 of tail + 2 head carry both matrices at once.
    target = (given.tail + 2 * given.head).tolist()
    target_keys = _line_keys(target)
    # One kernel call per Gauss word, over its 2^k type maps.
    for _, group in groupby(all_nanowords(k), key=attrgetter("word")):
        group = list(group)
        th = _kernel(group)
        for word, rows in zip(group, (th[:, 0] + 2 * th[:, 1]).tolist()):
            perm = _bijection(target, rows, target_keys, _line_keys(rows))
            if perm is not None:
                # Rename so row i of the requested matrices is the i-th letter
                # of the result in lexicographic order.
                mapping = {word.letters[perm[i]]: names[i] for i in range(k)}
                types = {mapping[x]: word.type_of(x) for x in word.letters}
                return Nanoword(tuple([mapping[x] for x in word.word]), types, _trusted=True)
    return None


def _line_keys(rows: list[list[int]]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(sorted row, sorted column) of each index of a square matrix."""
    return [(tuple(sorted(row)), tuple(sorted(col))) for row, col in zip(rows, zip(*rows))]


def _bijection(
    rows1: list[list[int]], rows2: list[list[int]], keys1: list, keys2: list
) -> list[int] | None:
    """The p with rows1[i][j] == rows2[p[i]][p[j]] for all i, j, or None.

    ``keys1[i]`` and ``keys2[c]`` must be invariants of an index under such
    maps, so p only sends i to a c of equal key.  Depth-first, each index
    tries those c in ascending order, checked against the indices already
    placed, so the first p found does not depend on how the keys prune.
    """
    if sorted(keys1) != sorted(keys2):
        return None
    candidates = [[c for c, key in enumerate(keys2) if key == key1] for key1 in keys1]
    k = len(rows1)
    perm: list[int] = []
    used = [False] * k

    def extend() -> bool:
        i = len(perm)
        if i == k:
            return True
        row1 = rows1[i]
        for c in candidates[i]:
            row2 = rows2[c]
            if used[c] or row1[i] != row2[c]:
                continue
            for j, d in enumerate(perm):
                if row1[j] != row2[d] or rows1[j][i] != rows2[d][c]:
                    break
            else:
                perm.append(c)
                used[c] = True
                if extend():
                    return True
                perm.pop()
                used[c] = False
        return False

    return perm if extend() else None


# ---------------------------------------------------------------------------
# Based matrices


@dataclass(frozen=True)
class BasedMatrix:
    """Finite element set with special element first and a skew pairing.

    ``elements[0]`` is always the special element tag ``"s"``; the remaining
    tags name letters or synthetic elements.  ``pairing`` is the full
    skew-symmetric integer matrix over ``elements``.
    """

    elements: tuple[str, ...]
    pairing: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairing", _frozen(self.pairing))
        k = len(self.elements)
        if len(set(self.elements)) != k:
            raise ValueError("duplicate element tags")
        if not self.elements or self.elements[0] != SPECIAL:
            raise ValueError(f"first element must be the special tag {SPECIAL!r}")
        if self.pairing.shape != (k, k):
            raise ValueError("pairing shape does not match element count")
        if np.any(self.pairing.T != -self.pairing):
            raise ValueError("pairing must be skew-symmetric")

    @classmethod
    def _trusted(cls, elements: tuple[str, ...], pairing: np.ndarray) -> BasedMatrix:
        """A build this module knows valid, unchecked, and no copy.

        ``pairing`` is an int64 array that the caller has just built and
        that nothing else holds; it is kept and made read-only.
        """
        pairing.setflags(write=False)
        m = object.__new__(cls)
        object.__setattr__(m, "elements", elements)
        object.__setattr__(m, "pairing", pairing)
        return m

    @property
    def size(self) -> int:
        return len(self.elements)

    def b(self, g: str, h: str) -> int:
        i, j = self.elements.index(g), self.elements.index(h)
        return int(self.pairing[i, j])

    def signature(self) -> tuple:
        """Isomorphism-invariant fingerprint: sorted per-row multiset keys."""
        rows = self.pairing.tolist()
        return (self.size, tuple(sorted(rows[0])), tuple(sorted(_row_keys(rows))))

    def to_json(self) -> dict:
        return {
            "order": list(self.elements),
            "rows": self.pairing.tolist(),
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BasedMatrix):
            return NotImplemented
        return self.elements == other.elements and np.array_equal(
            self.pairing, other.pairing
        )


def _row_keys(rows: list[list[int]]) -> list[tuple[int, tuple[int, ...]]]:
    """Per-element key (b(g, s), sorted row of g) of each non-special row."""
    return [(row[0], tuple(sorted(row))) for row in rows[1:]]


def _bordered(border: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """The pairing, s first, with b(g, s) = border[..., g], over any leading stack shape."""
    k = inner.shape[-1]
    full = np.zeros((*inner.shape[:-2], k + 1, k + 1), dtype=np.int64)
    full[..., 1:, 1:] = inner
    full[..., 1:, 0] = border
    full[..., 0, 1:] = -border
    return full


def _based_matrices(words: Sequence[Nanoword]) -> list[BasedMatrix]:
    """The based matrices of equal-rank words, from one kernel call.

    T - H holds the letter-letter linking numbers, so the border n(g) is its
    row sum, and the inner block is T - H + TH^t - HT^t.
    """
    th = _kernel(words)
    tail, head = th[:, 0], th[:, 1]
    linking = tail - head
    cross = tail @ head.transpose(0, 2, 1)
    pairings = _bordered(linking.sum(axis=2), linking + cross - cross.transpose(0, 2, 1))
    return [
        BasedMatrix._trusted((SPECIAL, *w.letters), p.copy()) for w, p in zip(words, pairings)
    ]


def based_matrix(alpha: Nanoword) -> BasedMatrix:
    """Based matrix of a word: border n(g), inner block T - H + TH^t - HT^t."""
    return _based_matrices([alpha])[0]


@dataclass(frozen=True)
class ReductionStep:
    """One reduction: which rule fired and which element tag(s) were removed."""

    kind: str  # "annihilating" | "core" | "complementary"
    removed: tuple[str, ...]


def _reductions(rows: list[list[int]]):
    """The (kind, row indices) of each reduction step a pairing allows, lazily.

    In one order: annihilating, core, then complementary pairs (i, j), i < j.
    """
    srow = rows[0]
    for kind, target in (("annihilating", [0] * len(srow)), ("core", srow)):
        for i in range(1, len(rows)):
            if rows[i] == target:
                yield kind, (i,)
    index: dict[tuple, list[int]] = {}
    for i in range(1, len(rows)):
        index.setdefault(tuple(rows[i]), []).append(i)
    for i in range(1, len(rows)):
        # From a list: tuple() of a generator grows by resizing, which
        # fills the interpreter's per-size tuple free lists.
        rest = tuple([s - v for s, v in zip(srow, rows[i])])
        for j in index.get(rest, ()):
            if j > i:
                yield "complementary", (i, j)


def reduce_to_primitive(
    m: BasedMatrix, *, rng=None
) -> tuple[BasedMatrix, tuple[ReductionStep, ...]]:
    """Remove annihilating/core elements and complementary pairs until none remain.

    The available steps come in one order: annihilating elements, core
    elements, then complementary pairs (i, j) with i < j ascending.  Without
    ``rng`` each step is the first of them, found without listing the rest;
    with ``rng`` (a random.Random) all of them are listed and
    ``rng.randrange`` picks one.  The primitive result is unique up to
    based-matrix isomorphism either way.

    Complementary pairs require two distinct elements; a self-complementary
    element (2 b(g,.) = b(s,.)) is never removed and is logged when seen.
    """
    tags = list(m.elements)
    rows = m.pairing.tolist()
    steps: list[ReductionStep] = []
    while True:
        if rng is None:
            step = next(_reductions(rows), None)
        else:
            candidates = list(_reductions(rows))
            step = candidates[rng.randrange(len(candidates))] if candidates else None
        if step is None:
            for i in range(1, len(rows)):
                if all(2 * v == s for v, s in zip(rows[i], rows[0])):
                    logger.info(
                        "irreducible self-complementary element %s left in place",
                        tags[i],
                    )
            primitive = np.array(rows, dtype=np.int64)
            return BasedMatrix._trusted(tuple(tags), primitive), tuple(steps)
        kind, indices = step
        steps.append(ReductionStep(kind, tuple(tags[i] for i in indices)))
        for i in sorted(indices, reverse=True):
            del tags[i], rows[i]
            for row in rows:
                del row[i]


def _primitives(words: Sequence[Nanoword]) -> list[BasedMatrix]:
    """The primitive based matrices of any words, in order: one kernel call per rank.

    Each rank's words go to one ``_based_matrices`` call, and each distinct
    pairing gets the deterministic reduction, ``reduce_to_primitive`` without
    rng, once per call.  That reduction picks its steps from the pairing
    alone, so a matrix with a pairing seen before keeps the same indices:
    it takes its own tags there and a copy of the first primitive's pairing.
    """
    by_rank: dict[int, list[Nanoword]] = {}
    for w in words:
        by_rank.setdefault(w.rank, []).append(w)
    matrices = {rank: iter(_based_matrices(group)) for rank, group in by_rank.items()}
    # Pairings of different ranks differ in size, so their bytes are an exact key.
    seen: dict[bytes, tuple[BasedMatrix, tuple[str, ...]]] = {}
    out = []
    for w in words:
        m = next(matrices[w.rank])
        key = m.pairing.tobytes()
        if key in seen:
            first, first_tags = seen[key]
            own = dict(zip(first_tags, m.elements))
            tags = tuple([own[tag] for tag in first.elements])
            out.append(BasedMatrix._trusted(tags, first.pairing.copy()))
        else:
            primitive = reduce_to_primitive(m)[0]
            seen[key] = primitive, m.elements
            out.append(primitive)
    return out


def primitive_based_matrix(alpha: Nanoword) -> BasedMatrix:
    """The deterministic reduction of the word's based matrix."""
    return _primitives([alpha])[0]


def rho(alpha: Nanoword) -> int:
    """Element count of the primitive based matrix, minus the special element."""
    return primitive_based_matrix(alpha).size - 1


def bm_isomorphic(m1: BasedMatrix, m2: BasedMatrix) -> bool:
    """Whether a bijection fixing s matches the two pairings entrywise.

    Equal pairings are matched by the identity, which fixes s.  Otherwise
    backtracking over element assignments, pruned by the per-element key
    (b(g, s), sorted multiset of the row of g); exact at desk scale.
    """
    p1, p2 = m1.pairing.tolist(), m2.pairing.tolist()
    if p1 == p2:
        return True
    # The empty key is the special element's alone, so s maps to s.
    return _bijection(p1, p2, [(), *_row_keys(p1)], [(), *_row_keys(p2)]) is not None


def _unique_tags(base: Sequence[str], taken: set[str]) -> list[str]:
    out = []
    for tag in base:
        candidate = tag
        while candidate in taken:
            candidate += "_"
        taken.add(candidate)
        out.append(candidate)
    return out


def composite_based_matrix(
    m_alpha: BasedMatrix,
    types_alpha: Mapping[str, str],
    m_beta: BasedMatrix,
    types_beta: Mapping[str, str],
) -> BasedMatrix:
    """Based matrix of a composite word from the two component matrices.

    The result is block-diagonal in the two inner blocks with borders n_alpha
    and n_beta; the mixed block D depends only on the letter types and the
    borders::

        D[W, X] = [X has type b] n_alpha(W) - [W has type b] n_beta(X)

    It equals ``based_matrix(compose(alpha, beta))`` entrywise when the
    inputs are the word-derived matrices and letter types of the components.
    Beta's tags are suffixed when they clash with alpha's.
    """
    a_tags, b_tags = m_alpha.elements[1:], m_beta.elements[1:]
    for types, tags in ((types_alpha, a_tags), (types_beta, b_tags)):
        for tag in tags:
            if tag not in types:
                raise KeyError(f"missing letter type for element {tag!r}")
    is_b_a = np.array([types_alpha[t] == TYPE_B for t in a_tags], dtype=np.int64)
    is_b_b = np.array([types_beta[t] == TYPE_B for t in b_tags], dtype=np.int64)
    na, nb = m_alpha.pairing[1:, 0], m_beta.pairing[1:, 0]
    d = np.outer(na, is_b_b) - np.outer(is_b_a, nb)
    inner = np.block([[m_alpha.pairing[1:, 1:], d], [-d.T, m_beta.pairing[1:, 1:]]])
    tags = (SPECIAL, *a_tags, *_unique_tags(b_tags, {SPECIAL, *a_tags}))
    return BasedMatrix._trusted(tags, _bordered(np.concatenate([na, nb]), inner))


def cable_reduced_based_matrix(p: BasedMatrix, n: int) -> BasedMatrix:
    """The cable counterpart of a based matrix, built from whole blocks.

    Each non-special element X yields n^2 copies X.i.j and the construction
    adds n-1 join elements C.k, with::

        b(X.i.j, s)     = n * n(X)
        b(C.k, s)       = 0
        b(X.i.j, Y.k.l) = b(X, Y) + ((l-k) mod n) n(X) - ((j-i) mod n) n(Y)
        b(X.i.j, C.k)   = (n-1-k) n(X)
        b(C.i, C.j)     = 0

    No tag clashes: the last two dot-fields of X.i.j give back (X, i, j), and
    C.k has one dot-field fewer than any copy tag.  When ``p`` is the
    primitive based matrix of a word, reducing this matrix to primitive gives
    (up to isomorphism) the primitive based matrix of the word's n-cable.
    """
    if n < 1:
        raise ValueError(f"cable width must be >= 1, got {n}")
    base = p.elements[1:]
    # X (as an index into base), i and j of each copy X.i.j, in tag order.
    x, i, j = np.unravel_index(np.arange(len(base) * n * n), (len(base), n, n))
    nx, delta = p.pairing[1:, 0][x], (j - i) % n
    copies = p.pairing[1:, 1:][np.ix_(x, x)] + np.outer(nx, delta) - np.outer(delta, nx)
    joins = np.outer(nx, n - 1 - np.arange(n - 1))
    inner = np.block([[copies, joins], [-joins.T, np.zeros((n - 1, n - 1), np.int64)]])
    border = np.concatenate([n * nx, np.zeros(n - 1, np.int64)])
    tags = [SPECIAL] + [f"{tag}.{a}.{b}" for tag in base for a in range(n) for b in range(n)]
    tags += [f"C.{k}" for k in range(n - 1)]
    return BasedMatrix._trusted(tuple(tags), _bordered(border, inner))


# ---------------------------------------------------------------------------
# Distinguishing words


@dataclass(frozen=True)
class DistinguishReport:
    """Outcome of an invariant comparison between two words.

    ``verdict`` is "distinct" (some listed invariant differs),
    "same-word-class" (equal up to shifts and renaming), or "unknown".
    ``evidence`` lists (invariant name, value for the first word, value for
    the second word) pairs; entries are recorded only when the values differ.
    """

    verdict: str
    evidence: tuple[tuple[str, str, str], ...] = ()


def distinguish(alpha: Nanoword, beta: Nanoword, depth: int = 2) -> DistinguishReport:
    """Compare homotopy invariants, recursing through coverings to ``depth``.

    Checks the u-polynomial, rho and primitive based-matrix isomorphism, then
    compares every r-covering (r = 0 and 2..max rank) recursively.  The
    verdict is "distinct" as soon as any invariant differs; invariants here
    are all stable under shifts, so shift-related words are never reported
    distinct.
    """
    evidence: list[tuple[str, str, str]] = []
    ua, ub = u_polynomial(alpha), u_polynomial(beta)
    if ua != ub:
        evidence.append(("u-polynomial", str(ua), str(ub)))
    pa, pb = _primitives([alpha, beta])
    if pa.size != pb.size:
        evidence.append(("rho", str(pa.size - 1), str(pb.size - 1)))
    elif not evidence and not bm_isomorphic(pa, pb):
        rows_a, rows_b = (str(m.to_json()["rows"]) for m in (pa, pb))
        evidence.append(("primitive-based-matrix", rows_a, rows_b))
    if not evidence and depth > 0:
        # The one import up the layer order (ops imports invariants), so it
        # is made here, at call time.  distinguish stays in this module:
        # perfbench names a span after the defining module
        # ("invariants.distinguish") and times ops.covering as a layer.
        from .ops import coverings

        # Past its own rank a word's r-covering is its 0-covering.  A pair
        # seen before was not distinct, so each pair is compared once.
        ta, tb = coverings(alpha), coverings(beta)
        seen = {(alpha, beta)}
        for r in max(ta, tb, key=len):
            pair = ca, cb = ta.get(r, ta[0]), tb.get(r, tb[0])
            if pair in seen:
                continue
            seen.add(pair)
            sub = distinguish(ca, cb, depth - 1)
            if sub.verdict == "distinct":
                name, va, vb = sub.evidence[0]
                evidence.append((f"cover[{r}] {name}", va, vb))
                break
    if evidence:
        return DistinguishReport("distinct", tuple(evidence))
    if shift_canonical_text(alpha) == shift_canonical_text(beta):
        return DistinguishReport("same-word-class")
    return DistinguishReport("unknown")


def invariant_bundle(alpha: Nanoword) -> dict:
    """JSON-ready bundle of the standard invariants of a word."""
    m = based_matrix(alpha)
    primitive = reduce_to_primitive(m)[0]
    return {
        "word": alpha.text(),
        "rank": alpha.rank,
        "n_values": dict(n_values(alpha)),
        "u_polynomial": u_polynomial(alpha).pairs(),
        "based_matrix": m.to_json(),
        "primitive": primitive.to_json(),
        "rho": primitive.size - 1,
    }
