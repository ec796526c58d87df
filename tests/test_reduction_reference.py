"""Differential tests of based-matrix reduction, isomorphism and cable matrices.

The reference functions below are the straightforward numpy forms: the
reduction rescans every row and every pair of rows after each removal and
builds a new matrix per step, the isomorphism test compares two private key
lists, and the composite and cable matrices are filled one entry at a time
from the case tables.  The library works on plain integer rows and whole
matrix expressions and must give the same primitive matrix, the same
reduction steps (also under a seeded random choice), the same isomorphism
verdicts and the same composite and cable matrices.
"""

import hashlib
import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vstring.core import TYPE_A, TYPE_B, parse
from vstring.enumeration import canonical_population, sample_nanowords
from vstring.invariants import (
    SPECIAL,
    BasedMatrix,
    ReductionStep,
    _unique_tags,
    based_matrix,
    bm_isomorphic,
    cable_reduced_based_matrix,
    composite_based_matrix,
    primitive_based_matrix,
    reduce_to_primitive,
)
from vstring.ops import cable, compose

from test_core import nanowords


def ref_without(m: BasedMatrix, indices) -> BasedMatrix:
    keep = [i for i in range(m.size) if i not in set(indices)]
    return BasedMatrix(
        tuple(m.elements[i] for i in keep), m.pairing[np.ix_(keep, keep)]
    )


def ref_reduction_candidates(m: BasedMatrix) -> list[tuple[str, tuple[int, ...]]]:
    p = m.pairing
    k = m.size
    out: list[tuple[str, tuple[int, ...]]] = []
    srow = p[0]
    for i in range(1, k):
        if not p[i].any():
            out.append(("annihilating", (i,)))
    for i in range(1, k):
        if np.array_equal(p[i], srow):
            out.append(("core", (i,)))
    for i in range(1, k):
        for j in range(i + 1, k):
            if np.array_equal(p[i] + p[j], srow):
                out.append(("complementary", (i, j)))
    return out


def ref_reduce_to_primitive(m: BasedMatrix, *, rng=None):
    steps: list[ReductionStep] = []
    current = m
    while True:
        candidates = ref_reduction_candidates(current)
        if not candidates:
            return current, tuple(steps)
        if rng is None:
            kind, indices = candidates[0]
        else:
            kind, indices = candidates[rng.randrange(len(candidates))]
        steps.append(
            ReductionStep(kind, tuple(current.elements[i] for i in indices))
        )
        current = ref_without(current, indices)


def ref_bm_isomorphic(m1: BasedMatrix, m2: BasedMatrix) -> bool:
    if m1.size != m2.size:
        return False
    k = m1.size
    if k == 1:
        return True

    def key(m: BasedMatrix, i: int) -> tuple:
        return (int(m.pairing[i, 0]), tuple(sorted(int(v) for v in m.pairing[i])))

    keys1 = [key(m1, i) for i in range(1, k)]
    keys2 = [key(m2, i) for i in range(1, k)]
    if sorted(keys1) != sorted(keys2):
        return False
    if tuple(sorted(int(v) for v in m1.pairing[0])) != tuple(
        sorted(int(v) for v in m2.pairing[0])
    ):
        return False
    candidates = [
        [j for j in range(1, k) if keys2[j - 1] == keys1[i - 1]] for i in range(1, k)
    ]
    p1, p2 = m1.pairing, m2.pairing
    assigned: list[int] = []
    used = [False] * k

    def extend() -> bool:
        i = len(assigned) + 1
        if i == k:
            return True
        for j in candidates[i - 1]:
            if used[j] or p1[i, 0] != p2[j, 0]:
                continue
            if all(
                p1[i, prev_i] == p2[j, assigned[prev_i - 1]] for prev_i in range(1, i)
            ):
                assigned.append(j)
                used[j] = True
                if extend():
                    return True
                assigned.pop()
                used[j] = False
        return False

    return extend()


def ref_signature(m: BasedMatrix) -> tuple:
    rows = []
    for i in range(1, m.size):
        row = m.pairing[i]
        rows.append((int(row[0]), tuple(sorted(int(v) for v in row))))
    return (m.size, tuple(sorted(int(v) for v in m.pairing[0])), tuple(sorted(rows)))


def ref_cable_reduced_based_matrix(p: BasedMatrix, n: int) -> BasedMatrix:
    base = p.elements[1:]
    nv = {x: int(p.pairing[idx + 1, 0]) for idx, x in enumerate(base)}
    taken = {SPECIAL}
    copies: list[tuple[str, int, int]] = []
    tags: list[str] = [SPECIAL]
    for x in base:
        for i in range(n):
            for j in range(n):
                tags.append(_unique_tags([f"{x}.{i}.{j}"], taken)[0])
                copies.append((x, i, j))
    joins = []
    for kk in range(n - 1):
        tags.append(_unique_tags([f"C.{kk}"], taken)[0])
        joins.append(kk)
    full = np.zeros((len(tags), len(tags)), dtype=np.int64)
    nc = len(copies)
    for a_idx, (x, i, j) in enumerate(copies):
        full[1 + a_idx, 0] = n * nv[x]
        for b_idx in range(a_idx + 1, nc):
            y, kk, ll = copies[b_idx]
            v = p.b(x, y) + ((ll - kk) % n) * nv[x] - ((j - i) % n) * nv[y]
            full[1 + a_idx, 1 + b_idx] = v
            full[1 + b_idx, 1 + a_idx] = -v
        for c_idx, kk in enumerate(joins):
            v = (n - 1 - kk) * nv[x]
            full[1 + a_idx, 1 + nc + c_idx] = v
            full[1 + nc + c_idx, 1 + a_idx] = -v
    full[0, 1:] = -full[1:, 0]
    return BasedMatrix(tuple(tags), full)


def ref_composite_based_matrix(m_alpha, types_alpha, m_beta, types_beta):
    a_tags = m_alpha.elements[1:]
    b_tags = m_beta.elements[1:]
    for tag in a_tags:
        if tag not in types_alpha:
            raise KeyError(f"missing letter type for element {tag!r}")
    for tag in b_tags:
        if tag not in types_beta:
            raise KeyError(f"missing letter type for element {tag!r}")
    ka, kb = len(a_tags), len(b_tags)
    na = m_alpha.pairing[1:, 0]
    nb = m_beta.pairing[1:, 0]
    d = np.zeros((ka, kb), dtype=np.int64)
    for i, wt in enumerate(types_alpha[t] for t in a_tags):
        for j, xt in enumerate(types_beta[t] for t in b_tags):
            if wt == TYPE_B and xt == TYPE_A:
                d[i, j] = -nb[j]
            elif wt == TYPE_A and xt == TYPE_B:
                d[i, j] = na[i]
            elif wt == TYPE_B and xt == TYPE_B:
                d[i, j] = na[i] - nb[j]
    k = 1 + ka + kb
    full = np.zeros((k, k), dtype=np.int64)
    full[1 : 1 + ka, 0] = na
    full[1 + ka :, 0] = nb
    full[0, 1:] = -full[1:, 0]
    full[1 : 1 + ka, 1 : 1 + ka] = m_alpha.pairing[1:, 1:]
    full[1 + ka :, 1 + ka :] = m_beta.pairing[1:, 1:]
    full[1 : 1 + ka, 1 + ka :] = d
    full[1 + ka :, 1 : 1 + ka] = -d.T
    taken = {SPECIAL, *a_tags}
    tags = (SPECIAL, *a_tags, *_unique_tags(b_tags, taken))
    return BasedMatrix(tags, full)


def _composites() -> list[BasedMatrix]:
    words = [w for w in canonical_population(2) if w.rank]
    out = []
    for a, b in itertools.product(words, repeat=2):
        out.append(based_matrix(compose(a, b)))
        out.append(
            composite_based_matrix(
                based_matrix(a), a.types(), based_matrix(b), b.types()
            )
        )
    return out


def _matrices() -> list[BasedMatrix]:
    rank3 = canonical_population(3)
    out = [based_matrix(w) for w in canonical_population(4)]
    out += [based_matrix(cable(w, n)) for w in rank3 for n in (2, 3)]
    out += [
        cable_reduced_based_matrix(primitive_based_matrix(w), 2) for w in rank3
    ]
    out += _composites()
    out += [based_matrix(w) for w in sample_nanowords((5, 6), 40, 13)]
    return out


MATRICES = _matrices()


def _permuted(m: BasedMatrix, rng: random.Random) -> BasedMatrix:
    perm = [0, *rng.sample(range(1, m.size), m.size - 1)]
    return BasedMatrix(
        tuple(m.elements[i] for i in perm), m.pairing[np.ix_(perm, perm)]
    )


def _assert_same_reduction(m: BasedMatrix, seeds=(0, 1, 2)) -> None:
    assert reduce_to_primitive(m) == ref_reduce_to_primitive(m)
    for s in seeds:
        got = reduce_to_primitive(m, rng=random.Random(s))
        assert got == ref_reduce_to_primitive(m, rng=random.Random(s))


class TestReduction:
    def test_population_cables_composites(self):
        assert len(MATRICES) >= 400
        for m in MATRICES:
            _assert_same_reduction(m)

    def test_many_seeds_on_cables(self):
        for w in canonical_population(3):
            if w.rank == 3:
                _assert_same_reduction(based_matrix(cable(w, 2)), range(3, 13))

    @given(nanowords(max_rank=6), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_words(self, w, seed):
        _assert_same_reduction(based_matrix(w), (seed,))


class TestCachedPrimitive:
    def test_population_rank_4(self):
        for w in canonical_population(4):
            expected = ref_reduce_to_primitive(based_matrix(w))[0]
            assert primitive_based_matrix(w) == expected  # computed
            assert primitive_based_matrix(w) == expected  # cached


class TestIsomorphism:
    def test_permuted_copies(self):
        rng = random.Random(5)
        for m in MATRICES:
            for q in (m, *(reduce_to_primitive(m, rng=rng)[0] for _ in range(2))):
                alt = _permuted(q, rng)
                assert bm_isomorphic(q, alt)
                assert ref_bm_isomorphic(q, alt)

    def test_random_pairs(self):
        rng = random.Random(6)
        primitives = [reduce_to_primitive(m)[0] for m in MATRICES]
        by_size: dict[int, list[BasedMatrix]] = {}
        for q in primitives:
            by_size.setdefault(q.size, []).append(q)
        verdicts = set()
        for _ in range(4000):
            pool = by_size[rng.choice(sorted(by_size))]
            a, b = rng.choice(pool), _permuted(rng.choice(pool), rng)
            verdict = bm_isomorphic(a, b)
            assert verdict == ref_bm_isomorphic(a, b)
            verdicts.add(verdict)
        for _ in range(2000):
            a, b = rng.choice(primitives), rng.choice(primitives)
            assert bm_isomorphic(a, b) == ref_bm_isomorphic(a, b)
        assert verdicts == {True, False}

    def test_signature(self):
        for m in MATRICES:
            assert m.signature() == ref_signature(m)


class TestCompositeReference:
    @pytest.mark.parametrize("matrix", [based_matrix, primitive_based_matrix])
    def test_entrywise(self, matrix):
        words = canonical_population(3)
        for a, b in itertools.product(words, repeat=2):
            args = (matrix(a), a.types(), matrix(b), b.types())
            assert composite_based_matrix(*args) == ref_composite_based_matrix(*args)
        assert len(words) ** 2 == 784


class TestCableReducedReference:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_entrywise(self, n):
        for w in canonical_population(3):
            for m in (based_matrix(w), primitive_based_matrix(w)):
                got = cable_reduced_based_matrix(m, n)
                assert got == ref_cable_reduced_based_matrix(m, n)
        composites = _composites()
        assert any("_" in tag for m in composites for tag in m.elements)
        for m in composites:
            got = cable_reduced_based_matrix(m, n)
            assert got == ref_cable_reduced_based_matrix(m, n)


def test_formula_fingerprint():
    words = canonical_population(3)
    matrices = [
        composite_based_matrix(based_matrix(a), a.types(), based_matrix(b), b.types())
        for a in words
        for b in words
    ]
    matrices += [
        cable_reduced_based_matrix(m, n)
        for w in words
        for m in (based_matrix(w), primitive_based_matrix(w))
        for n in (1, 2, 3)
    ]
    data = "".join(json.dumps(m.to_json(), sort_keys=True) + "\n" for m in matrices)
    data = data.encode()
    assert data.count(b"\n") == 952
    assert hashlib.sha256(data).hexdigest() == (
        "81aa73f862ad0ceb4e912487aea8edbb22d268a0846f961e6946b343284f86ed"
    )
