"""Differential tests of move-site enumeration, move application and inversion.

The reference functions below are the pattern-table forms: one hand-written
loop per move family, and the H3 family matched against an eight-entry table
of letter patterns with a separate type condition per kind.  The library
states each family once, as one predicate shared by ``find_sites`` and
``apply_move``, and reads the H3 kind from a single rule.

The walk over all of a word's sites, ``core._sites``, classifies each pair
candidate once for all its kinds; its reference is the public ``find_sites``
called kind by kind in ``ALL_MOVES`` order.
"""

import random

import pytest
from hypothesis import given, settings

from vstring.core import (
    ALL_MOVES,
    RANK_INCREASING,
    TYPE_A,
    TYPE_B,
    MoveError,
    MoveKind,
    MoveSite,
    Nanoword,
    _check_positions,
    _check_types,
    _invert_one,
    _pair_candidates,
    _pick_fresh,
    _site_kind,
    _sites,
    apply_move,
    find_sites,
    parse,
    shift,
    shift_inv,
    shift_orbit,
)
from vstring.enumeration import canonical_population

from test_core import named_nanowords, nanowords

# Pair slots are numbered u1=0 v1=1 u2=2 v2=3 u3=4 v3=5; each entry gives the
# equalities between slots and the slots holding the roles (A, B, C).
REF_H3_PATTERNS = {
    MoveKind.H3: (
        (((0, 2), (1, 4), (3, 5)), (0, 1, 3)),   # (AB)(AC)(BC)
        (((1, 3), (0, 5), (2, 4)), (1, 0, 2)),   # (BA)(CA)(CB)
    ),
    MoveKind.H3A: (
        (((0, 3), (1, 4), (2, 5)), (0, 1, 2)),   # (AB)(CA)(BC)
        (((1, 2), (0, 5), (3, 4)), (1, 0, 3)),   # (BA)(AC)(CB)
    ),
    MoveKind.H3B: (
        (((0, 3), (1, 5), (2, 4)), (0, 1, 2)),   # (AB)(CA)(CB)
        (((1, 2), (0, 4), (3, 5)), (1, 0, 3)),   # (BA)(AC)(BC)
    ),
    MoveKind.H3C: (
        (((0, 2), (1, 5), (3, 4)), (0, 1, 3)),   # (AB)(AC)(CB)
        (((1, 3), (0, 4), (2, 5)), (1, 0, 2)),   # (BA)(CA)(BC)
    ),
}


def ref_h3_type_ok(kind, ta, tb, tc):
    if kind is MoveKind.H3:
        return ta == tb == tc
    if kind is MoveKind.H3A:
        return ta == tc != tb
    if kind is MoveKind.H3B:
        return ta == tb != tc
    return tb == tc != ta


def ref_h3_roles(alpha, kind, positions):
    slots = tuple(alpha.word[p] for p in positions)
    for equalities, (ia, ib, ic) in REF_H3_PATTERNS[kind]:
        if all(slots[i] == slots[j] for i, j in equalities):
            a, b, c = slots[ia], slots[ib], slots[ic]
            if len({a, b, c}) == 3 and ref_h3_type_ok(
                kind, alpha.type_of(a), alpha.type_of(b), alpha.type_of(c)
            ):
                return a, b, c
    return None


def ref_find_sites(alpha, kind, max_sites=None):
    w = alpha.word
    n = len(w)
    sites = []

    def done():
        return max_sites is not None and len(sites) >= max_sites

    if kind in (MoveKind.SHIFT, MoveKind.SHIFT_INV):
        return [MoveSite(kind)] if n else []
    if kind is MoveKind.H1_DOWN:
        for p in range(n - 1):
            if w[p] == w[p + 1]:
                sites.append(MoveSite(kind, (p, p + 1)))
                if done():
                    break
    elif kind is MoveKind.H2_DOWN:
        for p in range(n - 1):
            for q in range(p + 2, n - 1):
                if (
                    w[p] == w[q + 1]
                    and w[p + 1] == w[q]
                    and w[p] != w[p + 1]
                    and alpha.type_of(w[p]) != alpha.type_of(w[p + 1])
                ):
                    sites.append(MoveSite(kind, (p, p + 1, q, q + 1)))
                    if done():
                        return sites
    elif kind is MoveKind.H2A_DOWN:
        for p in range(n - 1):
            for q in range(p + 2, n - 1):
                if (
                    w[p] == w[q]
                    and w[p + 1] == w[q + 1]
                    and alpha.type_of(w[p]) != alpha.type_of(w[p + 1])
                ):
                    sites.append(MoveSite(kind, (p, p + 1, q, q + 1)))
                    if done():
                        return sites
    elif kind is MoveKind.H1_UP:
        for slot in range(n + 1):
            for t in (TYPE_A, TYPE_B):
                sites.append(MoveSite(kind, (slot,), types=(t,)))
                if done():
                    return sites
    elif kind in (MoveKind.H2_UP, MoveKind.H2A_UP):
        for i in range(n + 1):
            for j in range(i, n + 1):
                for ts in ((TYPE_A, TYPE_B), (TYPE_B, TYPE_A)):
                    sites.append(MoveSite(kind, (i, j), types=ts))
                    if done():
                        return sites
    else:
        for p, q, r in ref_pair_triples(n):
            positions = (p, p + 1, q, q + 1, r, r + 1)
            if ref_h3_roles(alpha, kind, positions) is not None:
                sites.append(MoveSite(kind, positions))
                if done():
                    return sites
    return sites


def ref_pair_triples(n):
    for p in range(n - 1):
        for q in range(p + 2, n - 1):
            for r in range(q + 2, n - 1):
                yield p, q, r


def ref_apply_move(alpha, site):
    w = alpha.word
    n = len(w)
    kind = site.kind
    if kind is MoveKind.SHIFT:
        return shift(alpha)
    if kind is MoveKind.SHIFT_INV:
        return shift_inv(alpha)
    if kind is MoveKind.H1_DOWN:
        (p, p1) = _check_positions(site, n, 2)
        if p1 != p + 1 or w[p] != w[p + 1]:
            raise MoveError(f"no H1 pair at {site.positions}")
        tmap = alpha.types()
        del tmap[w[p]]
        return Nanoword(w[:p] + w[p + 2 :], tmap)
    if kind in (MoveKind.H2_DOWN, MoveKind.H2A_DOWN):
        p, p1, q, q1 = _check_positions(site, n, 4)
        if p1 != p + 1 or q1 != q + 1 or q < p + 2:
            raise MoveError(f"bad pair positions {site.positions}")
        if kind is MoveKind.H2_DOWN:
            ok = w[p] == w[q + 1] and w[p + 1] == w[q] and w[p] != w[p + 1]
        else:
            ok = w[p] == w[q] and w[p + 1] == w[q + 1]
        if not ok or alpha.type_of(w[p]) == alpha.type_of(w[p + 1]):
            raise MoveError(f"no {kind.value} pattern at {site.positions}")
        drop = {w[p], w[p + 1]}
        tmap = {k: v for k, v in alpha.types().items() if k not in drop}
        keep = [x for i, x in enumerate(w) if i not in (p, p + 1, q, q + 1)]
        return Nanoword(keep, tmap)
    if kind is MoveKind.H1_UP:
        (slot,) = _check_positions(site, n + 1, 1)
        (t,) = _check_types(site, 1)
        (name,) = _pick_fresh(alpha, site, 1)
        tmap = alpha.types()
        tmap[name] = t
        return Nanoword(w[:slot] + (name, name) + w[slot:], tmap)
    if kind in (MoveKind.H2_UP, MoveKind.H2A_UP):
        i, j = _check_positions(site, n + 1, 2)
        if j < i:
            raise MoveError("insertion slots out of order")
        ta, tb = _check_types(site, 2)
        if ta == tb:
            raise MoveError(f"{kind.value} letters must have different types")
        a, b = _pick_fresh(alpha, site, 2)
        second = (b, a) if kind is MoveKind.H2_UP else (a, b)
        tmap = alpha.types()
        tmap[a], tmap[b] = ta, tb
        return Nanoword(w[:i] + (a, b) + w[i:j] + second + w[j:], tmap)
    positions = _check_positions(site, n, 6)
    p, p1, q, q1, r, r1 = positions
    if (p1, q1, r1) != (p + 1, q + 1, r + 1) or q < p + 2 or r < q + 2:
        raise MoveError(f"bad pair positions {site.positions}")
    if ref_h3_roles(alpha, kind, positions) is None:
        raise MoveError(f"no {kind.value} pattern at {site.positions}")
    chars = list(w)
    for start in (p, q, r):
        chars[start], chars[start + 1] = chars[start + 1], chars[start]
    return Nanoword(chars, alpha.types())


def ref_invert_one(before, site):
    kind = site.kind
    w = before.word
    if kind is MoveKind.SHIFT:
        return MoveSite(MoveKind.SHIFT_INV)
    if kind is MoveKind.SHIFT_INV:
        return MoveSite(MoveKind.SHIFT)
    if kind is MoveKind.H1_DOWN:
        p = site.positions[0]
        name = w[p]
        return MoveSite(
            MoveKind.H1_UP, (p,), letters=(name,), types=(before.type_of(name),)
        )
    if kind is MoveKind.H1_UP:
        return MoveSite(MoveKind.H1_DOWN, (site.positions[0], site.positions[0] + 1))
    if kind in (MoveKind.H2_DOWN, MoveKind.H2A_DOWN):
        p, _, q, _ = site.positions
        a, b = w[p], w[p + 1]
        up = MoveKind.H2_UP if kind is MoveKind.H2_DOWN else MoveKind.H2A_UP
        return MoveSite(
            up, (p, q - 2), letters=(a, b), types=(before.type_of(a), before.type_of(b))
        )
    if kind in (MoveKind.H2_UP, MoveKind.H2A_UP):
        i, j = site.positions
        down = MoveKind.H2_DOWN if kind is MoveKind.H2_UP else MoveKind.H2A_DOWN
        return MoveSite(down, (i, i + 1, j + 2, j + 3))
    return MoveSite(kind, site.positions)


# ---------------------------------------------------------------------------

#: Kinds whose sites are letter pairs in the word, with the number of pairs.
PAIR_KINDS = {
    MoveKind.H1_DOWN: 1,
    MoveKind.H2_DOWN: 2,
    MoveKind.H2A_DOWN: 2,
    MoveKind.H3: 3,
    MoveKind.H3A: 3,
    MoveKind.H3B: 3,
    MoveKind.H3C: 3,
}


def outcome(fn, alpha, site):
    """The word ``fn`` returns, or the class of the exception it raises."""
    try:
        return fn(alpha, site)
    except Exception as exc:  # compared by type, so any class counts
        return type(exc)


def candidate_positions(n, pairs):
    """Every well-shaped position tuple for ``pairs`` pairs, matching or not."""
    if pairs == 1:
        return [(p, p + 1) for p in range(n - 1)]
    if pairs == 2:
        return [(p, p + 1, q, q + 1) for p in range(n - 1) for q in range(p + 2, n - 1)]
    return [(p, p + 1, q, q + 1, r, r + 1) for p, q, r in ref_pair_triples(n)]


def rotations_of_population(max_rank):
    return [w for c in canonical_population(max_rank) for w in shift_orbit(c)]


@pytest.mark.parametrize("pairs", [1, 2, 3])
def test_pair_candidates_hold_every_site(pairs):
    # The candidates read from the occurrence table are sorted, well-shaped
    # position tuples, and hold every tuple that forms a site of any kind.
    for alpha in rotations_of_population(3):
        shaped = candidate_positions(len(alpha.word), pairs)
        candidates = _pair_candidates(alpha, pairs)
        assert candidates == sorted(set(candidates))
        assert set(candidates) <= set(shaped)
        for positions in shaped:
            if _site_kind(alpha, positions) is not None:
                assert positions in candidates, (alpha, positions)


ROTATIONS_R4 = rotations_of_population(4)


def check_sites_and_moves(alpha):
    """Sites for every kind, then every candidate pair site and a spread of
    letter-adding sites applied and inverted by both implementations."""
    for kind in MoveKind:
        full = ref_find_sites(alpha, kind)
        assert find_sites(alpha, kind) == full, (alpha, kind)
        assert find_sites(alpha, kind, max_sites=3) == ref_find_sites(alpha, kind, 3)
        if kind in PAIR_KINDS:
            sites = [
                MoveSite(kind, pos)
                for pos in candidate_positions(len(alpha.word), PAIR_KINDS[kind])
            ]
        else:
            # Adding sites are many and do not go through the pair predicate;
            # every eleventh one still spreads over the slots and type choices.
            sites = full[::11]
        for site in sites:
            expected = outcome(ref_apply_move, alpha, site)
            assert outcome(apply_move, alpha, site) == expected, (alpha, site)
            if isinstance(expected, Nanoword):
                assert _invert_one(alpha, site) == ref_invert_one(alpha, site)


def test_rank_4_rotations_match_reference():
    assert {len(w.word) for w in ROTATIONS_R4} == {0, 2, 4, 6, 8}
    for alpha in ROTATIONS_R4:
        check_sites_and_moves(alpha)


@given(nanowords(min_rank=3, max_rank=7))
@settings(max_examples=40, deadline=None)
def test_hypothesis_words_match_reference(alpha):
    check_sites_and_moves(alpha)


def random_site(rng, alpha):
    kind = rng.choice(list(MoveKind))
    n = len(alpha.word)
    pairs = PAIR_KINDS.get(kind, 1)
    if rng.random() < 0.5:
        # Adjacent pairs at any starts: overlapping, touching or out of order.
        starts = [rng.randrange(-1, n + 1) for _ in range(pairs)]
        positions = tuple(p for s in starts for p in (s, s + 1))
    else:
        count = rng.choice([2 * pairs, rng.randrange(8)])
        positions = tuple(rng.randrange(-1, n + 2) for _ in range(count))
    types = tuple(rng.choice("abx") for _ in range(rng.randrange(3)))
    pool = list(alpha.letters) + ["Z", "Y", "X.1"]
    letters = tuple(rng.choice(pool) for _ in range(rng.choice([0, 0, 1, 2, 3])))
    return MoveSite(kind, positions, letters, types)


def test_malformed_sites_fail_alike():
    rng = random.Random(20081)
    words = [parse(t) for t in ("0", "AA|a", "ABAB|ab", "ABCABC|aba", "ABCBDCAD|aabb")]
    words += rng.sample(ROTATIONS_R4, 40)
    for _ in range(20000):
        alpha = rng.choice(words)
        site = random_site(rng, alpha)
        assert outcome(apply_move, alpha, site) == outcome(ref_apply_move, alpha, site), (
            alpha,
            site,
        )


def ref_sites(alpha, cap):
    """Every site of ``alpha`` but the shifts, from ``find_sites`` kind by kind."""
    return [
        site
        for kind in ALL_MOVES
        for site in find_sites(alpha, kind, max_sites=cap if kind in RANK_INCREASING else None)
    ]


SITE_CAPS = [None, 0, 6]


@pytest.mark.parametrize("cap", SITE_CAPS)
def test_sites_walk_matches_find_sites_on_population(cap):
    for word in canonical_population(4):
        for alpha in (word, shift(word)):
            assert list(_sites(alpha, cap)) == ref_sites(alpha, cap), (alpha, cap)


@given(named_nanowords(max_rank=6))
@settings(max_examples=60, deadline=None)
def test_sites_walk_matches_find_sites_on_named_words(alpha):
    for cap in SITE_CAPS:
        assert list(_sites(alpha, cap)) == ref_sites(alpha, cap), cap
