"""Named property suites verifying the structural theorems at desk scale.

Each suite runs a theorem or invariance statement over a reproducible word
population: every shift-canonical word of rank <= ``max_rank`` (all type
assignments), then the words of rank above ``max_rank`` among ``sample``
random words at ranks 4-5 drawn with ``seed``, so no word appears twice.
Suites report instance counts and the first few failures; they are used both
by the command-line ``verify`` subcommand and by the acceptance tests.  The
three settings have no defaults here: ``verify`` states them once.

A population is built once per ``(max_rank, seed, sample)`` and shared, as a
tuple, by every suite that asks for it.  A check takes its failure label as a
``%``-format and its arguments, and renders the label only when it fails.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import (
    MoveKind,
    Nanoword,
    _sites,
    apply_move,
    find_sites,
    isomorphic,
)
from .enumeration import canonical_population, sample_nanowords
from .invariants import (
    _primitives,
    based_matrix,
    bm_isomorphic,
    composite_based_matrix,
    n_values,
    reduce_to_primitive,
    rho,
    u_polynomial,
    u_realizable,
)
from .ops import cable, compose, covering

__all__ = ["SuiteReport", "SUITES", "run_suite", "population"]

#: Cap on letter-adding sites per kind for the sample's words above
#: ``max_rank`` in the move-invariance suite (the words of rank <=
#: ``max_rank`` get every site).
_ADD_SITE_CAP = 6


@dataclass
class SuiteReport:
    name: str
    passed: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, label: str, *args: object) -> None:
        """Count one instance; a failure's label is ``label % args``."""
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(label % args if args else label)

    @property
    def total(self) -> int:
        return self.passed + self.failed

    def summary(self) -> str:
        status = "ok" if not self.failed else "FAILED"
        return f"{self.name}: {self.passed}/{self.total} instances pass [{status}]"


@lru_cache(maxsize=8)
def population(max_rank: int, seed: int, sample: int, /) -> tuple[Nanoword, ...]:
    """Exhaustive words up to ``max_rank``, then a fixed-seed sample's words above it.

    The sample draws ranks 4-5; its words of rank ``max_rank`` or less are
    already in the exhaustive part, so only those above are added.  One
    shared tuple per setting: the three arguments are required and
    positional, so the cache sees each setting spelled one way only.
    """
    words = canonical_population(max_rank)
    words += [w for w in sample_nanowords((4, 5), sample, seed) if w.rank > max_rank]
    return tuple(words)


def suite_move_invariance(max_rank: int, seed: int, sample: int) -> SuiteReport:
    """u, rho and the primitive based matrix are stable under every move.

    The check compares primitives alone, and it covers u and rho too.  rho
    is the primitive's size minus one, and matrices of different sizes are
    never isomorphic.  Each reduction step drops an element of weight 0 or a
    pair of weights k and -k, so the signed counts of the primitive's border
    b(g, s) are the word's u; an isomorphism fixes s and so keeps the border.
    A word's sites are its shift, then those of ``core._sites``, the walk the
    search takes too, which classifies each pair candidate once.  A word and
    its moved words get their primitives from one ``_primitives`` call, so
    from one kernel call per rank among them.
    """
    report = SuiteReport("move-invariance")
    for word in population(max_rank, seed, sample):
        cap = None if word.rank <= max_rank else _ADD_SITE_CAP
        sites = find_sites(word, MoveKind.SHIFT) + list(_sites(word, cap))
        p0, *moved = _primitives([word, *(apply_move(word, s) for s in sites)])
        for site, p in zip(sites, moved):
            report.check(bm_isomorphic(p, p0), "%s under %s", word, site)
    return report


def suite_structural(max_rank: int, seed: int, sample: int) -> SuiteReport:
    """Weight sums, skew-symmetry, borders, realizability, u-additivity, deletions."""
    report = SuiteReport("structural")
    words = population(max_rank, seed, sample)
    for word in words:
        nv = n_values(word)
        report.check(sum(nv.values()) == 0, "sum n != 0 for %s", word)
        report.check(
            all(abs(v) < max(word.rank, 1) for v in nv.values()),
            "|n| >= rank for %s", word,
        )
        m = based_matrix(word)
        diff = m.pairing[1:, 1:]
        report.check(
            bool(np.array_equal(diff, -diff.T)),
            "inner block not skew for %s", word,
        )
        report.check(
            all(m.b(x, "s") == nv[x] for x in word.letters),
            "border != n for %s", word,
        )
        report.check(
            u_realizable(u_polynomial(word)), "u not realizable for %s", word
        )
        for r in range(word.rank + 2):
            deleted = word.rank - covering(word, r).rank
            report.check(deleted != 1, "cover[%d] deleted one letter of %s", r, word)
    rng = random.Random(seed)
    pairs = [(rng.choice(words), rng.choice(words)) for _ in range(60)]
    for a, b in pairs:
        report.check(
            u_polynomial(compose(a, b)) == u_polynomial(a) + u_polynomial(b),
            "u not additive for %s * %s", a, b,
        )
    return report


def suite_u_cable(max_rank: int, seed: int, sample: int) -> SuiteReport:
    """u(cable(w, n)) = n^2 u_w(t^n) for n in {2, 3}."""
    report = SuiteReport("u-cable")
    for word in population(max_rank, seed, sample):
        expected = u_polynomial(word)
        for n in (2, 3):
            report.check(
                u_polynomial(cable(word, n)) == expected.cable_transform(n),
                "%s n=%d", word, n,
            )
    return report


def suite_cover_cable_commute(max_rank: int, seed: int, sample: int) -> SuiteReport:
    """cover_r(cable_n(w)) is isomorphic to cable_n(cover_k(w)), k = r/gcd(n, r)."""
    report = SuiteReport("cover-cable-commute")
    for word in population(max_rank, seed, sample):
        for n, r in ((2, 2), (2, 4), (3, 2), (2, 0), (3, 0)):
            k = 0 if r == 0 else r // math.gcd(n, r)
            ok = isomorphic(covering(cable(word, n), r), cable(covering(word, k), n))
            report.check(ok, "%s n=%d r=%d", word, n, r)
        for n in (2, 3):
            cab = cable(word, n)
            for r in (0, 2, 3):
                fixed_word = covering(word, r) == word
                fixed_cable = covering(cab, r * n) == cab
                report.check(
                    fixed_word == fixed_cable,
                    "fixedness transfer %s n=%d r=%d", word, n, r,
                )
    return report


def suite_composite_bm(max_rank: int, seed: int, sample: int) -> SuiteReport:
    """The block formula agrees entrywise with the composite's based matrix."""
    report = SuiteReport("composite-bm")
    words = [w for w in population(max_rank, seed, 0) if w.rank <= 4]
    rng = random.Random(seed + 1)
    pairs = [(rng.choice(words), rng.choice(words)) for _ in range(80)]
    for a, b in pairs:
        predicted = composite_based_matrix(
            based_matrix(a), a.types(), based_matrix(b), b.types()
        )
        # compose renames b's letters past a's, so the composite's letters
        # sort as a's, then b's: the prediction's block order.
        ok = np.array_equal(predicted.pairing, based_matrix(compose(a, b)).pairing)
        report.check(ok, "%s * %s", a, b)
    return report


def suite_rho_bounds(max_rank: int, seed: int, sample: int) -> SuiteReport:
    """Cable and composition bounds on rho."""
    report = SuiteReport("rho-bounds")
    words, rhos = population(max_rank, seed, sample), {}
    for word in words:
        r0 = rhos[word] = rho(word)
        for n in (2, 3):
            delta = 1 if n % 2 == 0 else 0
            report.check(
                rho(cable(word, n)) <= n * n * r0 + delta,
                "cable bound %s n=%d", word, n,
            )
    same_type = [
        w
        for w in population(max_rank, seed, 0)
        if w.rank and len({w.type_of(x) for x in w.letters}) == 1
    ]
    for a, b in itertools.product(same_type, repeat=2):
        if a.type_of(a.letters[0]) != b.type_of(b.letters[0]):
            continue
        composite, parts = rho(compose(a, b)), rhos[a] + rhos[b]
        report.check(composite >= parts, "superadditivity %s * %s", a, b)
        if rhos[a] == a.rank and rhos[b] == b.rank:
            report.check(
                composite == parts, "additivity on primitives %s * %s", a, b
            )
    return report


def suite_reduction_confluence(max_rank: int, seed: int, sample: int) -> SuiteReport:
    """Random removal orders all reach isomorphic primitive based matrices."""
    report = SuiteReport("reduction-confluence")
    rng = random.Random(seed + 2)
    for word in population(max_rank, seed + 3, sample):
        m = based_matrix(word)
        reference = reduce_to_primitive(m)[0]
        orders = 50 if word.rank <= 3 else 10
        for _ in range(orders):
            alt, _ = reduce_to_primitive(m, rng=rng)
            report.check(
                bm_isomorphic(reference, alt),
                "confluence failed for %s", word,
            )
    return report


SUITES = {
    "move-invariance": suite_move_invariance,
    "structural": suite_structural,
    "u-cable": suite_u_cable,
    "cover-cable-commute": suite_cover_cable_commute,
    "composite-bm": suite_composite_bm,
    "rho-bounds": suite_rho_bounds,
    "reduction-confluence": suite_reduction_confluence,
}


def run_suite(name: str, max_rank: int, seed: int, sample: int) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    return SUITES[name](max_rank=max_rank, seed=seed, sample=sample)
