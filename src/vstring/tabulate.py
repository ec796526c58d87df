"""Exhaustive tabulation of small nanowords with their invariants.

One record per shift-orbit canonical word, reproducible from the canonical
text alone, serialized as JSON Lines sorted by canonical form.  The covering
column maps every informative r (0 and 2..rank) to the canonical form of the
r-covering, which is what the fixed-point set experiments consume.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass

from .core import Nanoword, shift_canonical, shift_canonical_text
from .invariants import primitive_based_matrix, u_polynomial
from .enumeration import canonical_population
from .ops import coverings
from .search import reduce_bounded

__all__ = ["TabulationRecord", "record_for", "tabulation_records", "record_to_json"]


@dataclass(frozen=True)
class TabulationRecord:
    canonical: str
    rank: int
    u: tuple[tuple[int, int], ...]
    rho: int
    pbm_signature: tuple
    covers: tuple[tuple[int, str], ...]  # (r, canonical cover text)


def record_for(word: Nanoword) -> TabulationRecord:
    canonical = shift_canonical(word)
    primitive = primitive_based_matrix(canonical)
    covers = tuple((r, shift_canonical_text(c)) for r, c in coverings(canonical).items())
    return TabulationRecord(
        canonical=canonical.text(),
        rank=canonical.rank,
        u=u_polynomial(canonical).coeffs,
        rho=primitive.size - 1,
        pbm_signature=primitive.signature(),
        covers=covers,
    )


def tabulation_records(max_rank: int, *, oracle=None) -> Iterator[TabulationRecord]:
    """Records for every canonical word of rank <= max_rank, made as they are read.

    With ``oracle`` (a SearchBudget), words that a bounded search proves
    homotopic are merged: each homotopy class keeps its least canonical form.
    """
    words = canonical_population(max_rank)
    if oracle is not None:
        by_reduced: dict[str, Nanoword] = {}
        for w in words:
            reduced, _ = reduce_bounded(w, oracle)
            key = shift_canonical_text(reduced)
            if key not in by_reduced or w.text() < by_reduced[key].text():
                by_reduced[key] = w
        words = sorted(by_reduced.values(), key=lambda w: w.text())
    return map(record_for, words)


def record_to_json(record: TabulationRecord) -> str:
    payload = {
        "canonical": record.canonical,
        "rank": record.rank,
        "u": record.u,
        "rho": record.rho,
        "pbm_signature": record.pbm_signature,
        "covers": {str(r): text for r, text in record.covers},
    }
    return json.dumps(payload, sort_keys=True)

