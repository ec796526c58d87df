"""Exhaustive tabulation of small nanowords with their invariants.

One record per shift-orbit canonical word, reproducible from the canonical
text alone, serialized as JSON Lines sorted by canonical form.  The covering
column maps every informative r (0 and 2..rank) to the canonical form of the
r-covering, which is what the fixed-point set experiments consume.  A
record is the JSON object it is written as, a dict, and ``record_to_json``
only serializes it with sorted keys.
"""

from __future__ import annotations

import json
from collections.abc import Iterator

from .core import Nanoword, shift_canonical, shift_canonical_text
from .invariants import primitive_based_matrix, rho, u_polynomial
from .enumeration import canonical_population
from .ops import coverings
from .search import oracle_class

__all__ = ["record_for", "tabulation_records", "record_to_json"]


def record_for(word: Nanoword) -> dict:
    """The tabulation record of ``word``'s shift class, as its JSON object."""
    canonical = shift_canonical(word)
    primitive = primitive_based_matrix(canonical)
    return {
        "canonical": canonical.text(),
        "rank": canonical.rank,
        "u": u_polynomial(canonical).coeffs,
        "rho": rho(canonical),
        "pbm_signature": primitive.signature(),
        "covers": {str(r): shift_canonical_text(c) for r, c in coverings(canonical).items()},
    }


def tabulation_records(max_rank: int, *, oracle: bool = False) -> Iterator[dict]:
    """Records for every canonical word of rank <= max_rank, made as they are read.

    With ``oracle``, words with the same ``search.oracle_class`` are merged
    and each record is that class: the canonical form of the words' bounded
    reduction within ``search.ORACLE_BUDGET``.
    """
    words = canonical_population(max_rank)
    if oracle:
        words = sorted({oracle_class(w) for w in words}, key=shift_canonical_text)
    return map(record_for, words)


def record_to_json(record: dict) -> str:
    return json.dumps(record, sort_keys=True)
