"""Exhaustive tabulation of small nanowords with their invariants.

One record per shift-orbit canonical word, reproducible from the canonical
text alone, serialized as JSON Lines sorted by canonical form.  The covering
column maps every informative r (0 and 2..rank) to the canonical form of the
r-covering, which is what the fixed-point set experiments consume.  A
record is the JSON object it is written as, a dict, and ``record_to_json``
only serializes it with sorted keys.  Records are streamed one Gauss-word
group at a time, so at most 2^rank of them are held at once; ``record_for``
builds the same record for one word, as a group of one.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from itertools import chain, groupby
from operator import attrgetter

from .core import Nanoword, shift_canonical, shift_canonical_text
from .invariants import _primitives, u_polynomial
from .enumeration import canonical_population
from .ops import coverings
from .search import oracle_class

__all__ = ["record_for", "tabulation_records", "record_to_json"]


def record_for(word: Nanoword) -> dict:
    """The tabulation record of ``word``'s shift class, as its JSON object."""
    return _records([shift_canonical(word)])[0]


def _records(group: list[Nanoword]) -> list[dict]:
    """The records of shift-canonical words that share one Gauss word."""
    records = []
    for w, primitive in zip(group, _primitives(group)):
        records.append(
            {
                "canonical": shift_canonical_text(w),
                "rank": w.rank,
                "u": u_polynomial(w).coeffs,
                "rho": primitive.size - 1,
                "pbm_signature": primitive.signature(),
                "covers": {str(r): shift_canonical_text(c) for r, c in coverings(w).items()},
            }
        )
    return records


def tabulation_records(max_rank: int, *, oracle: bool = False) -> Iterator[dict]:
    """Records for every canonical word of rank <= max_rank, made as they are read.

    The words of one Gauss word are consecutive in text order, and each such
    group (at most 2^rank words) gets its based matrices from one kernel
    call.  With ``oracle``, words with the same ``search.oracle_class`` are
    merged and each record is that class: the canonical form of the words'
    bounded reduction within ``search.ORACLE_BUDGET``.
    """
    words = canonical_population(max_rank)
    if oracle:
        words = sorted({oracle_class(w) for w in words}, key=shift_canonical_text)
    groups = groupby(words, key=attrgetter("word"))
    return chain.from_iterable(_records(list(group)) for _, group in groups)


def record_to_json(record: dict) -> str:
    return json.dumps(record, sort_keys=True)
