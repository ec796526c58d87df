"""Word-producing operations: coverings, composition, cabling and friends.

* ``covering(alpha, r)`` keeps exactly the letters whose weight n(X) is
  divisible by r (for r = 0: exactly the letters with n(X) = 0) and is
  well-defined on virtual strings.
* ``coverings(alpha)`` is the table of every informative r-covering,
  r = 0 and 2..rank, each read from ``covering``: the 1-covering is the word
  itself, and every r above each |n(X)| gives the 0-covering.  Equal proper
  coverings, of one word or of different words, are one shared, immutable
  object.
* ``compose(alpha, beta)`` concatenates after renaming beta's letters fresh;
  the result depends on the chosen base points, so it is an operation on
  words, not on virtual strings.
* ``cable(alpha, n)`` builds the n-cable word mechanically: every letter
  becomes an n x n block of copies and n-1 join letters close the braid.
  Each (word, n) has one shared, immutable cable: the 1024 built last are
  cached, and ``vstring verify all --seed 7`` builds 632 of them.
* ``r_dot(alpha, r)`` duplicates every letter occurrence into r nested
  copies; the result is fixed by the r-covering.
* ``uncover_preimage(alpha, r)`` pads every letter of nonzero weight with
  nested fresh letters so that the r-covering of the result is the input.

Generators for the two standard families used throughout the test suites
(``gen_gamma_pq``, ``gen_alpha_n``) round out the module.
"""

from __future__ import annotations

from functools import lru_cache

from .core import (
    TYPE_A,
    TYPE_B,
    Nanoword,
    canonical_relabel,
    relabel_disjoint,
)
from .invariants import n_values

__all__ = [
    "covering",
    "coverings",
    "compose",
    "cable",
    "r_dot",
    "gen_gamma_pq",
    "gen_alpha_n",
    "uncover_preimage",
]


def covering(alpha: Nanoword, r: int) -> Nanoword:
    """The r-covering: the subword of letters X with n(X) divisible by r.

    A covering that keeps every letter (always so for ``r = 1``) returns the
    word itself, which it fixes; ``r = 0`` keeps exactly the letters of weight
    zero.  Since the weights sum to zero, a covering never removes exactly one
    letter.  Equal proper coverings are one shared, immutable object.
    """
    if r < 0:
        raise ValueError(f"covering index must be >= 0, got {r}")
    nv = n_values(alpha)
    kept = {x for x in alpha.letters if (nv[x] % r if r else nv[x]) == 0}
    if len(kept) == alpha.rank:
        return alpha
    types = tuple([(x, alpha.type_of(x)) for x in alpha.letters if x in kept])
    return _subword(tuple([x for x in alpha.word if x in kept]), types)


def coverings(alpha: Nanoword) -> dict[int, Nanoword]:
    """Every informative r-covering of a word, keyed r = 0, 2, 3, ..., rank.

    Each value is ``covering(alpha, r)``, so coverings that keep the same
    letters are one object.
    """
    return {r: covering(alpha, r) for r in (0, *range(2, alpha.rank + 1))}


@lru_cache(maxsize=8192)
def _subword(word: tuple[str, ...], types: tuple[tuple[str, str], ...]) -> Nanoword:
    """The word ``word`` with letter types ``types``, one object per value.

    Equal coverings of different words are then the same object, so what is
    memoised on a covering (its shift-canonical form) is computed once across
    a population.  The cache keeps the 8192 subwords used last, which holds
    every distinct covering of the rank <= 6 population (4,746).  A Nanoword
    exposes no mutator, so sharing one is safe.
    """
    return Nanoword(word, dict(types), _trusted=True)


def compose(alpha: Nanoword, beta: Nanoword) -> Nanoword:
    """Concatenate, renaming beta's letters past alpha's alphabet on a clash.

    Rank is additive and no letter of the second word links a letter of the
    first, so the u-polynomial is additive as well.
    """
    if set(alpha.letters) & set(beta.letters):
        beta, _ = relabel_disjoint(beta, alpha.letters)
    tmap = alpha.types()
    tmap.update(beta.types())
    return Nanoword(alpha.word + beta.word, tmap, _trusted=True)


@lru_cache(maxsize=1024)
def cable(alpha: Nanoword, n: int) -> Nanoword:
    """The n-cable word: n parallel copies of the curve joined into one.

    Each letter A becomes n^2 copies A.i.j and the joins contribute letters
    C.0 .. C.(n-2), all of type a; the rank is rank * n^2 + n - 1.  Copy
    types: for type-a A, A.i.j is type a iff i <= j; for type-b A it is
    type a iff j > (i-1 mod n).  No names clash (A.i.j has two more
    dot-fields than A, C.k exactly one), so the word is built unchecked.

    Equal (word, n) requests get one shared, immutable object (for n = 1,
    the first equal word asked for), so what is memoised on a cable (its
    shift-canonical form) and what is cached by it (its invariants) is
    computed once.  The cache keeps the 1024 cables used last; the seven
    suites of ``vstring verify all --seed 7`` ask 3,648 times for 632
    distinct cables.  An invalid width raises on every call, since a raised
    error is never cached.
    """
    if n < 1:
        raise ValueError(f"cable width must be >= 1, got {n}")
    if n == 1:
        return alpha

    def strand_copy(i: int) -> list[str]:
        out: list[str] = []
        for p, name in enumerate(alpha.word):
            is_first = alpha.occurrences(name)[0] == p
            if alpha.type_of(name) == TYPE_A:
                if is_first:
                    out.extend(f"{name}.{i}.{j}" for j in range(n))
                else:
                    out.extend(f"{name}.{k}.{i}" for k in range(n - 1, -1, -1))
            else:
                if is_first:
                    out.append(f"{name}.0.{i}")
                    out.extend(f"{name}.{k}.{i}" for k in range(n - 1, 0, -1))
                else:
                    nxt = (i + 1) % n
                    out.extend(f"{name}.{nxt}.{j}" for j in range(n))
        return out

    word: list[str] = []
    for i in range(n - 1):
        word.extend(strand_copy(i))
        word.append(f"C.{i}")
    word.extend(strand_copy(n - 1))
    word.extend(f"C.{k}" for k in range(n - 2, -1, -1))

    tmap: dict[str, str] = {f"C.{k}": TYPE_A for k in range(n - 1)}
    for name in alpha.letters:
        if alpha.type_of(name) == TYPE_A:
            for i in range(n):
                for j in range(n):
                    tmap[f"{name}.{i}.{j}"] = TYPE_A if i <= j else TYPE_B
        else:
            for i in range(n):
                d = (i - 1) % n
                for j in range(n):
                    tmap[f"{name}.{i}.{j}"] = TYPE_A if j > d else TYPE_B
    return Nanoword(tuple(word), tmap, _trusted=True)


def r_dot(alpha: Nanoword, r: int) -> Nanoword:
    """Replace each letter A by nested copies A.1 .. A.r (same type).

    The first occurrence becomes A.1 A.2 ... A.r and the second the reverse,
    so every copy inherits A's linking pattern and n(A.i) = r * n(A); the
    result is therefore fixed by the r-covering.
    """
    if r < 1:
        raise ValueError(f"duplication factor must be >= 1, got {r}")
    if r == 1:
        return alpha
    out: list[str] = []
    for p, name in enumerate(alpha.word):
        if alpha.occurrences(name)[0] == p:
            out.extend(f"{name}.{i}" for i in range(1, r + 1))
        else:
            out.extend(f"{name}.{i}" for i in range(r, 0, -1))
    tmap = {
        f"{name}.{i}": alpha.type_of(name)
        for name in alpha.letters
        for i in range(1, r + 1)
    }
    return Nanoword(tuple(out), tmap, _trusted=True)


def gen_gamma_pq(p: int, q: int) -> Nanoword:
    """The two-parameter family X1..Xp Y1..Yq Xp..X1 Yq..Y1, all type a.

    Rank p + q, with n(Xi) = q and n(Yj) = -p, hence u-polynomial
    p t^q - q t^p.
    """
    if p < 1 or q < 1:
        raise ValueError("both parameters must be >= 1")
    xs = [f"X.{i}" for i in range(1, p + 1)]
    ys = [f"Y.{j}" for j in range(1, q + 1)]
    word = xs + ys + xs[::-1] + ys[::-1]
    return Nanoword(tuple(word), {x: TYPE_A for x in xs + ys}, _trusted=True)


def gen_alpha_n(n: int) -> Nanoword:
    """The weight-zero family X0 X(n-1) X1 X0 X2 X1 ... X(n-1) X(n-2).

    All letters are type a except X(n-1) which is type b; every weight n(Xi)
    is zero, so the word is fixed by the 0-covering.  Trivial for n in
    {3, 4, 6}; otherwise its based matrix is already primitive and rho = n.
    """
    if n < 3:
        raise ValueError(f"family is defined for n >= 3, got {n}")
    names = [f"X.{i}" for i in range(n)]
    word = [names[0], names[n - 1]]
    for i in range(1, n):
        word.extend((names[i], names[i - 1]))
    tmap = {names[i]: TYPE_A for i in range(n - 1)}
    tmap[names[n - 1]] = TYPE_B
    return Nanoword(tuple(word), tmap, _trusted=True)


def uncover_preimage(alpha: Nanoword, r: int) -> Nanoword:
    """A word whose r-covering is ``alpha`` (up to renaming), for r = 0 or r >= 2.

    Works for every r at once: each letter X with n(X) != 0 gets |n(X)|
    fresh letters nested around its second occurrence,

        x X y X z  ->  x X y A1 .. Ak X Ak .. A1 z,

    with the copies typed like X when n(X) < 0 and oppositely when
    n(X) > 0.  In the result every original letter has weight 0 and every
    added letter has weight +-1, so any covering with r != 1 deletes exactly
    the added letters.  The result always has zero u-polynomial.
    """
    if r < 0:
        raise ValueError(f"covering index must be >= 0, got {r}")
    if r == 1:
        raise ValueError("every word is its own 1-covering; no padding needed")
    base = canonical_relabel(alpha)
    nv = n_values(base)
    out: list[str] = []
    tmap = base.types()
    for p, name in enumerate(base.word):
        if base.occurrences(name)[0] == p:
            out.append(name)
            continue
        k = abs(nv[name])
        if k == 0:
            out.append(name)
            continue
        pad = [f"{name}_{i}" for i in range(1, k + 1)]
        pad_type = (
            base.type_of(name)
            if nv[name] < 0
            else (TYPE_B if base.type_of(name) == TYPE_A else TYPE_A)
        )
        for x in pad:
            tmap[x] = pad_type
        out.extend(pad)
        out.append(name)
        out.extend(reversed(pad))
    return Nanoword(tuple(out), tmap, _trusted=True)

