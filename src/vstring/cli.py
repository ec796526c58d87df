"""Command-line front end.

Subcommands cover invariant computation (``compute``), the word-producing
operations (``cover``, ``compose``, ``cable``, ``rdot``, ``preimage``,
``gen``), bounded homotopy search (``reduce``, ``equiv``), the property
suites (``verify``), exhaustive tabulation (``tabulate``) and covering-graph
export (``graph``).  Each subcommand, and each ``gen`` family, has one
``_cmd_*`` handler holding its body and its size guard; the subparser
registers it as ``run``, and ``main`` only calls it.  ``main`` builds its
parser once per process (again only if ``SUITES`` changes); ``build_parser``
returns a fresh one.

Exit codes: 0 for success (including an "unknown" equivalence verdict), 1 for
usage or input errors, 2 when a verification suite fails.  Output depends on
the arguments only: ``reduce`` and ``equiv`` search with ``--budget``
("rank_increase,max_states,max_depth") or ``DEFAULT_BUDGET``, and
``tabulate --oracle`` names each class by ``search.oracle_class``, within
``search.ORACLE_BUDGET``.  Each ``verify`` default is stated once, in
``build_parser``.  Requests whose size would explode are rejected with exit
code 1 before any work: ``cable``, ``rdot``, ``preimage`` and ``gen``
results above rank ``MAX_WORD_RANK``, ``compute`` words above rank
``MAX_MATRIX_RANK`` = 1000, ``reduce`` and ``equiv`` words above rank
``MAX_SEARCH_RANK`` = 32 or a ``--budget`` of more than ``MAX_SEARCH_STATES``
= 1,000,000 states, ``--max-rank`` above ``MAX_TABULATE_RANK`` = 6
(``tabulate``, ``graph``), ``MAX_ORACLE_RANK`` = 3 (``tabulate --oracle``)
or ``MAX_VERIFY_RANK`` = 4 (``verify``), and a ``verify --sample`` below 0
or above ``MAX_VERIFY_SAMPLE``.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import Sequence

from .core import MoveTrace, NanowordError, canonical_relabel, parse
from .enumeration import canonical_population
from .invariants import invariant_bundle, n_values, u_polynomial
from .ops import cable, compose, covering, gen_alpha_n, gen_gamma_pq, r_dot, uncover_preimage
from .search import DEFAULT_BUDGET, SearchBudget, covering_graph, equivalent_bounded, reduce_bounded
from .suites import SUITES, run_suite
from .tabulate import tabulation_records, record_to_json

__all__ = ["main", "build_parser"]

#: Largest rank of a word that ``cable``, ``rdot``, ``preimage`` and ``gen``
#: will build.
MAX_WORD_RANK = 10_000
#: Largest rank of a word that ``compute`` will take: reducing its based
#: matrix costs O(rank^3) time and O(rank^2) memory.
MAX_MATRIX_RANK = 1000
#: Largest rank of a word that ``reduce`` and ``equiv`` will search from: one
#: expansion of a rank-k state costs about k^3, from its 8k^2 letter-adding
#: sites, each of which builds and keys a word of length about 2k, and a
#: search makes many.
MAX_SEARCH_RANK = 32
#: Largest ``--budget`` state cap of ``reduce`` and ``equiv``, 5x the default.
#: A stored state takes about 0.6 KB: a 100,000-state search from a rank-8 or
#: rank-16 word peaked at 90 MB, so this cap means about 0.64 GB.
MAX_SEARCH_STATES = 1_000_000
#: Largest ``--max-rank`` that ``tabulate`` and ``graph`` will enumerate;
#: the raw word count grows factorially with the rank.
MAX_TABULATE_RANK = 6
#: Largest ``--max-rank`` of ``verify``, whose suites do far more per word:
#: move-invariance alone runs 921,482 instances at rank 5.
MAX_VERIFY_RANK = 4
#: Largest ``--max-rank`` of ``tabulate --oracle``, which runs one bounded
#: search per word: ``search.ORACLE_BUDGET`` was checked to merge the same
#: words as the default budget up to rank 3 only.
MAX_ORACLE_RANK = 3
#: Largest ``verify --sample``; ranks 4-5 hold only 3,246 shift classes.
MAX_VERIFY_SAMPLE = 1000


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise SystemExit(f"error: {message}")


def _budget(text: str | None) -> SearchBudget:
    budget = DEFAULT_BUDGET if text is None else SearchBudget.parse(text)
    _check_size("--budget max_states", budget.max_states, MAX_SEARCH_STATES)
    return budget


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="vstring", description=__doc__.split("\n\n")[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="invariant bundle of a word")
    p.add_argument("word")
    p.add_argument("--json", action="store_true", dest="as_json")
    p.set_defaults(run=_cmd_compute)

    p = sub.add_parser("cover", help="r-covering of a word")
    p.add_argument("word")
    p.add_argument("-r", type=int, required=True)
    p.set_defaults(run=_cmd_cover)

    p = sub.add_parser("compose", help="composition of two words")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(run=_cmd_compose)

    p = sub.add_parser("cable", help="n-cable of a word")
    p.add_argument("word")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(run=_cmd_cable)

    p = sub.add_parser("rdot", help="nested r-fold duplication of a word")
    p.add_argument("word")
    p.add_argument("-r", type=int, required=True)
    p.set_defaults(run=_cmd_rdot)

    p = sub.add_parser("preimage", help="word whose r-covering is the input")
    p.add_argument("word")
    p.add_argument("-r", type=int, required=True)
    p.set_defaults(run=_cmd_preimage)

    p = sub.add_parser("gen", help="generate a standard family member")
    gsub = p.add_subparsers(dest="family", required=True)
    g = gsub.add_parser("gamma", help="the p,q two-block family")
    g.add_argument("p", type=int)
    g.add_argument("q", type=int)
    g.set_defaults(run=_cmd_gamma)
    g = gsub.add_parser("alphan", help="the weight-zero cyclic family")
    g.add_argument("n", type=int)
    g.set_defaults(run=_cmd_alphan)

    p = sub.add_parser("reduce", help="search for a lower-rank representative")
    p.add_argument("word")
    p.add_argument("--budget", help="rank_increase,max_states,max_depth")
    p.set_defaults(run=_cmd_reduce)

    p = sub.add_parser("equiv", help="bounded homotopy test for two words")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--budget", help="rank_increase,max_states,max_depth")
    p.set_defaults(run=_cmd_equiv)

    p = sub.add_parser("verify", help="run a named property suite")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--max-rank", type=int, default=3)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--sample", type=int, default=200)
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("tabulate", help="enumerate words and their invariants")
    p.add_argument("--max-rank", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--oracle",
        action="store_true",
        help="also merge words a bounded search proves homotopic",
    )
    p.set_defaults(run=_cmd_tabulate)

    p = sub.add_parser("graph", help="covering-map graph over small words, as DOT")
    p.add_argument("--max-rank", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--dot", required=True)
    p.set_defaults(run=_cmd_graph)
    return top


def _check_size(what: str, value: int, limit: int) -> None:
    if value > limit:
        raise ValueError(f"{what} {value} exceeds the limit {limit}")


def _check_rank(max_rank: int, limit: int) -> None:
    if max_rank < 0:
        raise ValueError(f"max rank {max_rank} is negative")
    _check_size("--max-rank", max_rank, limit)


def _print_trace(trace: MoveTrace) -> None:
    words = trace.replay()
    for site, word in zip(trace.steps, words[1:]):
        print(f"  {site}  ->  {word.text()}")


def _cmd_compute(args) -> None:
    word = parse(args.word)
    _check_size("word rank", word.rank, MAX_MATRIX_RANK)
    bundle = invariant_bundle(word)
    if args.as_json:
        print(json.dumps(bundle, sort_keys=True))
        return
    print(f"word: {bundle['word']}")
    print(f"rank: {bundle['rank']}")
    print("n:", " ".join(f"{x}={v}" for x, v in bundle["n_values"].items()) or "-")
    print(f"u: {u_polynomial(word)}")
    print(f"rho: {bundle['rho']}")


def _cmd_cover(args) -> None:
    print(covering(parse(args.word), args.r).text())


def _cmd_compose(args) -> None:
    print(compose(parse(args.first), parse(args.second)).text())


def _cmd_cable(args) -> None:
    word, n = parse(args.word), args.n
    if n >= 1:  # ops.cable rejects a smaller width with its own message
        _check_size("cable rank", word.rank * n * n + n - 1, MAX_WORD_RANK)
    print(canonical_relabel(cable(word, n)).text())


def _cmd_rdot(args) -> None:
    word = parse(args.word)
    _check_size("r-dot rank", word.rank * args.r, MAX_WORD_RANK)
    print(canonical_relabel(r_dot(word, args.r)).text())


def _cmd_preimage(args) -> None:
    word = parse(args.word)
    padding = sum(abs(v) for v in n_values(word).values())
    _check_size("preimage rank", word.rank + padding, MAX_WORD_RANK)
    print(canonical_relabel(uncover_preimage(word, args.r)).text())


def _cmd_gamma(args) -> None:
    _check_size("family rank", args.p + args.q, MAX_WORD_RANK)
    print(canonical_relabel(gen_gamma_pq(args.p, args.q)).text())


def _cmd_alphan(args) -> None:
    _check_size("family rank", args.n, MAX_WORD_RANK)
    print(canonical_relabel(gen_alpha_n(args.n)).text())


def _cmd_reduce(args) -> None:
    word = parse(args.word)
    _check_size("word rank", word.rank, MAX_SEARCH_RANK)
    reduced, trace = reduce_bounded(word, _budget(args.budget))
    print(reduced.text())
    _print_trace(trace)


def _cmd_equiv(args) -> None:
    words = parse(args.first), parse(args.second)
    for word in words:
        _check_size("word rank", word.rank, MAX_SEARCH_RANK)
    result = equivalent_bounded(*words, _budget(args.budget))
    print(result.verdict)
    if result.trace is not None:
        _print_trace(result.trace)
    if result.report is not None:
        for name, va, vb in result.report.evidence:
            print(f"  {name}: {va} vs {vb}")


def _cmd_verify(args) -> int:
    _check_rank(args.max_rank, MAX_VERIFY_RANK)
    if args.sample < 0:
        raise ValueError(f"--sample {args.sample} is negative")
    _check_size("--sample", args.sample, MAX_VERIFY_SAMPLE)
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    failed = 0
    for name in names:
        report = run_suite(name, args.max_rank, args.seed, args.sample)
        print(report.summary())
        for line in report.failures:
            print(f"  FAIL {line}")
        failed += report.failed
    return 2 if failed else 0


def _cmd_tabulate(args) -> None:
    _check_rank(args.max_rank, MAX_ORACLE_RANK if args.oracle else MAX_TABULATE_RANK)
    count = 0
    with open(args.out, "w") as fh:
        for count, record in enumerate(tabulation_records(args.max_rank, oracle=args.oracle), 1):
            fh.write(record_to_json(record) + "\n")
    print(f"wrote {count} records to {args.out}")


def _cmd_graph(args) -> None:
    _check_rank(args.max_rank, MAX_TABULATE_RANK)
    if args.r < 0:
        raise ValueError(f"covering index must be >= 0, got {args.r}")
    with open(args.dot, "w") as fh:
        graph = covering_graph(canonical_population(args.max_rank), args.r)
        fh.write(graph.to_dot())
    ok = all(graph.component_is_tree_with_root_loop(c) for c in graph.components())
    print(
        f"wrote {len(graph.nodes)} nodes to {args.dot}; "
        f"components are trees with a root loop: {ok}"
    )


@lru_cache(maxsize=1)
def _parser(suites: tuple[str, ...]) -> argparse.ArgumentParser:
    """``build_parser()``, built once per set of ``SUITES`` names, which it lists.

    Parsing leaves a parser as it was, so ``main`` reuses it.
    """
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser(tuple(SUITES)).parse_args(argv)
    try:
        return args.run(args) or 0
    except (NanowordError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
