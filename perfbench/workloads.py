"""One cold run of one benchmark workload, in a fresh process.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/workloads.py WORKLOAD SEED [--trace] [--setup-only]

``run.py`` starts this script for every sample, so the ``lru_cache``s of
``vstring.invariants`` and the per-word canonical-form memo start cold, as
they do for every CLI call.  The commands go through ``vstring.cli.main``
with their output captured; the output is checked after the clock stops.
While the work runs, a ``calibrate.SpeedProbe`` times the reference loop
every 0.1 s; the probes' time is taken out of the work time.
The last stdout line is a JSON object with the ``perf_counter`` reading
taken at the end of set-up, the work time and the mean reference time.
``perf_counter`` reads the system-wide monotonic clock on Linux, so the
parent can subtract the time it started the process.  ``run.py`` imports this module without ``src`` on
its path, so vstring is imported only inside functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

from calibrate import SpeedProbe, reference_loop

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("tabulate-r5", "verify-all", "search-trivial")
TABULATE_OUT = ROOT / ".bench_build" / "tabulate-r5.jsonl"
#: Moves in the seeded scramble of ``gen_alpha_n(6)``.  The H3-family moves
#: of that word reach four shift classes, whose distance to ``0`` costs the
#: search 2.5 to 7.5 s.  Each move changes the parity of the class, and every
#: odd-length walk ends in the same class, so the seed changes the walk and
#: the word's presentation but not the amount of search.
SCRAMBLE_MOVES = 5
SETUP_PROBE_INTERVAL_S = 0.02


def scramble(word, moves: int, rng: random.Random):
    """``word`` after ``moves`` rank-preserving moves, each drawn uniformly
    from the sites of every shift of the current word, relabelled canonically."""
    from vstring.core import RANK_PRESERVING, apply_move, canonical_relabel, find_sites, shift_orbit

    for _ in range(moves):
        choices = [
            (rotated, site)
            for rotated in shift_orbit(word)
            for kind in RANK_PRESERVING
            for site in find_sites(rotated, kind)
        ]
        rotated, site = rng.choice(choices)
        word = apply_move(rotated, site)
    return canonical_relabel(word)


def search_queries(seed: int) -> list[tuple[str, list[str], object]]:
    """(id, CLI arguments, expected verdict or reached rank) of every query."""
    from vstring import canonical_relabel, gen_alpha_n

    alpha = {n: canonical_relabel(gen_alpha_n(n)).text() for n in (3, 4, 5, 6)}
    scrambled = scramble(gen_alpha_n(6), SCRAMBLE_MOVES, random.Random(seed)).text()
    return [
        ("equiv-alpha3", ["equiv", alpha[3], "0"], "homotopic"),
        ("equiv-alpha4", ["equiv", alpha[4], "0"], "homotopic"),
        ("equiv-alpha6", ["equiv", alpha[6], "0"], "homotopic"),
        ("equiv-h3b", ["equiv", "ABCBDCAD|aabb", "BACDBCDA|aabb"], "homotopic"),
        ("equiv-alpha5", ["equiv", alpha[5], "0"], "distinct"),
        ("equiv-rho4", ["equiv", "0", "ABABCDCD|aaaa"], "distinct"),
        ("reduce-abcabc", ["reduce", "ABCABC|aba"], 0),
        # rho of this word is 4, its rank, so no search can reduce it; the
        # budget makes the search stop on max_states.
        ("reduce-max-states", ["reduce", "ABCBDCAD|aabb", "--budget", "2,1000,64"], 4),
        ("equiv-scramble", ["equiv", scrambled, "0"], "homotopic"),
    ]


QUERY_IDS = (
    "equiv-alpha3",
    "equiv-alpha4",
    "equiv-alpha6",
    "equiv-h3b",
    "equiv-alpha5",
    "equiv-rho4",
    "reduce-abcabc",
    "reduce-max-states",
    "equiv-scramble",
)


def _cli(main, args: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def run(workload: str, seed: int, trace: bool, setup_only: bool) -> dict:
    # Set-up is short, so its probes come more often than the work's.
    with SpeedProbe(interval=SETUP_PROBE_INTERVAL_S) as setup_probe:
        import vstring
        import vstring.cli
        import numpy

        if not Path(vstring.__file__).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"vstring imported from {vstring.__file__}, not from {ROOT / 'src'}")
        queries = search_queries(seed) if workload == "search-trivial" else []
    setup_end = time.perf_counter()
    result = {
        "setup_end": setup_end,
        "setup_probe_s": setup_probe.spent,
        "setup_ref": setup_probe.reference(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    }
    if setup_only:
        return result

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    main = vstring.cli.main
    query_s: dict[str, float] = {}
    outputs = []
    # Under tracing the probe is a span of its own, so that no vstring span
    # counts its time.
    probe = SpeedProbe(loop=tracer.wrap("calibrate.reference", reference_loop)) if trace else SpeedProbe()
    work_start = time.perf_counter()
    with probe:
        if workload == "tabulate-r5":
            outputs.append(_cli(main, ["tabulate", "--max-rank", "5", "--out", str(TABULATE_OUT)]))
        elif workload == "verify-all":
            outputs.append(_cli(main, ["verify", "all", "--seed", str(seed)]))
        else:
            for qid, args, _ in queries:
                start, probed = time.perf_counter(), probe.spent
                outputs.append(_cli(main, args))
                query_s[qid] = time.perf_counter() - start - (probe.spent - probed)
    work_end = time.perf_counter()
    work_s = work_end - work_start - probe.spent
    usage = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.uninstall()

    from checks import TABULATE_R5_LINES, check_query, check_tabulate, check_verify

    if workload == "tabulate-r5":
        code, _ = outputs[0]
        attempted = TABULATE_R5_LINES
        failed = attempted if code else check_tabulate(str(TABULATE_OUT))
    elif workload == "verify-all":
        code, text = outputs[0]
        attempted, failed = check_verify(text, code, seed)
    else:
        attempted = len(queries)
        failed = sum(
            not check_query(args, text, code, expected)
            for (_, args, expected), (code, text) in zip(queries, outputs)
        )
    result.update(
        work_s=work_s,
        work_ref=probe.reference(),
        probes=len(probe.times),
        cpu_s=usage.ru_utime + usage.ru_stime - probe.spent,
        peak_rss_mb=usage.ru_maxrss / 1024,
        attempted=attempted,
        failed=failed,
    )
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers.update({f"search.query.{qid}.s": s for qid, s in query_s.items()})
        layers["trace.self_share"] = (tracer.self_total() - probe.spent) / work_s
        result["layers"] = layers
    return result


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}")
    result = run(workload, seed, "--trace" in argv[2:], "--setup-only" in argv[2:])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
