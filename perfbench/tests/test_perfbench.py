"""Tests of the benchmark's own code: tracing, scramble and output checks.

Run from the checkout root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import random
import signal
import sys
import time

import pytest

import vstring
import vstring.cli
from vstring import (
    EMPTY,
    MoveKind,
    find_sites,
    gen_alpha_n,
    parse,
    shift_canonical,
)
from vstring.core import Nanoword
from vstring.suites import SUITES

from calibrate import SpeedProbe, reference_loop, trimmed_mean
from checks import TABULATE_R5_LINES, check_query, check_tabulate, check_verify, parse_site
from tracer import Tracer, per_layer_spec
from workloads import QUERY_IDS, ROOT, SCRAMBLE_MOVES, _cli, scramble, search_queries


class FakeClock:
    """A clock that advances one second per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_of_nested_spans():
    tracer = Tracer(clock=FakeClock())
    inner = tracer.wrap("m.inner", lambda: None)
    outer = tracer.wrap("m.outer", lambda: (inner(), inner()))
    outer()
    # Readings: outer 1, inner 2-3, inner 4-5, outer 6.
    assert tracer.stats["m.inner"] == [2, 2.0, 2.0]
    assert tracer.stats["m.outer"] == [1, 5.0, 3.0]
    assert tracer.self_total() == 5.0


def test_self_time_of_recursive_spans():
    tracer = Tracer(clock=FakeClock())

    def countdown(n):
        if n:
            traced(n - 1)

    traced = tracer.wrap("m.countdown", countdown)
    traced(2)
    # Readings: depth 0 at 1 and 6, depth 1 at 2 and 5, depth 2 at 3 and 4.
    calls, inclusive, self_s = tracer.stats["m.countdown"]
    assert calls == 3
    assert inclusive == 5.0 + 3.0 + 1.0
    assert self_s == 5.0  # the outermost span, each second counted once
    assert tracer.self_total() == 5.0


def test_self_time_when_a_span_raises():
    tracer = Tracer(clock=FakeClock())

    def fail():
        raise ValueError

    inner = tracer.wrap("m.fail", fail)

    def outer():
        with pytest.raises(ValueError):
            inner()

    tracer.wrap("m.outer", outer)()
    assert tracer.stats["m.fail"][0] == 1
    assert tracer.self_total() == tracer.stats["m.outer"][1]


def _bindings():
    """Every object the tracer may replace, keyed by where it is bound."""
    found = {("Nanoword.__init__",): Nanoword.__dict__["__init__"]}
    for name, module in sys.modules.items():
        if name == "vstring" or name.startswith("vstring."):
            for attr, value in vars(module).items():
                found[(name, attr)] = value
    for key, fn in SUITES.items():
        found[("SUITES", key)] = fn
    return found


def test_uninstall_removes_every_wrapper():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    assert vstring.cli.main is not before[("vstring.cli", "main")]
    assert vstring.core.shift_canonical is not before[("vstring.core", "shift_canonical")]
    assert SUITES["u-cable"] is not before[("SUITES", "u-cable")]
    vstring.distinguish(parse("AABCBC|aaa"), EMPTY)
    tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert not any(hasattr(value, "perfbench_original") for value in after.values())
    assert tracer.stats["invariants.distinguish"][0] >= 2  # recursed through coverings


def test_traced_search_counts_successors_and_states():
    tracer = Tracer()
    tracer.install()
    try:
        result = vstring.search.equivalent_bounded(gen_alpha_n(3), EMPTY)
    finally:
        tracer.uninstall()
    assert result.verdict == "homotopic"
    layers = tracer.layer_metrics()
    assert layers["search.successors"] >= layers["search.unique_states"] > 0
    assert layers["search.trace_steps"] == len(result.trace)
    assert layers["core.Nanoword.calls"] > layers["core.apply_move.calls"] > 0


def test_scramble_is_deterministic_in_the_seed():
    words = {seed: scramble(gen_alpha_n(6), SCRAMBLE_MOVES, random.Random(seed)) for seed in range(8)}
    again = {seed: scramble(gen_alpha_n(6), SCRAMBLE_MOVES, random.Random(seed)) for seed in range(8)}
    assert words == again
    assert len({w.text() for w in words.values()}) > 1
    # An odd walk always ends in the same shift class.
    assert len({shift_canonical(w).text() for w in words.values()}) == 1
    assert all(w.rank == 6 for w in words.values())


def test_query_ids_match_the_queries():
    assert tuple(qid for qid, _, _ in search_queries(0)) == QUERY_IDS


def test_parse_site_inverts_str():
    word = parse("ABCBDCAD|aabb")
    kinds = (MoveKind.H1_UP, MoveKind.H2_UP, MoveKind.H2A_UP, MoveKind.H3B, MoveKind.SHIFT_INV)
    sites = [s for kind in kinds for s in find_sites(word, kind)]
    assert sites
    for site in sites:
        assert parse_site(str(site)) == site
    with pytest.raises(ValueError):
        parse_site("H9@1,2")


def test_query_checks_replay_the_printed_trace():
    args = ["equiv", "ABCBDCAD|aabb", "BACDBCDA|aabb"]
    code, text = _cli(vstring.cli.main, args)
    assert check_query(args, text, code, "homotopic")
    assert not check_query(args, text, code, "distinct")
    head, step = text.splitlines()[:2]
    broken = "\n".join([head, step.replace("->  ", "->  AB")])
    assert not check_query(args, broken, code, "homotopic")
    args = ["reduce", "ABCABC|aba"]
    code, text = _cli(vstring.cli.main, args)
    assert check_query(args, text, code, 0)
    assert not check_query(args, text, code, 1)


def test_verify_check_counts_failures():
    text = "structural: 10/12 instances pass [FAILED]\n"
    attempted, failed = check_verify(text, 2, seed=3)
    assert attempted == 12 + 6  # six suites missing
    assert failed == 2 + 6
    counts = "".join(f"{s}: 5/5 instances pass [ok]\n" for s in sorted(SUITES))
    assert check_verify(counts, 0, seed=3) == (35, 0)
    assert check_verify(counts, 0, seed=7) == (35, 35)


def test_tabulate_check_rejects_other_output(tmp_path):
    out = tmp_path / "t.jsonl"
    out.write_text("{}\n" * TABULATE_R5_LINES)
    assert check_tabulate(str(out)) == TABULATE_R5_LINES


def test_benchmark_file_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == per_layer_spec(QUERY_IDS)
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "items_per_s", "setup_s", "peak_rss_mb"]


def test_trimmed_mean_drops_the_extremes():
    assert trimmed_mean([100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, -50.0]) == 4.5
    assert trimmed_mean([2.0, 4.0]) == 3.0


def test_speed_probe_times_the_loop_during_the_block_and_disarms():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(interval=0.01) as probe:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(probe.times) >= 5
    assert probe.spent == pytest.approx(sum(probe.times))
    assert min(probe.times) <= probe.reference() <= max(probe.times)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_speed_probe_under_tracing_is_a_span_of_its_own():
    tracer = Tracer()
    with SpeedProbe(interval=0.01, loop=tracer.wrap("calibrate.reference", reference_loop)) as probe:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    calls, total, own = tracer.stats["calibrate.reference"]
    assert calls == len(probe.times) > 0
    assert own == total <= probe.spent
