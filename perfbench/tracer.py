"""Per-layer tracing of vstring, installed from outside the package.

``Tracer.install`` wraps every public function of every loaded ``vstring``
module at each module attribute that binds it: the modules import each
other's functions by name, so a wrapper on the defining module alone would
miss most calls.  The values of public dict attributes that are such
functions (the ``SUITES`` table) get wrappers named by their key, and
``Nanoword.__init__`` gets a call counter.  ``Tracer.uninstall`` puts every
original back.

Each wrapped call is a span.  A span's self time is its duration minus the
durations of the spans it directly contains, so the self times of all spans
add up to the duration of the outermost ones, recursion included.
"""

from __future__ import annotations

import functools
import sys
import time

SEARCH_SPANS = frozenset({"search.equivalent_bounded", "search.reduce_bounded"})
CACHED = ("invariants.n_values", "invariants.head_tail_matrices", "invariants.based_matrix")
#: Functions reported with calls and self time.
TIMED = (
    "core.shift_canonical",
    "core.canonical_relabel",
    "core.find_sites",
    "core.apply_move",
    *CACHED,
    "invariants.reduce_to_primitive",
    "invariants.bm_isomorphic",
    "invariants.u_polynomial",
    "invariants.distinguish",
    "ops.covering",
    "ops.cable",
    "ops.compose",
    "tabulate.record_for",
)
#: Functions reported with self time only.
SELF_ONLY = (
    "enumeration.canonical_population",
    "enumeration.sample_nanowords",
    "search.equivalent_bounded",
    "search.reduce_bounded",
    "tabulate.record_to_json",
    "cli.main",
)
SUITE_NAMES = (
    "composite-bm",
    "cover-cable-commute",
    "move-invariance",
    "reduction-confluence",
    "rho-bounds",
    "structural",
    "u-cable",
)


def per_layer_spec(query_ids) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = [("core.Nanoword.calls", "count", "lower")]
    for name in TIMED:
        spec += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    for name in SELF_ONLY:
        spec.append((f"{name}.self_s", "s", "lower"))
    spec += [
        ("core.shift_canonical.memo_ratio", "ratio", "higher"),
        ("core.find_sites.sites", "count", "lower"),
        *((f"{name}.hit_ratio", "ratio", "higher") for name in CACHED),
        ("invariants.reduce_to_primitive.steps", "count", "lower"),
        ("search.successors", "count", "lower"),
        ("search.unique_states", "count", "lower"),
        ("search.unique_ratio", "ratio", "higher"),
        ("search.trace_steps", "count", "lower"),
        *((f"search.query.{q}.s", "s", "lower") for q in query_ids),
    ]
    for suite in SUITE_NAMES:
        spec += [(f"suites.{suite}.s", "s", "lower"), (f"suites.{suite}.instances", "count", "higher")]
    spec += [
        ("proc.cpu_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.self_share", "ratio", "higher"),
    ]
    return spec


def _vstring_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "vstring" or name.startswith("vstring.")
    ]


def _span_name(fn) -> str:
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


class Tracer:
    """Spans and counters for one process; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: span name -> [calls, inclusive seconds, self seconds]
        self.stats: dict[str, list] = {}
        self.nanowords = 0
        self.sites = 0
        self.reduction_steps = 0
        self.canon_reached = 0  # shift_canonical calls made by shift_canonical_text
        self.successors = 0
        self.trace_steps = 0
        self.unique_states: set[str] = set()
        self.suite_instances: dict[str, int] = {}
        self._stack: list[list] = []  # [name, seconds covered by child spans]
        self._patches: list[tuple[object, str, object, bool]] = []
        self._cached: dict[str, object] = {}

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn):
        """A function that records a ``name`` span around each call of ``fn``."""
        stack, clock = self._stack, self.clock
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        after = self._after_hook(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += span
                stat[2] += span - frame[1]
                if stack:
                    stack[-1][1] += span
            if after is not None:
                after(result)
            return result

        traced.perfbench_original = fn
        return traced

    def _in_search(self) -> bool:
        return any(frame[0] in SEARCH_SPANS for frame in self._stack)

    def _after_hook(self, name: str):
        """Counter update run on a span's result, once the span is closed."""
        if name == "core.find_sites":
            def after(sites):
                self.sites += len(sites)
        elif name == "invariants.reduce_to_primitive":
            def after(result):
                self.reduction_steps += len(result[1])
        elif name == "core.shift_canonical":
            def after(_):
                if self._stack and self._stack[-1][0] == "core.shift_canonical_text":
                    self.canon_reached += 1
        elif name == "core.apply_move":
            def after(_):
                if self._in_search():
                    self.successors += 1
        elif name == "core.shift_canonical_text":
            def after(key):
                if self._in_search():
                    self.unique_states.add(key)
        elif name == "search.equivalent_bounded":
            def after(result):
                if result.trace is not None:
                    self.trace_steps += len(result.trace)
        elif name == "search.reduce_bounded":
            def after(result):
                self.trace_steps += len(result[1])
        elif name.startswith("suites.") and name.partition(".")[2] in SUITE_NAMES:
            suite = name.partition(".")[2]

            def after(report):
                self.suite_instances[suite] = self.suite_instances.get(suite, 0) + report.total
        else:
            after = None
        return after

    # -- installation ------------------------------------------------------

    def _patch(self, owner, key, original, replacement, item: bool) -> None:
        if item:
            owner[key] = replacement
        else:
            setattr(owner, key, replacement)
        self._patches.append((owner, key, original, item))

    def install(self) -> None:
        """Wrap the public functions of every loaded vstring module."""
        modules = _vstring_modules()
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and callable(value)
                    and not isinstance(value, type)
                    and getattr(value, "__module__", "") == module.__name__
                ):
                    name = _span_name(value)
                    wrappers[id(value)] = self.wrap(name, value)
                    if hasattr(value, "cache_info"):
                        self._cached[name] = value
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, attr, value, wrappers[id(value)], item=False)
                elif isinstance(value, dict) and not attr.startswith("_"):
                    for key, fn in list(value.items()):
                        if id(fn) in wrappers:
                            name = f"{fn.__module__.rpartition('.')[2]}.{key}"
                            self._patch(value, key, fn, self.wrap(name, fn), item=True)
        nanoword = sys.modules["vstring.core"].Nanoword
        init = nanoword.__init__

        def counting_init(word, *args, **kwargs):
            self.nanowords += 1
            init(word, *args, **kwargs)

        counting_init.perfbench_original = init
        self._patch(nanoword, "__init__", init, counting_init, item=False)

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            owner, key, original, item = self._patches.pop()
            if item:
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- results -----------------------------------------------------------

    def self_total(self) -> float:
        return sum(stat[2] for stat in self.stats.values())

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values that the spans and counters give, by metric name."""
        def stat(name: str) -> list:
            return self.stats.get(name, [0, 0.0, 0.0])

        out: dict[str, float] = {"core.Nanoword.calls": self.nanowords}
        for name in TIMED:
            out[f"{name}.calls"] = stat(name)[0]
            out[f"{name}.self_s"] = stat(name)[2]
        for name in SELF_ONLY:
            out[f"{name}.self_s"] = stat(name)[2]
        memo_calls = stat("core.shift_canonical_text")[0]
        out["core.shift_canonical.memo_ratio"] = (
            1 - self.canon_reached / memo_calls if memo_calls else 0.0
        )
        out["core.find_sites.sites"] = self.sites
        for name, fn in self._cached.items():
            if name in CACHED:
                info = fn.cache_info()
                lookups = info.hits + info.misses
                out[f"{name}.hit_ratio"] = info.hits / lookups if lookups else 0.0
        out["invariants.reduce_to_primitive.steps"] = self.reduction_steps
        out["search.successors"] = self.successors
        out["search.unique_states"] = len(self.unique_states)
        out["search.unique_ratio"] = (
            len(self.unique_states) / self.successors if self.successors else 0.0
        )
        out["search.trace_steps"] = self.trace_steps
        for suite in SUITE_NAMES:
            out[f"suites.{suite}.s"] = stat(f"suites.{suite}")[1]
            out[f"suites.{suite}.instances"] = self.suite_instances.get(suite, 0)
        return out
