"""Benchmark of the vstring calculator: cold CLI processes, timed and checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample is one fresh, single-threaded Python process that runs one
workload through ``vstring.cli.main`` (see ``workloads.py``).  Closed loop,
one client: a sample starts when the previous one has ended.

Workloads, and why each was chosen:

* ``tabulate-r5``: ``vstring tabulate --max-rank 5`` (3274 records).  Nearly
  all word construction and shift canonicalisation over every raw word of
  rank <= 5; each word is seen once, so the caches only cost.  Exhaustive,
  so the seed is ignored.
* ``verify-all``: ``vstring verify all --seed N``.  Nearly all invariants and
  word operations; the same words are queried again across suites, so the
  ``lru_cache`` hit ratio is high.
* ``search-trivial``: nine ``equiv``/``reduce`` queries (``workloads.py``),
  one of them on a scramble of ``gen_alpha_n(6)`` drawn from the seed.
  Nearly all bounded search and successor generation; almost every word is
  new, so the caches see writes, not hits.

The tier-1 test run is not a workload: its time would follow the test set,
which later changes grow, rather than the program.

With ``--trace 0`` the samples repeat (at least one) until one more, as
long as the longest so far, would overrun ``--seconds``; the end-to-end
metrics are the samples' medians.
Every time is taken at the fixed reference speed of ``calibrate.py``: the
raw time divided by the mean time of a reference loop that the sample
process runs on the same thread during that time (every 0.1 s during the
work, every 0.02 s during set-up), times ``REFERENCE_S``.  On the shared
2-vCPU host the quartile spread over runs of the raw times was 7 to 26 %
for ``wall_s`` and 32 % for ``setup_s``; calibrated, 3 to 7 % and 6 %.
The record line keeps the raw times (``raw_wall_s``, ``raw_setup_s``).
``setup_s`` is the median, over nine set-up-only processes and the samples,
of the time from starting the process to vstring imported and the inputs
generated.  ``wall_s`` is the set-up time plus the work time, and
``items_per_s`` the items over ``wall_s``.  With ``--trace 1`` one
untraced and one traced sample give the per-layer metrics.  Every sample's output is checked; wrong answers count as
failed items.  The line before the last records the machine, the code and
every sample; the last line is the result.  Exits 1 without a result when
the checkout has no ``src/vstring`` or a sample crashes or times out.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S
from tracer import per_layer_spec
from workloads import QUERY_IDS, ROOT, WORKLOADS

BUILD = ROOT / ".bench_build"
SETUP_PROBES = 9
HASH_SEED = "0"
#: A run must end within 180 s; samples get what is left of this.
DEADLINE_S = 170
END_TO_END = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class SampleError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    """The samples' whole environment; nothing else of the caller's leaks in.

    In particular ``VSTRING_BUDGET``, which overrides every default search
    budget, is left out.  Byte code is cached under ``.bench_build`` so that
    every sample but the first finds it, whatever the checkout holds.
    """
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": HASH_SEED,
        "PYTHONNOUSERSITE": "1",
        "PYTHONPYCACHEPREFIX": str(BUILD / "pycache"),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }


def run_sample(workload: str, seed: int, flags: list[str], deadline: float) -> dict:
    """Start one sample process, wait for it and return its timings."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "workloads.py"), workload, str(seed), *flags]
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(deadline - spawned, 1),
        )
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"{' '.join(cmd[2:])} did not end in time") from exc
    ended = time.perf_counter()
    if proc.returncode != 0:
        raise SampleError(f"{' '.join(cmd[2:])} exited {proc.returncode}: {proc.stderr.strip()}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["process_s"] = ended - spawned
    out["raw_setup_s"] = out.pop("setup_end") - spawned - out["setup_probe_s"]
    out["setup_s"] = out["raw_setup_s"] * REFERENCE_S / out["setup_ref"]
    if "work_s" in out:
        out["raw_wall_s"] = out["raw_setup_s"] + out["work_s"]
        out["wall_s"] = out["setup_s"] + out["work_s"] * REFERENCE_S / out["work_ref"]
    return out


def git_state() -> dict:
    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode or Path(top.stdout.strip()).resolve() != ROOT:
            return {"git_sha": None, "git_dirty": None}
        sha = git("rev-parse", "HEAD").stdout.strip()
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha, "git_dirty": dirty}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return "unknown"


def machine(sample: dict) -> dict:
    return {
        **git_state(),
        "python": sample["python"],
        "numpy": sample["numpy"],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "hash_seed": sample["hash_seed"],
    }


def end_to_end(probes: list[dict], samples: list[dict]) -> dict[str, float]:
    return {
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "items_per_s": statistics.median(s["attempted"] / s["wall_s"] for s in samples),
        "setup_s": statistics.median(s["setup_s"] for s in probes + samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vstring" / "__init__.py").is_file():
        print(f"error: no vstring sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    BUILD.mkdir(exist_ok=True)
    deadline = time.perf_counter() + DEADLINE_S
    try:
        if args.trace:
            untraced = run_sample(args.workload, args.seed, [], deadline)
            traced = run_sample(args.workload, args.seed, ["--trace"], deadline)
            samples = [untraced, traced]
            layers = traced.pop("layers")
            layers["proc.cpu_s"] = untraced["cpu_s"]
            layers["trace.overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1
            metrics = {
                name: {"value": layers.get(name, 0), "unit": unit}
                for name, unit, _ in per_layer_spec(QUERY_IDS)
            }
        else:
            # The first process also fills the byte-code cache; it is not a sample.
            run_sample(args.workload, args.seed, ["--setup-only"], deadline)
            probes = [
                run_sample(args.workload, args.seed, ["--setup-only"], deadline)
                for _ in range(SETUP_PROBES)
            ]
            samples = []
            started = time.perf_counter()
            while True:
                samples.append(run_sample(args.workload, args.seed, [], deadline))
                elapsed = time.perf_counter() - started
                if elapsed + max(s["process_s"] for s in samples) > args.seconds:
                    break
            metrics = {
                name: {"value": value, "unit": END_TO_END[name]}
                for name, value in end_to_end(probes, samples).items()
            }
    except SampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    run = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    print(json.dumps({"run": run, "machine": machine(samples[0]), "samples": samples}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
