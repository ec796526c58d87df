"""Record one point of the benchmark trajectory as a JSON file.

Usage, from the root of a checkout::

    python3 tools/bench_record.py --out BENCH_7.json

Runs ``perfbench/run.py`` untraced ``RUNS`` times on each of its three
workloads for the ``run_seconds`` of ``BENCHMARK.json``, taking the
workloads in turn so that a slow spell of a shared host spreads over all of
them; run i uses seed i + 1.  The file holds the git SHA of the checkout,
the machine part of the first run's record line, and per workload the items
attempted and failed over all runs and, for each end-to-end metric, the
value of every run with their median and quartiles.
Exits 1 if a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import END_TO_END  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Untraced runs per workload.
RUNS = 5


def run_once(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The record line and the result line of one untraced run."""
    cmd = [
        sys.executable,
        str(ROOT / "perfbench" / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr.strip()}")
    record, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return record, result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def git_sha() -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    ).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    machine = None
    results: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    try:
        for i in range(RUNS):
            for name in WORKLOADS:
                record, result = run_once(name, i + 1, seconds)
                machine = machine or record["machine"]
                results[name].append(result)
                print(f"{name} run {i + 1}: wall_s {result['metrics']['wall_s']['value']:.3f}",
                      file=sys.stderr)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    workloads = {}
    for name, runs in results.items():
        workloads[name] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {
                metric: {"unit": unit, **summary([r["metrics"][metric]["value"] for r in runs])}
                for metric, unit in END_TO_END.items()
            },
        }
    bench = {
        "git_sha": git_sha(),
        "machine": machine,
        "runs": RUNS,
        "seconds": seconds,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(bench, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
