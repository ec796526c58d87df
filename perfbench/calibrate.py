"""Machine-speed calibration of the samples' timings.

The benchmark runs on a few cores of a shared host, whose speed drifts with
its neighbours' load: the same pure-Python loop takes 10 to 30 % longer in
some 30-second windows than in others, and that drift is the same for any
code run on the same core at the same time.  So each sample process also
times a fixed reference loop, interleaved with its own work on the same
thread: ``SpeedProbe`` runs it from a ``SIGALRM`` handler every
``PROBE_INTERVAL_S`` of wall time while the workload runs, and more often
during set-up.  A timing divided
by the mean reference time over the same interval and multiplied by
``REFERENCE_S`` is the timing at a fixed reference speed, which stays
steady while the host's speed drifts.  The probes' own time is left out of
the work time.

``REFERENCE_N`` and ``REFERENCE_S`` are fixed: changing either changes the
scale of every calibrated timing, so results measured with different values
cannot be compared.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Iterations of the reference loop.
REFERENCE_N = 2000
#: Median time of one reference loop, probed during the workloads, on the
#: shared 2-vCPU 2.1 GHz Intel Xeon host the benchmark was written on, with
#: CPython 3.11.
REFERENCE_S = 0.0014
PROBE_INTERVAL_S = 0.1


def reference_loop() -> int:
    """Fixed interpreted work in the mix vstring does: small tuples and
    strings, dict updates, integer arithmetic and a short sort."""
    seen: dict[tuple[int, int], int] = {}
    total = 0
    for i in range(REFERENCE_N):
        key = (i % 61, i % 17)
        text = "AB"[i & 1] + str(i % 97)
        seen[key] = seen.get(key, 0) + len(text)
        total += i * i % 7
    return total + sum(sorted(seen.values())[:8])


def trimmed_mean(values: list[float], trim: float = 0.1) -> float:
    """Mean of ``values`` without the lowest and highest ``trim`` share."""
    ordered = sorted(values)
    cut = int(len(ordered) * trim)
    return statistics.fmean(ordered[cut : len(ordered) - cut])


class SpeedProbe:
    """Times ``loop`` (the reference loop) every ``interval`` s while the
    block runs.

    ``spent`` is the probes' total time, to be taken out of the block's
    duration.  ``reference()`` is the trimmed mean of the probe times: the
    work is slowed by the host's mean slowdown over the block, and trimming
    drops probes hit by an interrupt or by a timer tick.
    """

    def __init__(self, interval: float = PROBE_INTERVAL_S, loop=reference_loop):
        self.interval = interval
        self.loop = loop
        self.times: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.loop()
        took = time.perf_counter() - start
        self.times.append(took)
        self.spent += took

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference(self) -> float:
        if not self.times:
            self._on_alarm(None, None)
        return trimmed_mean(self.times)
