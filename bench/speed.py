"""Machine-speed reference for timings on a shared, noisy machine.

On shared hosts another tenant can slow both cores by up to half for
tens of seconds at a time (measured on the 2-core machine this
benchmark was written on: the mean time of a fixed loop over 10 s
windows had a quartile spread of 22 %).  A run of the benchmark can sit
entirely inside such a phase, so no statistic taken inside one run
removes it.  This module measures it instead: while the benchmark runs,
a SIGALRM timer runs a fixed pure-Python kernel every `INTERVAL_S`
seconds and records how long it took.  A job's wall time, less the time
the kernel itself took, is then scaled by the kernel's nominal time over
its measured time during the job: reported seconds are seconds at the
speed where the kernel takes `NOMINAL_S`.
"""

from __future__ import annotations

import bisect
import json
import signal
import statistics
import time
from contextlib import contextmanager

INTERVAL_S = 0.05
WINDOW_S = 0.25  # a job's speed is read from the samples this close to it
PAUSE_SAMPLES = 4
NOMINAL_S = 0.0005  # about the kernel's time on an unloaded core of that machine

# A small document shaped like a category file, and a table keyed like
# a fusion tensor; neither touches mtcbound, so no change to the library
# can change the kernel.
_DOCUMENT = json.dumps(
    {
        "name": "kernel",
        "S": [[{"conductor": 8, "den": 4, "nums": [i, -i, 0, i]} for i in range(6)]] * 3,
    }
)
_TABLE = {(i, i + 1): i for i in range(4000)}


def kernel() -> int:
    """Fixed interpreter work in the library's proportions: small-int
    tuple arithmetic, JSON parsing and printing, and tuple-keyed lookups.
    Against the workloads' own slowdowns it tracks them better than pure
    arithmetic does (pass-time quartile spread over 200 s on a noisy
    host: corpus 18 % raw, 11 % with pure arithmetic, 6 % with this)."""
    acc = 0
    for i in range(500):
        t = (i, i + 1, i * 3)
        acc += sum(x * x for x in t) % 7
    acc += len(json.dumps(json.loads(_DOCUMENT), sort_keys=True))
    for i in range(0, 4000, 5):
        acc += _TABLE[(i, i + 1)]
    return acc


class SpeedMeter:
    def __init__(self):
        self.times: list = []  # start of each kernel sample
        self.seconds: list = []  # its duration
        self.overhead = 0.0  # total seconds spent in kernel samples

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.times.append(start)
        self.seconds.append(took)
        self.overhead += took

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextmanager
    def paused(self):
        """No kernel samples inside (a child process runs on the other
        core then, and the kernel would measure that contention too).
        A few samples are taken on each side instead, so that the speed
        of the paused interval is read from samples just around it."""
        for _ in range(PAUSE_SAMPLES):
            self.sample()
        self.stop()
        try:
            yield
        finally:
            self.start()
            for _ in range(PAUSE_SAMPLES - 1):
                self.sample()

    def factor(self, start: float, end: float) -> float:
        """Mean of nominal/measured over the samples taken in [start, end],
        plus the last one before it: the speed the interval ran at."""
        lo = max(bisect.bisect_right(self.times, start) - 1, 0)
        hi = bisect.bisect_right(self.times, end)
        return statistics.fmean(NOMINAL_S / s for s in self.seconds[lo:max(hi, lo + 1)])

    def mark(self) -> tuple:
        return time.perf_counter(), self.overhead

    def interval(self, mark: tuple) -> tuple:
        """(start, end, wall seconds less kernel samples) since `mark`."""
        start, overhead = mark
        end = time.perf_counter()
        return start, end, end - start - (self.overhead - overhead)

    def scaled(self, interval: tuple, seconds: float | None = None) -> float:
        """Reference-speed seconds of an interval (or of `seconds` measured
        inside it), from the samples up to WINDOW_S around it.  Call it
        once the run is over, so that the later samples exist."""
        start, end, wall = interval
        return (wall if seconds is None else seconds) * self.factor(
            start - WINDOW_S, end + WINDOW_S
        )
