"""Op timing scaled to a fixed machine speed.

The benchmark runs on shared virtual machines whose speed drifts by 20-30%
over seconds to minutes.  On a 2-vCPU Intel Xeon at 2.1 GHz, the end-to-end
figures of ten runs of one workload spread (interquartile range over median)
by up to 27% unscaled.  A fixed reference loop run in the same thread,
interleaved with the ops, slows down with them: program time over reference
time spread by 2-6% where the program alone spread by 18-24%.  So op times
are divided by the machine speed it shows, which brought the same ten-run
spreads down to 9% or less.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

# One reference_loop() on the machine the bounds were set on (the median of
# the samples taken during benchmark runs on a 2-vCPU Intel Xeon at 2.1 GHz,
# Python 3.11), so scaled times read as seconds on that machine.
REFERENCE_S = 0.002
SAMPLE_EVERY_S = 0.05
RECENT_SAMPLES = 10


def reference_loop() -> int:
    """Fixed interpreter-bound work whose time tracks the machine's speed."""
    acc = 0
    table = {}
    for i in range(10_000):
        acc ^= (i * 2654435761) & 0xFFFF
        table[i & 255] = acc
    return acc


class Clock:
    """Times calls; while it runs, a timer signal samples ``reference_loop``
    every ``SAMPLE_EVERY_S`` in this thread.

    A call's elapsed time excludes the samples taken during it and is scaled
    by ``REFERENCE_S`` over the mean reference time sampled during it, or
    over the last ``RECENT_SAMPLES`` samples when the call was too short to
    hold that many.  With ``scaled`` false nothing is sampled and the scaled
    time is the elapsed time, as traced runs need.
    """

    def __init__(self, scaled: bool = True) -> None:
        self.scaled = scaled
        self.samples: list[float] = []
        self.sampling_s = 0.0
        self._previous = None

    def __enter__(self) -> "Clock":
        if self.scaled:
            for _ in range(RECENT_SAMPLES):
                self._sample()
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.scaled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *_) -> None:
        start = perf_counter()
        reference_loop()
        took = perf_counter() - start
        self.samples.append(took)
        self.sampling_s += perf_counter() - start

    def speed(self) -> float:
        """The machine's speed over the run, as nominal over median reference time."""
        return REFERENCE_S / statistics.median(self.samples) if self.samples else 1.0

    def call(self, fn, *args):
        """Run ``fn(*args)``; returns (scaled seconds, elapsed seconds, result,
        the exception it raised or None)."""
        first, sampling = len(self.samples), self.sampling_s
        start = perf_counter()
        try:
            result, error = fn(*args), None
        except Exception as exc:  # a failed op is counted, the run goes on
            result, error = None, exc
        elapsed = perf_counter() - start - (self.sampling_s - sampling)
        if not self.samples:
            return elapsed, elapsed, result, error
        window = self.samples[first:]
        if len(window) < RECENT_SAMPLES:
            window = self.samples[-RECENT_SAMPLES:]
        return elapsed * REFERENCE_S / statistics.fmean(window), elapsed, result, error
