"""The host's pace, sampled while the benchmark runs.

A shared host runs the same code up to about twice as slowly at times,
in wall and CPU time alike, for bursts of under a second to spells of
minutes. Inside ``Pace``, a timer signal every ``INTERVAL`` seconds runs
a fixed reference kernel twice and records how long the second, warm run
took, so the sample reads the host's speed and not what the program left
in the caches. A timed call's duration, less the time of the samples
inside it, is then rescaled by the kernel's reference time over its mean
time around the call: it becomes the call's time on a host that runs the
kernel in its reference time. Nothing in a kernel touches mograd.

Contention slows different kinds of work by different amounts, so there
is one kernel per kind of step, and a workload samples the one like its
own steps:

* ``loop``: small numpy products in a Python loop, as in an
  overhead-bound descent step or Frank-Wolfe iteration;
* ``stream``: the same, then one vectorized pass over a 512 KB array, as
  in a direction call on gradient rows larger than the caches, which
  streams the rows and runs the same Python layers. In trials this
  followed such calls better than the pass alone.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import time

import numpy as np

# seconds between samples; the samples take about 1% of the run
INTERVAL = 0.01
# samples within this many seconds of a call estimate the pace during it
PAD = 0.05
# fewer samples than this in the window: take this many nearest ones
MIN_SAMPLES = 8

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((21, 8))
_W1 = _rng.standard_normal((8, 100))
_W2 = _rng.standard_normal((100, 2))
_V = _rng.standard_normal(1 << 16)
_V_OUT = np.empty_like(_V)


def loop_kernel() -> float:
    """A small MLP forward/backward and a Python loop, three times."""
    s = 0.0
    for _ in range(3):
        h = np.maximum(_A @ _W1, 0.0)
        g = h.T @ (h @ _W2)
        s = float(g.sum()) * 0.5
        s += sum(j * s for j in range(20))
    return s


def stream_kernel() -> float:
    """The loop kernel, then one vectorized pass over 512 KB."""
    s = loop_kernel()
    np.multiply(_V, 1.0001, out=_V_OUT)
    return s


# kind: (kernel, about its fastest warm time on the host the benchmark was built on)
KERNELS = {
    "loop": (loop_kernel, 40e-6),
    "stream": (stream_kernel, 60e-6),
}


class Pace:
    """Samples one kernel's time on a timer signal while the block runs."""

    def __init__(self, kind: str = "loop", interval: float = INTERVAL):
        self.kernel, self.reference = KERNELS[kind]
        self.interval = interval
        self.starts: list[float] = []
        self.seconds: list[float] = []  # each whole sample, warm-up included
        self.kernel_seconds: list[float] = []  # each warm run of the kernel
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.kernel()
        t2 = time.perf_counter()
        self.starts.append(t0)
        self.seconds.append(t2 - t0)
        self.kernel_seconds.append(t2 - t1)

    def __enter__(self) -> "Pace":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._cumulative = list(itertools.accumulate(self.seconds, initial=0.0))
        self._kernel_cumulative = list(itertools.accumulate(self.kernel_seconds, initial=0.0))

    def factor(self, start: float, end: float) -> float:
        """The kernel's reference time over its mean time around [start, end]."""
        n = len(self.starts)
        if n == 0:
            return 1.0
        lo = bisect.bisect_left(self.starts, start - PAD)
        hi = bisect.bisect_right(self.starts, end + PAD)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.starts, 0.5 * (start + end))
            lo = max(0, min(mid - MIN_SAMPLES // 2, n - MIN_SAMPLES))
            hi = min(n, lo + MIN_SAMPLES)
        kernel_time = self._kernel_cumulative[hi] - self._kernel_cumulative[lo]
        return self.reference * (hi - lo) / kernel_time

    def normalized(self, start: float, seconds: float) -> float:
        """A call's seconds without the samples inside it, at the reference pace."""
        end = start + seconds
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        own = max(seconds - (self._cumulative[hi] - self._cumulative[lo]), 0.0)
        return own * self.factor(start, end)
