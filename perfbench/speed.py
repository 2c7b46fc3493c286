"""Machine-speed probe for the measured process.

The benchmark runs on shared machines whose speed moves by up to 1.85x in
phases that last from seconds to minutes (README.md, "Machine speed").  A
timer interrupts the timed phase every ``PERIOD_S`` and times a fixed
kernel that does not touch the program, made of the two kinds of work the
program does: Python lookups in a set of strings larger than the core's
cache, as in the stemmer and the sparse features, and small float32 matrix
products, as in the LSTM.  Each duration the benchmark reports is then put
at a reference speed: multiplied by ``REFERENCE_S`` over the kernel's time
near that duration, averaged as a rate.  The probes' own time is kept out
of every reading of ``clock()``.

    with SpeedProbe() as probe:
        start = probe.clock()
        work()
        seconds = probe.adjust(start, probe.clock() - start)
"""

from __future__ import annotations

import bisect
import random
import signal
import time

import numpy as np

PERIOD_S = 0.1       # one probe per this much wall time
WINDOW_S = 0.5       # probes this close to a duration set its speed
_rng = random.Random(0)
_WORDS = [f"{_rng.random():.12f}" for _ in range(40_000)]  # 5 MB with _SET
_SET = frozenset(_WORDS[::2])
_LOOKUPS = _rng.sample(_WORDS, 2_000)
_A = np.random.default_rng(0).standard_normal((64, 128)).astype(np.float32)
_B = np.random.default_rng(1).standard_normal((128, 256)).astype(np.float32)
PRODUCTS = 8
# the kernel's time at the reference speed (README.md, "Machine speed")
REFERENCE_S = 0.00100


def _kernel() -> int:
    hits = 0
    for word in _LOOKUPS:
        if word in _SET:
            hits += 1
    for _ in range(PRODUCTS):
        np.tanh(_A @ _B)
    return hits


class SpeedProbe:
    def __init__(self):
        self.starts: list[float] = []  # on the clock() scale
        self.rates: list[float] = []   # REFERENCE_S / kernel time
        self.stolen = 0.0              # wall time the probes took

    def clock(self) -> float:
        """perf_counter without the time the probes took."""
        return time.perf_counter() - self.stolen

    def probe(self, *_signal) -> None:
        """Run the kernel twice and time the second run, which finds its data
        in the cache whatever the program left there."""
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        _kernel()
        seconds = time.perf_counter() - t1
        self.starts.append(t0 - self.stolen)
        self.rates.append(REFERENCE_S / seconds)
        self.stolen += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def adjust(self, start: float, seconds: float) -> float:
        """``seconds`` from ``start`` (clock() scale) at the reference speed.

        The speed is the mean rate of the probes from WINDOW_S before the
        start to WINDOW_S after the end; a probe slowed by a context switch
        only lowers that mean a little, since a rate is at least 0."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, start + seconds + WINDOW_S)
        near = self.rates[lo:hi]
        if not near:
            raise RuntimeError("no speed probe near a timed stretch")
        return seconds * sum(near) / len(near)
